#!/usr/bin/env python
"""Dependency-free documentation toolchain.

CI builds the site with ``mkdocs build --strict``; this script covers
the parts that must also work in a bare environment (no mkdocs, no
pyyaml) so the docs are checked by the tier-1 test suite itself:

* ``--gen-api``  regenerate ``docs/api.md`` from the live package —
  module docstrings, public classes/functions with signatures — so the
  API reference can never drift silently from the code;
* ``--check``    strict validation: every nav entry exists, every page
  is in the nav, every relative link/anchor in ``docs/*.md`` resolves,
  every module listed for the API page exists, and ``docs/api.md``
  matches a fresh regeneration (exit 1 otherwise);
* ``--build``    render a minimal static HTML site (fallback for
  environments without mkdocs; CI uploads the real mkdocs site).

Run from the repository root::

    PYTHONPATH=src python tools/build_docs.py --check
"""

from __future__ import annotations

import argparse
import html
import inspect
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs"
MKDOCS_YML = ROOT / "mkdocs.yml"

#: modules documented in docs/api.md, in page order
API_MODULES = [
    "repro",
    "repro.sycl.queue",
    "repro.sycl.executor",
    "repro.sycl.plan",
    "repro.harness.runner",
    "repro.harness.resultdb",
    "repro.harness.reporting",
    "repro.harness.cli",
    "repro.harness.bench",
    "repro.resilience",
    "repro.resilience.checkpoint",
    "repro.trace",
    "repro.trace.spans",
    "repro.trace.metrics",
    "repro.trace.profile",
]

#: packages whose every submodule must be *classified* — either
#: documented on its own api.md page (API_MODULES) or deliberately
#: folded into its package's surface (API_FOLDED).  A new public module
#: that is neither fails ``--check``, so the API reference cannot
#: silently lose coverage of new code.
API_PACKAGES = ["repro.sycl", "repro.harness", "repro.resilience",
                "repro.trace"]

#: submodules re-exported through their package ``__init__`` (and thus
#: documented via the package page) rather than on a page of their own
API_FOLDED = {
    "repro.sycl.device", "repro.sycl.event", "repro.sycl.kernel",
    "repro.sycl.local_memory", "repro.sycl.ndrange", "repro.sycl.onedpl",
    "repro.sycl.pipes",
    "repro.harness.experiments",
    "repro.trace.export",
}


def unclassified_modules(api_modules: list[str] | None = None,
                         folded: set[str] | None = None) -> list[str]:
    """Submodules of :data:`API_PACKAGES` that are neither documented
    nor folded — each one is a strict-check error."""
    api_modules = API_MODULES if api_modules is None else api_modules
    folded = API_FOLDED if folded is None else folded
    missing = []
    for package in API_PACKAGES:
        pkg_dir = ROOT / "src" / Path(*package.split("."))
        for py in sorted(pkg_dir.glob("*.py")):
            if py.stem.startswith("_"):
                continue
            modname = f"{package}.{py.stem}"
            if modname not in api_modules and modname not in folded:
                missing.append(modname)
    return missing


def stale_entries(api_modules: list[str] | None = None,
                  folded: set[str] | None = None) -> list[str]:
    """:data:`API_MODULES` and :data:`API_FOLDED` entries whose module
    file does not exist — each one is a strict-check error."""
    api_modules = API_MODULES if api_modules is None else api_modules
    folded = API_FOLDED if folded is None else folded
    stale = []
    for modname in [*api_modules, *sorted(folded)]:
        path = ROOT / "src" / Path(*modname.split("."))
        if not (path.with_suffix(".py").exists()
                or (path / "__init__.py").exists()):
            stale.append(modname)
    return stale


# ---------------------------------------------------------------------------
# mkdocs.yml nav (parsed directly: pyyaml is not a dependency)
# ---------------------------------------------------------------------------

def nav_pages(text: str | None = None) -> list[str]:
    """The .md paths listed under ``nav:`` in mkdocs.yml, in order."""
    if text is None:
        text = MKDOCS_YML.read_text()
    pages = []
    in_nav = False
    for line in text.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if not line.startswith(" "):
            in_nav = line.startswith("nav:")
            continue
        if in_nav:
            m = re.search(r":\s*([\w./-]+\.md)\s*$", line)
            if m:
                pages.append(m.group(1))
    return pages


# ---------------------------------------------------------------------------
# API reference generation
# ---------------------------------------------------------------------------

def _first_paragraph(doc: str | None) -> str:
    if not doc:
        return "*(undocumented)*"
    return inspect.cleandoc(doc).split("\n\n")[0].replace("\n", " ")


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _public_members(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    members = []
    for name in names:
        obj = getattr(module, name, None)
        if inspect.ismodule(obj) or obj is None:
            continue
        # only document members defined by (or re-exported into) repro
        mod = getattr(obj, "__module__", "")
        if not (inspect.isclass(obj) or inspect.isfunction(obj)):
            continue
        if not mod.startswith("repro"):
            continue
        members.append((name, obj))
    return members


def generate_api() -> str:
    sys.path.insert(0, str(ROOT / "src"))
    import importlib

    lines = [
        "# API reference",
        "",
        "*Generated by `tools/build_docs.py --gen-api` — do not edit by "
        "hand.  `--check` fails when this page is stale.*",
        "",
    ]
    for modname in API_MODULES:
        module = importlib.import_module(modname)
        lines.append(f"## `{modname}`")
        lines.append("")
        lines.append(_first_paragraph(module.__doc__))
        lines.append("")
        for name, obj in _public_members(module):
            kind = "class" if inspect.isclass(obj) else "def"
            lines.append(f"### `{kind} {modname}.{name}{_signature(obj)}`")
            lines.append("")
            lines.append(_first_paragraph(obj.__doc__))
            lines.append("")
            if inspect.isclass(obj):
                for mname, meth in sorted(vars(obj).items()):
                    if mname.startswith("_"):
                        continue
                    if not (inspect.isfunction(meth)
                            or isinstance(meth, (classmethod, staticmethod,
                                                 property))):
                        continue
                    fn = meth
                    if isinstance(meth, (classmethod, staticmethod)):
                        fn = meth.__func__
                    if isinstance(meth, property):
                        lines.append(f"- `{mname}` (property) — "
                                     f"{_first_paragraph(meth.__doc__)}")
                        continue
                    lines.append(f"- `{mname}{_signature(fn)}` — "
                                 f"{_first_paragraph(fn.__doc__)}")
                if lines[-1].startswith("- "):
                    lines.append("")
    return "\n".join(lines).rstrip() + "\n"


# ---------------------------------------------------------------------------
# Strict checking
# ---------------------------------------------------------------------------

_LINK = re.compile(r"(?<!!)\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_CODE_FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)


def _anchor(heading: str) -> str:
    """The heading's anchor slug, matching python-markdown's toc
    slugify (used by mkdocs): drop punctuation incl. dots, spaces
    become dashes."""
    text = heading.strip().lower()
    text = re.sub(r"[^\w\s-]", "", text)
    return re.sub(r"[\s]+", "-", text).strip("-")


def check() -> list[str]:
    errors = []
    if not MKDOCS_YML.exists():
        return ["mkdocs.yml is missing"]
    pages = nav_pages()
    if not pages:
        errors.append("mkdocs.yml has an empty nav")
    for page in pages:
        if not (DOCS / page).exists():
            errors.append(f"nav entry {page!r} does not exist under docs/")
    on_disk = sorted(p.relative_to(DOCS).as_posix()
                     for p in DOCS.rglob("*.md"))
    for page in on_disk:
        if page not in pages:
            errors.append(f"docs/{page} is not listed in the mkdocs nav")

    anchors = {}
    for page in on_disk:
        text = _CODE_FENCE.sub("", (DOCS / page).read_text())
        anchors[page] = {_anchor(h) for h in _HEADING.findall(text)}
    for page in on_disk:
        text = _CODE_FENCE.sub("", (DOCS / page).read_text())
        for target in _LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, frag = target.partition("#")
            if not path_part:  # same-page anchor
                if frag and frag not in anchors[page]:
                    errors.append(f"docs/{page}: broken anchor #{frag}")
                continue
            resolved = ((DOCS / page).parent / path_part).resolve()
            try:
                rel = resolved.relative_to(DOCS).as_posix()
            except ValueError:
                errors.append(f"docs/{page}: link {target!r} escapes docs/ "
                              "(breaks `mkdocs build --strict`)")
                continue
            if rel not in anchors:
                errors.append(f"docs/{page}: broken link {target!r}")
                continue
            if frag and frag not in anchors[rel]:
                errors.append(
                    f"docs/{page}: broken anchor {target!r}")

    for modname in unclassified_modules():
        errors.append(
            f"public module {modname} is not covered by docs/api.md — "
            "add it to API_MODULES (own page) or API_FOLDED "
            "(documented via its package) in tools/build_docs.py")
    stale = stale_entries()
    for modname in stale:
        errors.append(
            f"{modname} is listed in tools/build_docs.py but its module "
            "file does not exist — remove the entry")
    if stale:
        return errors  # the API page cannot be regenerated

    fresh = generate_api()
    current = (DOCS / "api.md").read_text() if (DOCS / "api.md").exists() else ""
    if fresh != current:
        errors.append("docs/api.md is stale — regenerate with "
                      "`PYTHONPATH=src python tools/build_docs.py --gen-api`")
    return errors


# ---------------------------------------------------------------------------
# Minimal HTML rendering (fallback site; CI builds the real one with mkdocs)
# ---------------------------------------------------------------------------

_STYLE = """
body{max-width:52rem;margin:2rem auto;padding:0 1rem;
     font-family:system-ui,sans-serif;line-height:1.55;color:#222}
pre{background:#f6f8fa;padding:.8rem;overflow-x:auto;border-radius:6px}
code{background:#f6f8fa;padding:.1em .3em;border-radius:4px;
     font-size:.92em}
pre code{padding:0}
nav{font-size:.92em;border-bottom:1px solid #ddd;
    padding-bottom:.6rem;margin-bottom:1.2rem}
nav a{margin-right:.9rem}
table{border-collapse:collapse}td,th{border:1px solid #ccc;
     padding:.25rem .6rem}
h1,h2,h3{line-height:1.25}
a{color:#0b62a4}
"""


def _render_inline(text: str) -> str:
    text = html.escape(text, quote=False)
    text = re.sub(r"`([^`]+)`", r"<code>\1</code>", text)
    text = re.sub(r"\*\*([^*]+)\*\*", r"<strong>\1</strong>", text)
    text = re.sub(r"(?<!\!)\[([^\]]*)\]\(([^)\s]+)\)",
                  lambda m: '<a href="%s">%s</a>'
                  % (re.sub(r"\.md(#|$)", r".html\1", m.group(2)),
                     m.group(1)),
                  text)
    return text


def md_to_html(text: str) -> str:
    out, lines = [], text.splitlines()
    i, in_list, in_table = 0, False, False
    while i < len(lines):
        line = lines[i]
        if line.startswith("```"):
            block = []
            i += 1
            while i < len(lines) and not lines[i].startswith("```"):
                block.append(lines[i])
                i += 1
            i += 1
            out.append("<pre><code>%s</code></pre>"
                       % html.escape("\n".join(block)))
            continue
        if in_list and not line.lstrip().startswith(("-", "*")):
            out.append("</ul>")
            in_list = False
        if in_table and not line.startswith("|"):
            out.append("</table>")
            in_table = False
        m = re.match(r"^(#{1,6})\s+(.*)$", line)
        if m:
            level = len(m.group(1))
            out.append('<h%d id="%s">%s</h%d>'
                       % (level, _anchor(m.group(2)),
                          _render_inline(m.group(2)), level))
        elif line.startswith("|"):
            cells = [c.strip() for c in line.strip("|").split("|")]
            if all(re.fullmatch(r":?-+:?", c) for c in cells):
                i += 1
                continue
            if not in_table:
                out.append("<table>")
                in_table = True
            out.append("<tr>%s</tr>" % "".join(
                f"<td>{_render_inline(c)}</td>" for c in cells))
        elif line.lstrip().startswith(("- ", "* ")):
            if not in_list:
                out.append("<ul>")
                in_list = True
            out.append(f"<li>{_render_inline(line.lstrip()[2:])}</li>")
        elif line.strip():
            out.append(f"<p>{_render_inline(line)}</p>")
        i += 1
    if in_list:
        out.append("</ul>")
    if in_table:
        out.append("</table>")
    return "\n".join(out)


def build(out_dir: Path) -> list[Path]:
    pages = nav_pages()
    nav_html = "".join(
        '<a href="%s">%s</a>' % (p.replace(".md", ".html"),
                                 Path(p).stem.replace("-", " "))
        for p in pages)
    written = []
    out_dir.mkdir(parents=True, exist_ok=True)
    for page in pages:
        body = md_to_html((DOCS / page).read_text())
        dest = out_dir / page.replace(".md", ".html")
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_text(
            "<!doctype html><html><head><meta charset='utf-8'>"
            f"<title>{Path(page).stem}</title><style>{_STYLE}</style>"
            f"</head><body><nav>{nav_html}</nav>{body}</body></html>")
        written.append(dest)
    return written


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gen-api", action="store_true",
                        help="regenerate docs/api.md from the live package")
    parser.add_argument("--check", action="store_true",
                        help="strict nav/link/anchor/api-freshness check")
    parser.add_argument("--build", action="store_true",
                        help="render the fallback HTML site")
    parser.add_argument("--out", default="site", metavar="DIR",
                        help="output directory for --build (default: site)")
    args = parser.parse_args(argv)
    if not (args.gen_api or args.check or args.build):
        parser.error("pick at least one of --gen-api/--check/--build")
    if args.gen_api:
        (DOCS / "api.md").write_text(generate_api())
        print("wrote docs/api.md")
    if args.check:
        errors = check()
        for err in errors:
            print(f"docs check: {err}", file=sys.stderr)
        if errors:
            return 1
        print(f"docs check: {len(nav_pages())} pages ok")
    if args.build:
        written = build(Path(args.out))
        print(f"wrote {len(written)} pages to {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
