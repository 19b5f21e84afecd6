"""The documentation site is part of the contract: the nav is complete,
links resolve, the generated API reference matches the live package,
every CLI flag is documented, and every paper artifact has a row in the
reproduction map."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.harness.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs"


def _load_build_docs():
    spec = importlib.util.spec_from_file_location(
        "build_docs", ROOT / "tools" / "build_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def build_docs():
    return _load_build_docs()


def test_strict_check_passes(build_docs):
    assert build_docs.check() == []


def test_nav_lists_every_page(build_docs):
    pages = build_docs.nav_pages()
    on_disk = {p.relative_to(DOCS).as_posix() for p in DOCS.rglob("*.md")}
    assert set(pages) == on_disk
    for required in ("index.md", "quickstart.md", "cli.md",
                     "reproduction-map.md", "architecture.md",
                     "calibration.md", "observability.md", "performance.md",
                     "resilience.md", "api.md"):
        assert required in pages


def test_api_reference_is_fresh(build_docs):
    assert build_docs.generate_api() == (DOCS / "api.md").read_text()


def test_api_reference_covers_public_surface(build_docs):
    api = (DOCS / "api.md").read_text()
    for module in ("repro.sycl.queue", "repro.sycl.plan",
                   "repro.harness.runner", "repro.harness.bench",
                   "repro.resilience", "repro.trace"):
        assert f"## `{module}`" in api
    for name in ("run_suite_functional", "FailedCell",
                 "SweepJournal", "render_suite_report",
                 "plan_cache_info", "bench_environment"):
        assert name in api


def test_unlisted_public_module_fails_strict_check(build_docs):
    """A new module under a covered package must be classified — either
    documented in api.md or explicitly folded into its package page —
    or the strict check fails."""
    assert build_docs.unclassified_modules() == []
    # simulate forgetting to list repro.sycl.plan: the helper (and via
    # it, check()) must flag exactly that module
    pruned = [m for m in build_docs.API_MODULES if m != "repro.sycl.plan"]
    assert build_docs.unclassified_modules(api_modules=pruned) == [
        "repro.sycl.plan"]


def test_stale_entry_fails_strict_check(build_docs, monkeypatch):
    """A module listed for the API page but deleted from ``src/`` fails
    the strict check, whether it has its own page or is folded."""
    assert build_docs.stale_entries() == []
    gone = "repro.sycl.no_such_module"
    assert build_docs.stale_entries(
        api_modules=[*build_docs.API_MODULES, gone]) == [gone]
    monkeypatch.setattr(build_docs, "API_FOLDED",
                        build_docs.API_FOLDED | {gone})
    assert any(gone in error for error in build_docs.check())


def _subcommands():
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if hasattr(a, "choices") and a.choices)
    return subparsers.choices


def test_every_cli_flag_is_documented():
    cli_md = (DOCS / "cli.md").read_text()
    subcommands = _subcommands()
    for name, sub in subcommands.items():
        assert f"## {name}" in cli_md
        for action in sub._actions:
            for opt in action.option_strings:
                if opt.startswith("--") and opt != "--help":
                    assert opt in cli_md, f"{name} {opt} missing in cli.md"


def test_every_subcommand_has_runnable_example():
    """Every subcommand gets a copy-pasteable ``python -m repro <cmd>``
    example in cli.md, and the documented entry point actually accepts
    the subcommand (smoke-executed with ``--help``)."""
    import os
    import subprocess
    import sys

    cli_md = (DOCS / "cli.md").read_text()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for name in _subcommands():
        assert f"python -m repro {name}" in cli_md, (
            f"cli.md has no copy-pasteable example for {name!r}")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", name, "--help"],
            capture_output=True, text=True, env=env, cwd=ROOT)
        assert proc.returncode == 0, proc.stderr
        assert name in proc.stdout


def test_reproduction_map_covers_paper_artifacts():
    text = (DOCS / "reproduction-map.md").read_text()
    for artifact in ("Table 1", "Table 2", "Table 3", "Fig. 1", "Fig. 2",
                     "Fig. 4", "Fig. 5", "§3.2"):
        assert artifact in text, f"{artifact} missing from reproduction map"
    for module in ("repro.harness.experiments", "repro.perfmodel.spec",
                   "repro.fpga", "repro.dpct", "repro.resilience"):
        assert module in text
    for test in ("test_harness_experiments", "test_dpct",
                 "test_golden_fixtures", "test_crash_recovery"):
        assert test in text


def test_fallback_html_build(build_docs, tmp_path):
    written = build_docs.build(tmp_path)
    names = {p.name for p in written}
    assert "index.html" in names and "api.html" in names
    index = (tmp_path / "index.html").read_text()
    assert '<a href="quickstart.html">' in index  # nav links rewritten
    assert "<h1" in index
