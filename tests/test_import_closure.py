"""Each command imports only what it runs.

``suite`` and ``figures`` are run in a fresh interpreter and their
``sys.modules`` checked against what they must never load: the layers
they do not call, ``numpy.testing`` and any worker-pool machinery;
``suite --mode compiled``, a spelling of auto, must load and print
exactly what ``suite`` does.  The model-only commands
(``figures``, ``list``, ``migrate``, ``synth``) never execute numpy.
Static checks keep ``repro.sycl`` from importing the harness above it,
every module reachable from another one, and every public name used
somewhere.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


#: what a default ``suite`` never calls: the model half of every app
#: (figure timings, variant traits, FPGA designs, source models) and
#: the result DB
_SUITE_UNLOADED = [
    "repro.dpct.migrator",
    "repro.harness.experiments", "repro.trace.profile", "multiprocessing",
    "concurrent.futures", "concurrent.futures.process", "numpy.testing",
    "repro.perfmodel.traits", "repro.perfmodel.fpga",
    "repro.fpga", "repro.fpga.resources", "repro.fpga.synthesis",
    "repro.dpct", "repro.dpct.source_model", "repro.sycl.pipes",
    "repro.sycl.plan", "json"]

#: the kernel model and runtime overheads the queue's clock books
_SUITE_LOADED = ["repro.perfmodel.gpu", "repro.perfmodel.overhead",
                 "repro.perfmodel.timeline"]


@pytest.mark.parametrize("argv, unloaded, loaded, max_repro", [
    (["suite"], _SUITE_UNLOADED + ["repro.harness.resultdb"], _SUITE_LOADED,
     45),
    (["suite", "--journal", "J"],
     _SUITE_UNLOADED[:-1], _SUITE_LOADED + ["repro.harness.resultdb"], None),
    (["suite", "--mode", "compiled"],
     _SUITE_UNLOADED + ["repro.harness.resultdb"], _SUITE_LOADED, 45),
    (["figures", "fig2", "--no-cache"],
     ["repro.sycl.plan", "concurrent.futures", "multiprocessing",
      "numpy._core"], [], None),
], ids=["suite", "suite-journal", "suite-compiled", "figures-fig2"])
def test_auto_mode_suite_never_loads_the_store(tmp_path, argv, unloaded,
                                               loaded, max_repro):
    """A command imports only what it runs and writes no cache.  Neither
    command loads the layers (or the pool and ``numpy.testing``) it
    does not use; ``suite`` loads no app's model half, and the result
    DB only to journal."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    env.pop("REPRO_CACHE_DIR", None)
    code = ("import sys\n"
            "from repro.harness.cli import main\n"
            f"main({argv!r})\n"
            f"print(sorted(set({unloaded!r}) & set(sys.modules)))\n"
            f"print(sorted(set({loaded!r}) - set(sys.modules)))\n"
            "print(sum(m.split('.')[0] == 'repro' for m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          check=True)
    leaked, missing, repro_modules = proc.stdout.splitlines()[-3:]
    assert leaked == "[]" and missing == "[]"
    if max_repro is not None:
        assert int(repro_modules) <= max_repro
    assert not (tmp_path / ".repro_cache").exists()


def _suite_process(tmp_path, argv):
    """``(stdout, sorted repro modules)`` of one fresh ``repro`` run."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    env.pop("REPRO_CACHE_DIR", None)
    code = ("import sys\n"
            "from repro.harness.cli import main\n"
            f"main({argv!r})\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == "
            "'repro'), file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          check=True)
    return proc.stdout, proc.stderr.splitlines()[-1]


def test_suite_compiled_imports_and_prints_what_suite_does(tmp_path):
    """``--mode compiled`` is a spelling of auto: the same ``repro``
    modules (at most 45) and a byte-identical report."""
    auto = _suite_process(tmp_path, ["suite"])
    compiled = _suite_process(tmp_path, ["suite", "--mode", "compiled"])
    assert compiled == auto
    assert auto[1].count("'repro") <= 45


#: what a model-only command never loads: numpy itself (it is bound with
#: ``lazy_module`` and never read), the launch path and the sweep
_MODEL_UNLOADED = ["numpy._core", "numpy.random", "repro.sycl.plan",
                   "repro.sycl.queue", "repro.harness.runner",
                   "concurrent.futures", "multiprocessing"]

_FIGURES = ["fig1", "fig2", "fig4", "fig5", "table2", "table3"]


@pytest.mark.parametrize("argv", [
    *(["figures", which, *cache] for which in _FIGURES
      for cache in (["--no-cache"], ["--cache-dir", "cache"])),
    ["list"], ["migrate"], ["synth", "KMeans"],
], ids=lambda argv: "-".join(argv))
def test_model_commands_never_execute_numpy(tmp_path, argv):
    """The figures, the app list, the migration report and FPGA synthesis
    are pure model code: a fresh process running one of them, cold or
    from a warm figure cache, ends with numpy registered but never
    executed."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    env.pop("REPRO_CACHE_DIR", None)
    code = ("import sys\n"
            "from repro.harness.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            f"print(sorted(set({_MODEL_UNLOADED!r}) & set(sys.modules)))\n")
    runs = 2 if "--cache-dir" in argv else 1  # cold, then warm
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                              env=env, capture_output=True, text=True,
                              check=True)
        assert proc.stdout.splitlines()[-1] == "[]"


def test_sycl_layer_never_imports_harness():
    """The SYCL runtime sits below the harness: nothing in
    ``repro.sycl`` reaches up into it."""
    for path in sorted((SRC / "repro" / "sycl").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                assert "harness" not in name.split("."), \
                    f"{path.name} imports {name}"


#: modules that no other ``repro`` module imports, each with its reason
_UNIMPORTED = {
    "repro.__main__": "the ``python -m repro`` entry point",
    "repro.harness.bench": "perfbench stamps its records with its "
                           "``bench_environment()``",
    "repro.sycl.plan": "perfbench's layer split reads its "
                       "``plan_cache_info()``",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _lazy_table(tree: ast.Module) -> dict:
    """``{name: submodule}`` of a package's ``lazy_exports`` table."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "lazy_exports"):
            table = ast.literal_eval(node.args[1])
            return {name: sub for sub, names in table.items()
                    for name in names}
    return {}


def _imports(path: Path, tree: ast.Module, modules: set, tables: dict):
    """The ``repro`` modules ``path`` imports, at module level or inside a
    function; ``from pkg import Name`` counts for the submodule that
    ``pkg``'s lazy table says owns ``Name``."""
    name = _module_name(path)
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            found.add(base)
            for alias in node.names:
                owner = tables.get(base, {}).get(alias.name)
                if f"{base}.{alias.name}" in modules:
                    found.add(f"{base}.{alias.name}")
                elif owner is not None:
                    found.add(f"{base}.{owner}")
    # importing ``a.b.c`` imports the packages ``a`` and ``a.b`` too
    return {module.rsplit(".", i)[0] for module in found
            for i in range(module.count(".") + 1)} - {name}


def test_every_module_is_imported_by_another():
    """A module that no other ``repro`` module imports is dead code that
    only its tests keep alive; the exceptions are listed with a reason."""
    trees = {path: ast.parse(path.read_text())
             for path in sorted((SRC / "repro").rglob("*.py"))}
    modules = {_module_name(path) for path in trees}
    tables = {_module_name(path): _lazy_table(tree)
              for path, tree in trees.items() if path.name == "__init__.py"}
    imported = set()
    for path, tree in trees.items():
        imported |= _imports(path, tree, modules, tables)
    unimported = modules - imported
    orphans = sorted(unimported - set(_UNIMPORTED))
    assert orphans == [], f"no repro module imports {orphans}"
    assert sorted(set(_UNIMPORTED) - unimported) == []  # stale exceptions


#: public names that nothing outside their own definition uses, each
#: with its reason
_UNUSED_PUBLIC = {
    "repro.altis.dwt2d.dwt53_inverse":
        "oracle: the tests invert the forward 5/3 lifting with it",
    "repro.altis.where.custom_fpga_prefix_sum":
        "the paper's custom FPGA scan (§5), the prefix-sum ablation's subject",
    "repro.harness.experiments.PAPER_FIG2_BASELINE":
        "paper data: Fig. 2's baseline bars, checked by the Fig. 2 benchmark",
    "repro.sycl.local_memory.group_local_memory_for_overwrite":
        "the FPGA-only local-memory API of paper §5.2, pinned by its tests",
    "repro.sycl.executor.execution_cache_info": "test cache hook",
    "repro.sycl.executor.clear_execution_caches": "test cache hook",
}

#: the trees whose code counts as a use of a public name
_USER_TREES = ("src", "examples", "tools", "perfbench")


def _public_names(tree: ast.Module) -> list:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def test_every_public_name_is_used():
    """A name in a module's ``__all__`` that no code reads (by name, as a
    variable or an attribute) outside its own ``def``/``class`` is an
    entry point with no caller; the exceptions are listed with a reason.
    Package ``__init__`` tables only re-export, so they are no use."""
    trees = {path: ast.parse(path.read_text())
             for root in _USER_TREES
             for path in sorted((REPO / root).rglob("*.py"))}
    uses: dict[str, list] = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                uses.setdefault(node.id, []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((path, node.lineno))
    unused = set()
    for path, tree in trees.items():
        if not path.is_relative_to(SRC / "repro"):
            continue
        bodies = {node.name: (node.lineno, node.end_lineno)
                  for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for name in _public_names(tree):
            first, last = bodies.get(name, (0, -1))
            if not any(where != path or not first <= line <= last
                       for where, line in uses.get(name, ())):
                unused.add(f"{_module_name(path)}.{name}")
    assert sorted(unused - set(_UNUSED_PUBLIC)) == []
    assert sorted(set(_UNUSED_PUBLIC) - unused) == []  # stale exceptions


#: annotated class attributes that no code in the user trees reads,
#: each with its reason
_UNREAD_FIELDS = {
    "repro.fpga.resources.ResourceEstimate.dsps":
        "estimated DSP use; the toolchain tests check how it scales",
    "repro.perfmodel.fpga.FpgaKernelTiming.cycles":
        "the cycle count the FPGA timing tests check",
    "repro.perfmodel.spec.FpgaResources.dsps_total":
        "Table 2 data, pinned by the device-spec tests",
    "repro.sycl.ndrange.BarrierToken.fence_space":
        "the fence argument of the SYCL barrier call, checked by its tests",
}


def test_every_dataclass_field_is_read():
    """An annotated class attribute (a dataclass field, a class-level
    default) that no code reads as ``.name`` is a settable value with
    no reader; the exceptions are listed with a reason."""
    trees = {path: ast.parse(path.read_text())
             for root in _USER_TREES
             for path in sorted((REPO / root).rglob("*.py"))}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = set()
    for path, tree in trees.items():
        if not path.is_relative_to(SRC / "repro"):
            continue
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and stmt.target.id not in read):
                    unread.add(f"{_module_name(path)}.{cls.name}."
                               f"{stmt.target.id}")
    assert sorted(unread - set(_UNREAD_FIELDS)) == []
    assert sorted(set(_UNREAD_FIELDS) - unread) == []  # stale exceptions
