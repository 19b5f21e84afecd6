"""The lazy package surface: every ``repro`` package ``__init__`` is a
table of re-exports resolved on first access (``repro._exports``)."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

PACKAGES = ["repro", "repro.altis", "repro.common", "repro.dpct",
            "repro.fpga", "repro.harness", "repro.perfmodel",
            "repro.resilience", "repro.sycl", "repro.trace"]


def _fresh(code: str) -> str:
    """Run ``code`` in a new interpreter (nothing imported yet)."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.strip()


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert module.__all__, package
    listed = dir(module)
    for name in module.__all__:
        assert getattr(module, name) is not None, f"{package}.{name}"
        assert name in listed, f"dir({package}) lacks {name}"
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")


def test_trace_is_reachable_from_the_root():
    assert _fresh("import repro; print(repro.trace.__name__)") \
        == "repro.trace"


def test_importing_a_package_loads_none_of_its_submodules():
    out = _fresh("import sys, repro, repro.harness, repro.altis\n"
                 "print(sorted(m for m in sys.modules"
                 " if m.startswith('repro')))")
    assert out == ("['repro', 'repro._exports', 'repro.altis', "
                   "'repro.harness']")


def test_star_import_and_package_attributes_match_the_submodules():
    from repro.harness import experiments, runner
    import repro.harness
    import repro.sycl
    from repro.sycl import queue

    ns = {}
    exec("from repro.sycl import *", ns)
    assert ns["Queue"] is queue.Queue is repro.sycl.Queue
    assert repro.harness.figure2 is experiments.figure2
    assert repro.harness.run_functional is runner.run_functional


def test_sycl_device_stays_the_factory_after_its_submodule_loads():
    # ``device`` is the one export that shadows a submodule of its own
    out = _fresh("import sys, repro.sycl.queue, repro.sycl.device\n"
                 "from repro.sycl import device\n"
                 "print(callable(repro.sycl.device),"
                 " device is sys.modules['repro.sycl.device'].device)")
    assert out == "True True"


def test_lazy_module_returns_a_module_already_imported():
    import json

    from repro._exports import lazy_module

    assert lazy_module("json") is json is sys.modules["json"]


def test_lazy_module_raises_for_a_missing_module():
    from repro._exports import lazy_module

    with pytest.raises(ModuleNotFoundError, match="repro_no_such_module"):
        lazy_module("repro_no_such_module")
    assert "repro_no_such_module" not in sys.modules


def test_lazy_module_executes_on_first_attribute_read(tmp_path, monkeypatch):
    """Binding runs nothing; the first read runs the body once and leaves
    a plain module behind."""
    import types

    from repro._exports import lazy_module

    name = "repro_lazy_probe"
    (tmp_path / f"{name}.py").write_text(
        "import pathlib\n"
        "pathlib.Path(__file__).with_suffix('.ran').touch()\n"
        "VALUE = 42\n")
    ran = tmp_path / f"{name}.ran"
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        module = lazy_module(name)
        assert sys.modules[name] is module
        assert type(module) is not types.ModuleType and not ran.exists()
        assert module.VALUE == 42
        assert type(module) is types.ModuleType and ran.exists()
        assert lazy_module(name) is module
    finally:
        sys.modules.pop(name, None)
