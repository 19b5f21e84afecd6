"""Each command imports only what it runs.

``suite`` and ``figures`` are run in a fresh interpreter and their
``sys.modules`` checked against what they must never load: the layers
they do not call, the certificate store, ``numpy.testing`` and any
worker-pool machinery.  A static check keeps ``repro.sycl`` from
importing the harness above it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


#: what a default ``suite`` never calls: the model half of every app
#: (modeled times, FPGA designs, source models) and the result DB
_SUITE_UNLOADED = [
    "repro.sycl.certificates", "repro.sycl.exactness", "repro.dpct.migrator",
    "repro.harness.experiments", "repro.trace.profile",
    "repro.fpga.replication", "repro.cuda", "multiprocessing",
    "concurrent.futures", "concurrent.futures.process", "numpy.testing",
    "repro.perfmodel.timeline", "repro.perfmodel.overhead",
    "repro.perfmodel.traits", "repro.perfmodel.gpu", "repro.perfmodel.fpga",
    "repro.fpga", "repro.fpga.resources", "repro.fpga.synthesis",
    "repro.dpct", "repro.dpct.source_model", "repro.sycl.pipes", "json"]


@pytest.mark.parametrize("argv, unloaded, loaded, max_repro", [
    (["suite", "--cache-dir", "cache"],
     _SUITE_UNLOADED + ["repro.harness.resultdb"], [], 45),
    (["suite", "--cache-dir", "cache", "--journal", "J"],
     _SUITE_UNLOADED[:-1], ["repro.harness.resultdb"], None),
    (["figures", "fig2", "--no-cache"],
     ["repro.sycl.plan", "repro.sycl.vectorize", "concurrent.futures",
      "multiprocessing"], [], None),
], ids=["suite", "suite-journal", "figures-fig2"])
def test_auto_mode_suite_never_loads_the_store(tmp_path, argv, unloaded,
                                               loaded, max_repro):
    """A command imports only what it runs.  ``suite`` installs only a
    root; a run that validates no compiled plan never imports the
    certificate module or writes anything, and neither command loads
    the layers (or the pool and ``numpy.testing``) it does not use.
    ``suite`` loads no app's model half, and the result DB only to
    journal."""
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
    assert not (tmp_path / "cache").exists()


def test_sycl_layer_never_imports_harness():
    """The certificate store finds the fingerprint and the cache root in
    ``repro.common.cache``; nothing in ``repro.sycl`` reaches up into the
    harness."""
    import ast

    for path in sorted((REPO / "src" / "repro" / "sycl").glob("*.py")):
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
