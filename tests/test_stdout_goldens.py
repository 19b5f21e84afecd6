"""Byte-exact stdout of the commands whose output the model sets.

``figures`` (all six artifacts, no cache), ``suite``, ``migrate`` and
``list`` are run in-process through :func:`repro.harness.cli.main` and
their stdout compared byte for byte with ``tests/golden/stdout/``.  A
refactor of the model half (launch plans, overheads, device specs, FPGA
synthesis, the DPCT source models) that moves any printed number fails
here.

Regenerate the files after an intentional output change with::

    PYTHONPATH=src REPRO_REGEN_GOLDEN=1 python -m pytest -q tests/test_stdout_goldens.py
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.harness.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "stdout"
_REGEN = bool(os.environ.get("REPRO_REGEN_GOLDEN"))


@pytest.mark.parametrize("slug, argv", [
    ("figures", ["figures", "fig1", "fig2", "fig4", "fig5", "table2",
                 "table3", "--no-cache"]),
    ("suite", ["suite"]),
    ("migrate", ["migrate"]),
    ("list", ["list"]),
], ids=["figures", "suite", "migrate", "list"])
def test_command_stdout_is_golden(slug, argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    path = GOLDEN_DIR / f"{slug}.txt"
    if _REGEN:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(out)
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"no golden stdout {path.name}; run with REPRO_REGEN_GOLDEN=1")
    assert out == path.read_text(), (
        f"`repro {' '.join(argv)}` stdout drifted from {path.name}; if "
        "intentional, regenerate with REPRO_REGEN_GOLDEN=1")
