"""Failure handling of the suite sweep: ``run_suite_functional``'s abort
and degrade modes, the degraded report rows, and the ``suite
--on-error`` exit status on a real verification failure."""

from __future__ import annotations

import numpy as np
import pytest

import repro.harness.runner as runner_mod
from repro.altis import AltisApp, Variant
from repro.altis.nw import NW
from repro.common.errors import CellExecutionError
from repro.harness.cli import main
from repro.harness.reporting import render_suite_report
from repro.harness.runner import RunResult, run_suite_functional
from repro.resilience import FailedCell


def _fail_on(monkeypatch, bad):
    """Replace ``run_functional`` with a stub that raises on the ``bad``
    config and passes the rest; returns the configs it was called on."""
    seen = []

    def run(config, device_key, variant, mode=None):
        seen.append(config)
        if config == bad:
            raise ValueError(f"cell {config} broke")
        return _run_result(config, True)

    monkeypatch.setattr(runner_mod, "run_functional", run)
    return seen


# ---------------------------------------------------------------------------
# Abort and degrade through the serial sweep
# ---------------------------------------------------------------------------

# The two abort tests keep the names they had when the sweep ran through
# ``pool_map``; the serial loop in ``run_suite_functional`` replaced it and
# names the failing cell as "cell N".

def test_pool_map_raises_cell_execution_error_with_context(monkeypatch):
    _fail_on(monkeypatch, "FDTD2D")
    with pytest.raises(CellExecutionError) as excinfo:
        run_suite_functional()
    err = excinfo.value
    assert err.key == "FDTD2D" and err.index == 3
    assert str(err) == ("cell 3 ('FDTD2D') failed: "
                        "ValueError: cell FDTD2D broke")
    assert isinstance(err.__cause__, ValueError)


def test_pool_map_abort_fails_fast_serially(monkeypatch):
    seen = _fail_on(monkeypatch, "FDTD2D")
    with pytest.raises(CellExecutionError):
        run_suite_functional()
    # the failing cell stopped the sweep: nothing after it ran
    assert seen == ["CFD FP32", "CFD FP64", "DWT2D", "FDTD2D"]


def test_suite_degrade_captures_the_failed_cell(monkeypatch):
    seen = _fail_on(monkeypatch, "FDTD2D")
    results = run_suite_functional(degrade=True)
    assert seen == list(runner_mod._DEFAULT_SCALES)  # every cell ran
    assert [r.config for r in results] == seen
    failed = results[3]
    assert isinstance(failed, FailedCell)
    assert failed.key == "FDTD2D" and failed.index == 3
    assert failed.error_kind == "ValueError"
    assert failed.message == "cell FDTD2D broke"
    assert (failed.device_key, failed.variant) == ("rtx2080", "sycl_opt")
    assert all(r.verified for i, r in enumerate(results) if i != 3)


# ---------------------------------------------------------------------------
# Suite report and CLI exit status
# ---------------------------------------------------------------------------

def _run_result(config, verified):
    return RunResult(config=config, device_key="rtx2080",
                     variant=Variant.SYCL_OPT, verified=verified,
                     modeled_kernel_s=1.0, modeled_total_s=2.0)


def test_suite_report_counts_verification_failures_separately():
    results = [
        _run_result("NW", True),
        _run_result("GEMM", False),
        FailedCell(key="KMeans", index=2, error_kind="ValueError",
                   message="boom", config="KMeans"),
        FailedCell(key="SRAD", index=3, error_kind="AssertionError",
                   message="\nNot equal to tolerance rtol=0.0001\n\n"
                           "Mismatched elements: 4 / 4 (100%)\n x: array",
                   config="SRAD"),
    ]
    report = render_suite_report(results)
    assert ("suite: 1/4 ok, 2 failed (degraded), 1 verification failure(s)"
            in report)
    # one row per cell, a multi-line message collapsed onto its row
    lines = report.splitlines()
    assert len(lines) == len(results) + 1
    assert lines[3] == ("SRAD           FAIL  AssertionError: Not equal to "
                        "tolerance rtol=0.0001 Mismatched elements: "
                        "4 / 4 (100%) x: array")


def test_cli_suite_degrade_fails_on_verification_failure(capsys, monkeypatch):
    # degrade forgives FailedCell rows, never a cell that executed but
    # failed golden verification — CI must not mask regressions
    import repro.harness.runner as runner_mod
    monkeypatch.setattr(
        runner_mod, "run_suite_functional",
        lambda *a, **k: [_run_result("NW", True), _run_result("GEMM", False)])
    status = main(["suite", "--on-error", "degrade"])
    out = capsys.readouterr().out
    assert status == 1
    assert "1 verification failure(s)" in out


def test_cli_suite_degrade_exits_nonzero_on_real_failure(capsys,
                                                         monkeypatch):
    """A cell whose output fails ``verify`` on the real path: degrade
    still runs and reports every cell, but the sweep exits 1."""
    real_verify = AltisApp.verify

    def off_by_one(self, result, expected, **tolerances):
        result = {name: np.asarray(arr) + 1 for name, arr in result.items()}
        real_verify(self, result, expected, **tolerances)

    monkeypatch.setattr(NW, "verify", off_by_one)
    status = main(["suite", "--on-error", "degrade"])
    lines = capsys.readouterr().out.splitlines()
    assert status == 1
    assert len(lines) == 14  # 13 rows, one each, and the summary
    nw = [line for line in lines if line.startswith("NW ")]
    assert len(nw) == 1 and "FAIL  AssertionError: " in nw[0]
    assert lines[-1] == "suite: 12/13 ok, 1 failed (degraded)"


def test_cli_suite_abort_reports_the_failing_cell(capsys, monkeypatch):
    """The default sweep (serial, no journal) fails a cell the same way
    a journaled one does: a ``suite aborted`` message naming
    the cell and carrying the verify error, no report, exit status 1."""
    real_verify = AltisApp.verify

    def off_by_one(self, result, expected, **tolerances):
        result = {name: np.asarray(arr) + 1 for name, arr in result.items()}
        real_verify(self, result, expected, **tolerances)

    monkeypatch.setattr(NW, "verify", off_by_one)
    status = main(["suite"])
    out = capsys.readouterr().out
    assert status == 1
    assert out.startswith(
        "suite aborted: cell 7 ('NW') failed: AssertionError: ")
    assert "diverges from reference" in out and "suite:" not in out
