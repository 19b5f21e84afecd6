"""Failure handling of the suite sweep: ``pool_map``'s abort and capture
modes, the degraded report rows, and the ``suite --on-error`` exit
status on a real verification failure."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.altis import AltisApp, Variant
from repro.altis.nw import NW
from repro.common.errors import CellExecutionError
from repro.harness.cli import main
from repro.harness.reporting import render_suite_report
from repro.harness.runner import RunResult, pool_map
from repro.resilience import FailedCell


def _fail_on(bad):
    """A cell function that raises on ``bad`` and squares the rest."""
    def cell(x):
        if x == bad:
            raise ValueError(f"cell {x} broke")
        return x * x
    return cell


# ---------------------------------------------------------------------------
# pool_map failure modes
# ---------------------------------------------------------------------------

def _ignore(outcome):
    """An ``on_result`` hook: with one, a serial map runs each cell as a
    structured outcome (the journaled suite's path) instead of calling
    ``fn`` bare."""


def test_pool_map_raises_cell_execution_error_with_context():
    with pytest.raises(CellExecutionError) as excinfo:
        pool_map(_fail_on(2), [1, 2, 3], on_result=_ignore)
    err = excinfo.value
    assert err.key == "2" and err.index == 1
    assert "pool cell 1" in str(err) and "ValueError" in str(err)
    assert isinstance(err.__cause__, ValueError)


def test_pool_map_abort_fails_fast_serially():
    seen = []

    def record(x):
        seen.append(x)
        return _fail_on(1)(x)

    with pytest.raises(CellExecutionError):
        pool_map(record, [0, 1, 2, 3], on_result=_ignore)
    assert seen == [0, 1]  # cell 1 raised; 2 and 3 never ran


def test_pool_map_parallel_abort_raises_cell_execution_error():
    # Regression: after the first failed cell, abort mode cancels the
    # pending futures but keeps draining as_completed — calling
    # .result() on a cancelled future raised CancelledError out of
    # pool_map instead of the documented CellExecutionError.
    fail = _fail_on(3)

    def slow(x):
        time.sleep(0.01)
        return fail(x)

    with pytest.raises(CellExecutionError) as excinfo:
        pool_map(slow, list(range(8)), workers=2, mode="thread")
    assert excinfo.value.key == "3"


def test_pool_map_captures_failed_cells():
    for workers in (None, 2):
        out = pool_map(_fail_on(1), [0, 1, 2], workers=workers,
                       mode="thread", capture_errors=True)
        assert out[0] == 0 and out[2] == 4
        failed = out[1]
        assert isinstance(failed, FailedCell)
        assert failed.key == "1" and failed.index == 1
        assert failed.error_kind == "ValueError"
        assert failed.message == "cell 1 broke"


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
