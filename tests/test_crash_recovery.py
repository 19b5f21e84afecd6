"""Crash-recovery integration: a sweep killed mid-run by an injected
fault resumes from its journal, re-executes only the unfinished cells,
produces a byte-identical report, and its journaled output digests still
match the golden end-to-end checksums."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.common.errors import CellExecutionError
from repro.harness.cli import main
from repro.harness.reporting import render_suite_report
from repro.harness.resultdb import SweepJournal
from repro.harness.runner import (_DEFAULT_SCALES, run_suite_functional)
from repro.trace.metrics import registry as metrics

GOLDEN = Path(__file__).resolve().parent / "golden" / "size1_checksums.json"
CONFIGS = list(_DEFAULT_SCALES)
CRASH_AT = "LavaMD"  # config index 5: five cells complete before the crash


@pytest.fixture
def crashed_journal(tmp_path):
    """A journal left behind by a sweep that died at LavaMD."""
    journal = tmp_path / "sweep.journal"
    from repro.resilience import FaultPlan
    plan = FaultPlan.parse(f"cell:exception:1.0:persist=99:match={CRASH_AT}")
    with pytest.raises(CellExecutionError) as excinfo:
        run_suite_functional(journal=journal, fault_plan=plan)
    assert excinfo.value.key == CRASH_AT
    return journal


def test_crash_journals_only_completed_cells(crashed_journal):
    records = SweepJournal(crashed_journal).load()
    done = [r["config"] for r in records]
    assert done == CONFIGS[:CONFIGS.index(CRASH_AT)]  # fail-fast at cell 5
    assert all(r["status"] == "done" and r["verified"] for r in records)


def test_resume_reexecutes_only_unfinished_cells(crashed_journal):
    n_done = len(SweepJournal(crashed_journal).load())
    metrics.reset()
    results = run_suite_functional(journal=crashed_journal, resume=True)
    snap = metrics.snapshot()
    assert snap["resilience.cells_resumed"]["value"] == n_done
    assert snap["harness.runs"]["value"] == len(CONFIGS) - n_done
    assert [r.config for r in results] == CONFIGS
    assert all(r.verified for r in results)
    # resumed rows come from the journal: no workload/outputs attached
    assert results[0].outputs is None and results[-1].outputs is not None


def test_resumed_report_is_byte_identical(crashed_journal):
    clean = render_suite_report(run_suite_functional())
    resumed = render_suite_report(
        run_suite_functional(journal=crashed_journal, resume=True))
    assert resumed == clean


def test_journaled_digests_match_golden_checksums(crashed_journal):
    golden = json.loads(GOLDEN.read_text())
    records = SweepJournal(crashed_journal).load()
    assert records
    for record in records:
        expected = golden[record["config"]]
        assert record["digests"] == {
            name: digest["sha256"] for name, digest in expected.items()}


def test_resume_rejects_tampered_journal_records(crashed_journal):
    journal = SweepJournal(crashed_journal)
    records = journal.load()
    assert len(records) >= 5
    # hand-edit the journal: one record from "different code" carrying a
    # forged modeled time, one with a foreign workload scale, one whose
    # verdict is a string (bool("false") is True), one missing a modeled
    # time, and an extra copy of a good record naming an unhashable config
    records[0]["fingerprint"] = "0" * 16
    records[0]["kernel_s"] = 123.0
    records[1]["scale"] = 99.0
    records[2]["verified"] = "false"
    del records[3]["kernel_s"]
    journal.clear()
    for record in records:
        journal.append(record)
    journal.append(dict(records[4], config=[records[4]["config"]]))
    metrics.reset()
    results = run_suite_functional(journal=journal, resume=True)
    snap = metrics.snapshot()
    # the tampered cells were re-executed, not merged from the journal
    assert snap["resilience.cells_resumed"]["value"] == len(records) - 4
    assert all(r.outputs is not None for r in results[:4])
    assert results[0].modeled_kernel_s != 123.0
    assert [r.config for r in results] == CONFIGS
    assert all(r.verified is True for r in results)
    assert (render_suite_report(results)
            == render_suite_report(run_suite_functional()))


def test_journal_tolerates_torn_tail_line(crashed_journal):
    with open(crashed_journal, "a") as fh:
        fh.write('{"status": "done", "config": "SR')  # torn mid-crash write
    records = SweepJournal(crashed_journal).load()
    assert [r["config"] for r in records] == CONFIGS[:CONFIGS.index(CRASH_AT)]
    results = run_suite_functional(journal=crashed_journal, resume=True)
    assert [r.config for r in results] == CONFIGS


def test_cli_crash_resume_round_trip(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["suite"]) == 0
    clean = capsys.readouterr().out

    journal = str(tmp_path / "cli.journal")
    status = main(["suite", "--journal", journal, "--inject-faults",
                   f"cell:exception:1.0:persist=99:match={CRASH_AT}"])
    out = capsys.readouterr().out
    assert status == 1
    assert "suite aborted" in out and "--resume" in out

    assert main(["suite", "--journal", journal, "--resume"]) == 0
    resumed = capsys.readouterr().out
    assert resumed == clean


def test_code_fingerprint_computed_once_per_sweep(tmp_path, monkeypatch):
    """journal_record() must reuse the sweep-level fingerprint instead of
    recomputing it per appended cell (timing-insensitive: counts calls,
    not seconds)."""
    from repro.harness import runner

    calls = []
    real = runner.code_fingerprint

    def counting_fingerprint():
        calls.append(1)
        return real()

    monkeypatch.setattr(runner, "code_fingerprint", counting_fingerprint)
    journal = tmp_path / "sweep.journal"
    run_suite_functional(journal=journal, resume=True)
    assert len(calls) == 1
    assert len(SweepJournal(journal).load()) == len(CONFIGS)
    # the resumed sweep also fingerprints exactly once (filter only: every
    # cell is merged from the journal)
    calls.clear()
    metrics.reset()
    run_suite_functional(journal=journal, resume=True)
    assert len(calls) == 1
    assert metrics.snapshot()["resilience.cells_resumed"]["value"] == len(
        CONFIGS)
