"""Crash-recovery integration: a sweep that dies mid-run — by an
exception in a cell, or by a real ``SIGKILL`` of its process — resumes
from its journal, re-executes only the unfinished cells, produces a
byte-identical report, and its journaled output digests still match the
golden end-to-end checksums."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.common.errors import CellExecutionError
from repro.harness import runner
from repro.harness.cli import main
from repro.harness.reporting import render_suite_report
from repro.harness.resultdb import SweepJournal
from repro.harness.runner import (_DEFAULT_SCALES, _GOLDEN_DIGESTS,
                                  run_suite_functional)
from repro.trace import tracing

REPO = Path(__file__).resolve().parents[1]
CONFIGS = list(_DEFAULT_SCALES)
CRASH_AT = "LavaMD"  # config index 5: five cells complete before the crash


def _executed(tracer) -> list[str]:
    """The cells a traced sweep executed: one ``app`` span each."""
    return [ev.args["config"] for ev in tracer.events() if ev.cat == "app"]


def _crash_at(mp, config):
    """Make ``config``'s cell raise, as a crashing cell would."""
    real = runner.run_functional

    def crashing(name, *args, **kwargs):
        if name == config:
            raise RuntimeError(f"{name}: cell crashed")
        return real(name, *args, **kwargs)

    mp.setattr(runner, "run_functional", crashing)


@pytest.fixture
def crashed_journal(tmp_path, monkeypatch):
    """A journal left behind by a sweep that died at LavaMD."""
    journal = tmp_path / "sweep.journal"
    with monkeypatch.context() as mp:
        _crash_at(mp, CRASH_AT)
        with pytest.raises(CellExecutionError) as excinfo:
            run_suite_functional(journal=journal)
    assert excinfo.value.key == CRASH_AT
    return journal


def test_crash_journals_only_completed_cells(crashed_journal):
    records = SweepJournal(crashed_journal).load()
    done = [r["config"] for r in records]
    assert done == CONFIGS[:CONFIGS.index(CRASH_AT)]  # fail-fast at cell 5
    assert all(r["status"] == "done" and r["verified"] for r in records)


def test_resume_reexecutes_only_unfinished_cells(crashed_journal):
    n_done = len(SweepJournal(crashed_journal).load())
    with tracing() as tracer:
        results = run_suite_functional(journal=crashed_journal, resume=True)
    assert _executed(tracer) == CONFIGS[n_done:]
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
    records = SweepJournal(crashed_journal).load()
    assert records
    for record in records:
        expected = _GOLDEN_DIGESTS[record["config"]]
        assert record["digests"] == {
            name: digest[0] for name, digest in expected.items()}


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
    with tracing() as tracer:
        results = run_suite_functional(journal=journal, resume=True)
    # the tampered cells were re-executed, not merged from the journal
    assert _executed(tracer) == [c for c in CONFIGS
                                 if c != records[4]["config"]]
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
    with monkeypatch.context() as mp:
        _crash_at(mp, CRASH_AT)
        status = main(["suite", "--journal", journal])
    out = capsys.readouterr().out
    assert status == 1
    assert "suite aborted" in out and "--resume" in out

    assert main(["suite", "--journal", journal, "--resume"]) == 0
    resumed = capsys.readouterr().out
    assert resumed == clean


def test_resume_accepts_either_spelling_of_a_mode(tmp_path, monkeypatch):
    """Journal records carry the queue's resolved mode: a journal that
    ``suite --mode compiled`` (a spelling of auto) wrote is resumed by
    ``suite``, which executes no cell and appends no record."""
    monkeypatch.chdir(tmp_path)
    journal = str(tmp_path / "compiled.journal")
    assert main(["suite", "--mode", "compiled", "--journal", journal]) == 0
    with tracing() as tracer:
        assert main(["suite", "--journal", journal, "--resume"]) == 0
    assert _executed(tracer) == []
    assert len(Path(journal).read_text().splitlines()) == len(CONFIGS)


#: run as ``sitecustomize`` in the killed process: LavaMD's cell sends
#: its own process a SIGKILL, so no handler, ``finally`` or flush runs
_KILL_AT_CRASH = f"""
import os, signal
from repro.harness import runner

real = runner.run_functional

def killing(name, *args, **kwargs):
    if name == {CRASH_AT!r}:
        os.kill(os.getpid(), signal.SIGKILL)
    return real(name, *args, **kwargs)

runner.run_functional = killing
"""


def _repro(*argv, cwd, extra_path=None):
    path = [str(REPO / "src")] + ([str(extra_path)] if extra_path else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    env.pop("REPRO_CACHE_DIR", None)
    return subprocess.run([sys.executable, "-m", "repro", *argv], cwd=cwd,
                          env=env, capture_output=True)


def test_sigkilled_suite_resumes_byte_identical(tmp_path):
    """A ``suite --journal`` process killed by SIGKILL inside the LavaMD
    cell: ``--resume`` re-runs only the eight unfinished cells and prints
    exactly what an uninterrupted ``suite`` prints."""
    clean = _repro("suite", cwd=tmp_path)
    assert clean.returncode == 0

    hook = tmp_path / "hook"
    hook.mkdir()
    (hook / "sitecustomize.py").write_text(_KILL_AT_CRASH)
    journal = tmp_path / "sweep.journal"
    killed = _repro("suite", "--journal", str(journal), cwd=tmp_path,
                    extra_path=hook)
    assert killed.returncode == -signal.SIGKILL
    done = CONFIGS[:CONFIGS.index(CRASH_AT)]
    assert [r["config"] for r in SweepJournal(journal).load()] == done

    resumed = _repro("suite", "--journal", str(journal), "--resume",
                     cwd=tmp_path)
    assert resumed.returncode == 0
    assert resumed.stdout == clean.stdout
    # the resume appended exactly the cells the killed run never finished
    assert [r["config"] for r in SweepJournal(journal).load()] == CONFIGS


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
    with tracing() as tracer:
        run_suite_functional(journal=journal, resume=True)
    assert len(calls) == 1
    assert _executed(tracer) == []
