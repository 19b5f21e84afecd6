"""How ``python -m repro`` ends its process.

After ``main()`` returns, ``repro/__main__.py`` flushes stdout and
stderr and calls ``os._exit``, skipping interpreter teardown, unless
something could observe the difference (a host process, a tracer or
profiler, a ``python -i`` prompt).  These tests run the real command in
a child process with buffered output (no ``PYTHONUNBUFFERED``) and check
that what a caller sees — stdout bytes, exit status, files written — is
what the ordinary ``sys.exit`` ending gives.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness.cli import main
from repro.harness.resultdb import SweepJournal
from repro.harness.runner import _DEFAULT_SCALES

REPO = Path(__file__).resolve().parents[1]
#: about 11.5 KB of report: more than the 8 KB stdout buffer holds
FIGURES = ("figures", "fig1", "fig2", "fig4", "fig5", "table2", "table3",
           "--no-cache")

#: ``sitecustomize`` for the child: an ``atexit`` handler that leaves a
#: marker file, and a no-op trace function when ``EXIT_TRACE`` is set
_ATEXIT_MARKER = """
import atexit, os, sys

def _mark():
    with open(os.environ["EXIT_MARKER"], "w") as fh:
        fh.write("teardown ran\\n")

atexit.register(_mark)
if os.environ.get("EXIT_TRACE"):
    sys.settrace(lambda frame, event, arg: None)
"""

#: ``sitecustomize`` for the child: the LavaMD cell raises, so a default
#: (fail-fast) ``suite`` aborts and exits 1
_FAIL_CELL = """
from repro.harness import runner

real = runner.run_functional

def failing(name, *args, **kwargs):
    if name == "LavaMD":
        raise RuntimeError(name + ": cell crashed")
    return real(name, *args, **kwargs)

runner.run_functional = failing
"""


def _env(hook: Path | None = None, **extra) -> dict:
    """The child's environment: buffered stdio, no inherited coverage
    hooks or repro settings, ``src`` (and ``hook``) on the path."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONUNBUFFERED", "COVERAGE_PROCESS_START")
           and not k.startswith(("COV_CORE_", "REPRO_"))}
    path = [str(REPO / "src")] + ([str(hook)] if hook else [])
    env["PYTHONPATH"] = os.pathsep.join(path)
    env.update(extra)
    return env


def _python(*args, cwd, hook=None, stdout=subprocess.PIPE, env_extra=None,
            **kwargs):
    return subprocess.run([sys.executable, *args], cwd=cwd,
                          env=_env(hook, **(env_extra or {})),
                          stdout=stdout, stderr=subprocess.PIPE, **kwargs)


def _hook(tmp_path: Path, source: str) -> Path:
    hook = tmp_path / "hook"
    hook.mkdir()
    (hook / "sitecustomize.py").write_text(source)
    return hook


def test_piped_report_is_flushed_whole(tmp_path, capsys):
    """A report longer than the stdout buffer reaches the pipe in full,
    byte for byte what ``main()`` prints in process."""
    child = _python("-m", "repro", *FIGURES, cwd=tmp_path)
    assert child.returncode == 0, child.stderr
    assert main(list(FIGURES)) == 0
    expected = capsys.readouterr().out.encode()
    assert len(expected) > 8192
    assert child.stdout == expected


@pytest.mark.parametrize("argv, hook_source, status", [
    (("list",), None, 0),
    (("run", "NW", "--size", "9"), None, 2),  # argparse usage error
    (("suite",), _FAIL_CELL, 1),
], ids=["list", "usage-error", "failed-cell"])
def test_exit_status(tmp_path, argv, hook_source, status):
    hook = _hook(tmp_path, hook_source) if hook_source else None
    child = _python("-m", "repro", *argv, cwd=tmp_path, hook=hook)
    assert child.returncode == status, child.stderr


def test_closed_stdout_exits_zero(tmp_path):
    """With stdout closed (``>&-``) ``sys.stdout`` is None: nothing to
    flush, and the command still exits 0."""
    child = subprocess.run(
        ["sh", "-c", 'exec "$0" -m repro list >&-', sys.executable],
        cwd=tmp_path, env=_env(), stderr=subprocess.PIPE)
    assert child.returncode == 0
    assert child.stderr == b""


def test_broken_pipe_keeps_interpreter_exit(tmp_path):
    """A buffered report whose reader has gone fails to flush; the
    process then ends as CPython ends it, reporting the
    ``BrokenPipeError`` and exiting 120."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = _python("-m", "repro", "list", cwd=tmp_path, stdout=write_end)
    finally:
        os.close(write_end)
    assert child.returncode == 120
    assert b"BrokenPipeError" in child.stderr


def test_cprofile_prints_its_stats(tmp_path):
    child = _python("-m", "cProfile", "-m", "repro", "list", cwd=tmp_path)
    assert child.returncode == 0, child.stderr
    assert b"function calls" in child.stdout


def test_python_i_reaches_its_prompt(tmp_path):
    child = _python("-i", "-m", "repro", "list", cwd=tmp_path,
                    input=b'print("inspected")\n')
    assert child.returncode == 0, child.stderr
    assert b"inspected" in child.stdout


#: a host process that runs the command in process and carries on
_RUNPY_HOST = """
import runpy, sys
sys.argv = ["repro", "list"]
try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit as exc:
    print("host caught SystemExit", repr(exc.code))
"""


def test_run_module_in_a_host_raises_system_exit(tmp_path):
    """Run by ``runpy.run_module`` inside a host, the module ends with
    ``SystemExit(0)`` and the host goes on.  The host is a child process
    so that a broken guard cannot end the test run itself with
    status 0."""
    child = _python("-c", _RUNPY_HOST, cwd=tmp_path)
    assert child.returncode == 0, child.stderr
    assert b"benchmarks:" in child.stdout
    assert child.stdout.endswith(b"host caught SystemExit 0\n")


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "settrace"])
def test_atexit_runs_only_under_a_tracer(tmp_path, traced):
    """A plain run skips teardown, so ``atexit`` handlers do not run; a
    run under ``sys.settrace`` ends through ``sys.exit`` and runs them."""
    marker = tmp_path / "marker"
    extra = {"EXIT_MARKER": str(marker)}
    if traced:
        extra["EXIT_TRACE"] = "1"
    child = _python("-m", "repro", "list", cwd=tmp_path,
                    hook=_hook(tmp_path, _ATEXIT_MARKER), env_extra=extra)
    assert child.returncode == 0, child.stderr
    assert marker.exists() is traced


def test_journal_holds_every_cell(tmp_path):
    journal = tmp_path / "sweep.journal"
    child = _python("-m", "repro", "suite", "--journal", str(journal),
                    cwd=tmp_path)
    assert child.returncode == 0, child.stderr
    assert len(SweepJournal(journal).load()) == len(_DEFAULT_SCALES) == 13
