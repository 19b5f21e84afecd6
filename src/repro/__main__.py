"""``python -m repro`` — the Altis-style command-line driver.

Once :func:`~repro.harness.cli.main` has returned its status and its
report is flushed, the process ends with :func:`os._exit`, skipping
CPython's finalization: module teardown, a last garbage collection and
freeing memory the OS reclaims anyway.  That is about a tenth of a cold
``repro suite`` (docs/performance.md).  ``atexit`` handlers do not run
on that path.

The fast path is taken only when nothing could observe the skipped
teardown (:func:`_unobserved`).  Every other ending is the ordinary
``sys.exit``: an exception or ``SystemExit`` escaping ``main()`` (usage
errors, ``--help``), a non-int status, or a flush that fails, so a
closed pipe still reports its ``BrokenPipeError`` and exits 120.
"""

import os
import sys

from .harness.cli import main


def _unobserved() -> bool:
    """Whether nothing could tell that teardown was skipped.

    This module must be the process's ``__main__`` (not code run by
    ``runpy.run_module`` inside a host that goes on running, such as
    ``python -m cProfile -m repro``), with no trace or profile hook and
    no ``sys.monitoring`` tool installed (``coverage run``, profilers
    and debuggers, which report at exit) and no ``python -i`` prompt to
    come.
    """
    if sys.modules["__main__"].__dict__ is not globals():
        return False
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return False
    monitoring = getattr(sys, "monitoring", None)  # Python >= 3.12
    if monitoring is not None and any(  # tool ids are 0-5
            monitoring.get_tool(tool) is not None for tool in range(6)):
        return False
    return not sys.flags.inspect


def _finish(status) -> None:
    if isinstance(status, int) and _unobserved():
        try:
            for stream in (sys.stdout, sys.stderr):
                if stream is not None:  # None when the fd was closed
                    stream.flush()
        except OSError:
            pass  # sys.exit reports it, as it would have anyway
        else:
            os._exit(status)
    sys.exit(status)


_finish(main())
