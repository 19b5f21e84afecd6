"""The machine identity stamped into every benchmark record.

``perfbench/run.py`` (the cold-process benchmark of the commands users
run) stamps each record with :func:`bench_environment`, so a record
names the interpreter, platform, architecture and CPU count that
produced it: wall-clock numbers only compare on one machine.
"""

from __future__ import annotations

import os
import platform
import sys

__all__ = ["bench_environment"]


def bench_environment() -> dict:
    """Interpreter, platform, architecture and CPU count of this host."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }
