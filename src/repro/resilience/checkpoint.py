"""Degraded-mode failure records for suite sweeps.

Under ``--on-error degrade`` a sweep cell that fails does not abort the
run: it becomes a :class:`FailedCell` — a structured record carrying the
cell's identity (config/key/index), the error class and its message —
which flows through the suite report next to the successful
:class:`~repro.harness.runner.RunResult` rows.  The append-only journal
itself (:class:`~repro.harness.resultdb.SweepJournal`) lives with the
rest of the persistence layer in :mod:`repro.harness.resultdb`; this
module imports nothing from the harness.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FailedCell"]


@dataclass
class FailedCell:
    """One sweep cell that raised instead of returning a result."""

    key: str
    index: int
    error_kind: str
    message: str
    #: filled by the suite driver for benchmark cells
    config: str = ""
    device_key: str = ""
    variant: str = ""
    #: mirrors ``RunResult.verified`` so report code can treat rows uniformly
    verified: bool = False
