"""Degraded-mode records for the suite sweep.

What is left here is :class:`~repro.resilience.checkpoint.FailedCell`:
the row a cell becomes under ``python -m repro suite --on-error
degrade`` instead of aborting the sweep.  The other failure paths live
with the code they protect: checkpoint-resume in
:class:`repro.harness.resultdb.SweepJournal` (``--journal``/
``--resume``), and the corrupt-entry fallback in
:class:`repro.harness.resultdb.FigureCache`.
docs/resilience.md walks through all of them.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "checkpoint": ("FailedCell",),
})
