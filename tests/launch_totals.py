"""Fold a run's kernel launches into per-path counts and work totals,
either from the queues' timelines or from the traced ``launch`` spans;
each launch keeps its counts once, on its ``TimelineEntry.stats``, and
a traced launch copies them into its span's args."""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple


class LaunchTotals(NamedTuple):
    path_counts: dict
    items: int
    groups: int
    barrier_phases: int


def _fold(rows) -> LaunchTotals:
    paths: Counter = Counter()
    items = groups = barrier_phases = 0
    for path, n_items, n_groups, n_phases in rows:
        paths[path] += 1
        items += n_items
        groups += n_groups
        barrier_phases += n_phases
    return LaunchTotals(dict(paths), items, groups, barrier_phases)


def fold_timeline(*queues) -> LaunchTotals:
    """Totals of every kernel launch on the ``queues``' timelines."""
    return _fold((entry.stats.path, entry.stats.items, entry.stats.groups,
                  entry.stats.barrier_phases)
                 for queue in queues for entry in queue.timeline
                 if entry.stats is not None)


def fold_spans(events) -> LaunchTotals:
    """Totals of the ``launch`` spans among ``events``."""
    return _fold((ev.args["path"], ev.args["items"], ev.args["groups"],
                  ev.args["barrier_phases"])
                 for ev in events if ev.cat == "launch")
