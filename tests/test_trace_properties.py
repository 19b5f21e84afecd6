"""Property-based tests for trace span invariants.

Hypothesis drives randomly shaped span trees through a real
:class:`~repro.trace.Tracer` (no mocked clocks) and checks the
structural invariants every consumer of the trace relies on:

* spans nest properly — every child interval lies within its parent's;
* sibling durations sum to no more than the parent's duration;
* a disabled tracer emits nothing and hands out the shared no-op
  context;
* the Chrome export round-trips through ``json.loads`` with the
  complete-event fields (``ph``/``ts``/``dur``) intact.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import (
    Tracer,
    current_tracer,
    dumps_chrome_trace,
    install_tracer,
    span,
    tracing,
)
from repro.trace.spans import _NULL_CONTEXT

# a "program" is a tree of nested span scopes: each node is a list of
# children, executed depth-first under one tracer
_TREES = st.recursive(
    st.just([]),
    lambda children: st.lists(children, min_size=1, max_size=4),
    max_leaves=24,
)

_NAMES = st.text(
    alphabet=st.characters(codec="utf-8",
                           exclude_categories=("Cs",)),
    min_size=1, max_size=24)

_ARG_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2**40, 2**40),
    st.floats(allow_nan=False, allow_infinity=False), _NAMES)


def _execute(tracer: Tracer, tree: list, path: str = "r") -> None:
    with tracer.span(path, "node", depth=path.count(".")):
        for i, child in enumerate(tree):
            _execute(tracer, child, f"{path}.{i}")


def _by_id(events):
    return {ev.id: ev for ev in events}


@given(tree=_TREES)
@settings(max_examples=60, deadline=None)
def test_spans_nest_properly(tree):
    tracer = Tracer()
    _execute(tracer, tree)
    events = tracer.events()
    spans = _by_id(events)
    roots = [ev for ev in events if ev.parent_id is None]
    assert len(roots) == 1  # one program, one root
    for ev in events:
        assert ev.dur_us >= 0.0
        if ev.parent_id is None:
            continue
        parent = spans[ev.parent_id]
        assert parent.start_us <= ev.start_us
        assert ev.end_us <= parent.end_us + 1e-6


@given(tree=_TREES)
@settings(max_examples=60, deadline=None)
def test_child_durations_sum_within_parent(tree):
    tracer = Tracer()
    _execute(tracer, tree)
    events = tracer.events()
    children: dict[int, float] = {}
    for ev in events:
        if ev.parent_id is not None:
            children[ev.parent_id] = children.get(ev.parent_id, 0.0) + ev.dur_us
    spans = _by_id(events)
    for parent_id, total in children.items():
        assert total <= spans[parent_id].dur_us + 1e-6


@given(tree=_TREES)
@settings(max_examples=25, deadline=None)
def test_disabled_tracer_emits_nothing(tree):
    assert current_tracer() is None
    ctx = span("anything", "cat")
    assert ctx is _NULL_CONTEXT
    with ctx as handle:
        assert handle is None
    # exercising the convenience API without a tracer leaves no trace
    # anywhere: a subsequently installed tracer starts empty
    with tracing() as tracer:
        assert tracer.events() == []
    assert current_tracer() is None


@given(tree=_TREES, names=st.lists(_NAMES, min_size=1, max_size=4),
       args=st.dictionaries(_NAMES, _ARG_VALUES, max_size=4))
@settings(max_examples=60, deadline=None)
def test_chrome_export_round_trips(tree, names, args):
    tracer = Tracer()
    _execute(tracer, tree)
    for i, name in enumerate(names):
        # pre-timed spans on both clock domains
        tracer.complete(name, "modeled", float(i), float(i) * 0.5,
                        tid="modeled:test", **args)
    events = tracer.events()
    doc = json.loads(dumps_chrome_trace(events))
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    assert len(doc["traceEvents"]) == len(events)
    for raw, ev in zip(doc["traceEvents"], events):
        assert raw["ph"] == "X"
        assert raw["name"] == ev.name
        assert raw["cat"] == ev.cat
        assert raw["ts"] == ev.start_us
        assert raw["dur"] == ev.dur_us
        assert raw["args"]["span_id"] == ev.id


def test_install_tracer_restores_previous():
    first = Tracer()
    second = Tracer()
    assert install_tracer(first) is None
    try:
        assert install_tracer(second) is first
        assert current_tracer() is second
        assert install_tracer(first) is second
    finally:
        install_tracer(None)
    assert current_tracer() is None
