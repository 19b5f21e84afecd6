"""Pure measurement helpers for the cold-process benchmark.

Nothing here starts a process or touches the file system, so the
self-tests exercise every rule on synthetic data:

* :func:`tail` — the highest quartile that still has ten samples
  beyond it (nearest rank), with the percentile and sample count;
* :func:`self_times` / :func:`fold_layers` — span self time (duration
  minus the part of its interval that child spans cover) summed per
  layer;
* :func:`parse_importtime` — ``python -X importtime`` self times summed
  per import layer.
"""

from __future__ import annotations

import math
import re
import statistics

#: the tail is the highest of these percentiles with at least
#: ``TAIL_BEYOND`` samples strictly beyond it
TAIL_PERCENTILES = (75, 50, 25)
TAIL_BEYOND = 10

#: span category -> layer; categories not listed inherit their parent's
#: layer (transfers, vectorize fallbacks, fault/retry markers)
CAT_LAYERS = {
    "launch": "sycl.dispatch",
    "plan": "sycl.plan",
    "kernel-form": "sycl.kernel",
    "barrier-phase": "sycl.kernel",
    # suite plumbing spans: their self time is nobody's layer
    "app": None,
    "cell": None,
    "run": None,
}

#: spans on the modeled device clock, not wall time: never folded
MODELED_CATS = ("modeled", "model")

#: benchmark-recorded spans (cat ``bench``) name their layer directly;
#: ``sycl.run`` self time is the app's host code between launches
BENCH_LAYERS = {
    "import": "import.wall",
    "runner.generate": "runner.generate",
    "sycl.run": "sycl.host",
    "altis.reference": "altis.reference",
    "altis.verify": "altis.verify",
    "perfmodel.figures": "perfmodel.figures",
    "fpga.table3": "fpga.table3",
    "reporting.render": "reporting.render",
}

#: a bench span whose whole subtree is one layer (the warm second pass)
WARM = "warm"

#: ``repro`` subpackages reported as ``import.repro.<name>_s``; the
#: package's own ``__init__``/``__main__`` is ``root``, anything new is
#: ``other``
REPRO_SUBPACKAGES = ("root", "altis", "common", "cuda", "dpct", "fpga",
                     "harness", "perfmodel", "resilience", "service",
                     "sycl", "trace", "other")

_IMPORT_LINE = re.compile(r"^import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, n)``: the highest of the 75th, 50th and
    25th nearest-rank percentiles that keeps :data:`TAIL_BEYOND` samples
    strictly above it.

    A fixed ladder keeps the percentile the same across runs whose
    sample counts differ a little; the exact "ten beyond" percentile of
    a fast workload (~p88 of 85 samples) moves by 10% run to run.  With
    fewer than 14 samples no quartile qualifies and the 25th percentile
    stands in, short of ten beyond (the smallest sample, the only other
    candidate, moved 30% run to run).

    >>> tail(range(1, 21))
    (10, 50, 20)
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0, 0
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct * n / 100))
        if n - rank >= TAIL_BEYOND or pct == TAIL_PERCENTILES[-1]:
            return ordered[rank - 1], pct, n


def self_times(spans: list[dict]) -> dict:
    """Span id -> self time in µs: duration minus the union of its
    children's intervals clipped to its own."""
    children: dict = {}
    for sp in spans:
        if sp["parent"] is not None:
            children.setdefault(sp["parent"], []).append(sp)
    out = {}
    for sp in spans:
        start, end = sp["start_us"], sp["start_us"] + sp["dur_us"]
        covered, reach = 0.0, start
        for child in sorted(children.get(sp["id"], ()),
                            key=lambda c: c["start_us"]):
            lo = max(child["start_us"], reach)
            hi = min(child["start_us"] + child["dur_us"], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sp["id"]] = max(0.0, sp["dur_us"] - covered)
    return out


def span_layers(spans: list[dict]) -> dict:
    """Span id -> layer name (or ``None``: unattributed)."""
    by_id = {sp["id"]: sp for sp in spans}
    layers: dict = {}

    def layer(sp):
        sid = sp["id"]
        if sid in layers:
            return layers[sid]
        parent = by_id.get(sp["parent"])
        inherited = layer(parent) if parent is not None else None
        if inherited == WARM:
            result = WARM
        elif sp["cat"] == "bench":
            result = WARM if sp["name"] == WARM else BENCH_LAYERS.get(
                sp["name"], inherited)
        elif sp["cat"] in CAT_LAYERS:
            result = CAT_LAYERS[sp["cat"]]
        else:
            result = inherited
        layers[sid] = result
        return result

    for sp in spans:
        layer(sp)
    return layers


def wall_spans(spans: list[dict]) -> list[dict]:
    """Drop the modeled-clock spans (recorded with no parent)."""
    return [sp for sp in spans if sp["cat"] not in MODELED_CATS]


def fold_layers(spans: list[dict]) -> dict:
    """Layer -> summed self seconds over the wall-clock spans.

    The warm pass is one layer (``warm``) however deep its subtree is;
    spans with no layer are left out, so their self time stays
    unattributed."""
    spans = wall_spans(spans)
    selfs = self_times(spans)
    layers = span_layers(spans)
    totals: dict = {}
    for sp in spans:
        name = layers[sp["id"]]
        if name is not None:
            totals[name] = totals.get(name, 0.0) + selfs[sp["id"]] / 1e6
    return totals


def parse_importtime(text: str) -> dict:
    """Sum ``-X importtime`` self time (seconds) per import layer.

    Keys: ``numpy``, ``stdlib`` (everything that is neither numpy nor
    repro, the interpreter's own start-up imports included), one key per
    :data:`REPRO_SUBPACKAGES` entry as ``repro.<name>``, and
    ``repro_modules``, the count of distinct ``repro`` modules."""
    out = {"numpy": 0.0, "stdlib": 0.0, "repro_modules": 0}
    for sub in REPRO_SUBPACKAGES:
        out[f"repro.{sub}"] = 0.0
    for line in text.splitlines():
        match = _IMPORT_LINE.match(line)
        if match is None:
            continue  # header line, or the program's own stderr
        self_s = int(match.group(1)) / 1e6
        module = match.group(4)
        top = module.split(".")[0]
        if top == "numpy":
            out["numpy"] += self_s
        elif top == "repro":
            parts = module.split(".")
            sub = "root" if len(parts) == 1 or parts[1] == "__main__" \
                else parts[1]
            if sub not in REPRO_SUBPACKAGES:
                sub = "other"
            out[f"repro.{sub}"] += self_s
            out["repro_modules"] += 1
        else:
            out["stdlib"] += self_s
    return out
