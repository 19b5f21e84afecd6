"""Launch counts per path for ``perfbench/layers.py``, which imports this.

There is no plan cache; :func:`repro.sycl.executor.run_nd_range` is the
whole launch.  The module goes with that reader in ROADMAP item 3.
"""

from collections import Counter

from ..trace.spans import current_tracer


def plan_cache_info() -> dict:
    """No compiles or hits; ``tiers`` counts the active tracer's
    ``launch`` spans per execution path (their ``path`` arg)."""
    tracer = current_tracer()
    paths = Counter(ev.args["path"]
                    for ev in (tracer.events() if tracer is not None else ())
                    if ev.cat == "launch" and "path" in ev.args)
    return {"compiles": 0, "hits": 0,
            "tiers": {path: {"count": n} for path, n in sorted(paths.items())}}
