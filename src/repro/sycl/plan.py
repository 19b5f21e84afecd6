"""Launch counts per path for ``perfbench/layers.py``, which imports this.

There is no plan cache; :func:`repro.sycl.executor.run_nd_range` is the
whole launch.  The module goes with that reader in ROADMAP item 3.
"""

from ..trace.metrics import registry

_PREFIX = "executor.path."


def plan_cache_info() -> dict:
    """No compiles or hits; ``tiers`` counts the traced launches per path
    from the ``executor.path.*`` counters."""
    tiers = {name[len(_PREFIX):]: {"count": int(snap["value"])}
             for name, snap in registry.snapshot().items()
             if name.startswith(_PREFIX)}
    return {"compiles": 0, "hits": 0, "tiers": tiers}
