"""Execution tracing and metrics for the reproduction.

Hierarchical spans (run → app → launch → kernel-form → barrier-phase,
plus modeled-clock spans from the queue and the perf model), a
process-wide counter registry, Chrome-trace JSON export, and the
``repro profile`` aggregation layer (per-kernel hotspots, Fig. 1
decomposition).  See docs/observability.md.
"""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "spans": ("Span", "Tracer", "current_tracer", "install_tracer", "span",
              "tracing"),
    "metrics": ("Counter", "MetricsRegistry", "registry"),
    "export": ("to_chrome_trace", "dumps_chrome_trace", "write_chrome_trace",
               "launch_table"),
    "profile": ("PROFILE_SCHEMA", "ProfileRun", "build_profile",
                "profile_functional", "render_profile", "write_profile"),
})
