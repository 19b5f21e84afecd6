"""FPGA synthesis model: resource estimation, fitting, timing closure,
compute-unit replication helpers, and Table 3 reporting."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "replication": ("NdRangeReplicator", "submit_compute_units"),
    "report": ("Table3Row", "render_table3"),
    "resources": ("Design", "KernelDesign", "LocalMemorySpec",
                  "ResourceEstimate", "estimate", "M20K_BYTES",
                  "DYNAMIC_ACCESSOR_BYTES"),
    "synthesis": ("SynthesisResult", "synthesize", "congestion_score"),
})
