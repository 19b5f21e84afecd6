"""FPGA synthesis model: resource estimation, fitting, timing closure,
and Table 3 reporting."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "report": ("Table3Row", "render_table3"),
    "resources": ("Design", "KernelDesign", "LocalMemorySpec",
                  "ResourceEstimate", "estimate", "M20K_BYTES",
                  "DYNAMIC_ACCESSOR_BYTES"),
    "synthesis": ("SynthesisResult", "synthesize", "congestion_score"),
})
