"""Altis-SYCL reproduction.

A Python reproduction of "Altis-SYCL: Migrating Altis Benchmarking Suite
from CUDA to SYCL for GPUs and FPGAs" (SC-W 2023): a functional SYCL
runtime model, a DPCT-style migration engine, an FPGA
synthesis/performance model, the eleven Altis Level-2 applications,
and the harness that regenerates every table and figure of the paper's
evaluation.

Quickstart::

    from repro.harness import run_functional, figure2
    run_functional("KMeans")          # generate, execute, verify
    figure2(optimized=True)           # SYCL-vs-CUDA speedups (Fig. 2)
"""

from ._exports import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".": ("altis", "common", "dpct", "fpga", "harness", "perfmodel",
          "resilience", "sycl", "trace"),
})
__all__.append("__version__")
