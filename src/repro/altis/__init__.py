"""The Altis benchmark suite: the Level-2 applications of the paper's
Table 1 (the evaluation targets), implemented against the functional
SYCL runtime with analytical performance models."""

from .._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "base": ("SIZES", "AltisApp", "FpgaSetup", "Variant", "Workload"),
    "cfd": ("Cfd",),
    "dwt2d": ("Dwt2D",),
    "fdtd2d": ("FdTd2D",),
    "kmeans": ("KMeans",),
    "lavamd": ("LavaMD",),
    "mandelbrot": ("Mandelbrot",),
    "nw": ("NW",),
    "particlefilter": ("ParticleFilter",),
    "raytracing": ("Raytracing",),
    "srad": ("Srad",),
    "where": ("Where",),
    "registry": ("APP_FACTORIES", "FIG2_CONFIGS", "FIG4_CONFIGS",
                 "FIG5_CONFIGS", "all_apps", "common_infrastructure",
                 "make_app", "suite_source_models"),
})
