"""Registry of the Altis Level-2 suite (paper Table 1).

``APP_FACTORIES`` maps each *benchmark configuration label* — the
column names of Figs. 2/4/5 — to a factory for the app instance that
produces it (CFD and ParticleFilter contribute two configs each).

:func:`common_infrastructure` is the construct-level source model of
Altis' shared non-benchmark code (option parsing, ResultDB, device init, the
Level-0/1 microbenchmarks DPCT also migrates); together with the 11
apps it brings the suite to the ~40k lines of code and 2,535 DPCT
warnings reported in §3.2.1.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from .base import AltisApp
from .cfd import Cfd
from .dwt2d import Dwt2D
from .fdtd2d import FdTd2D
from .kmeans import KMeans
from .lavamd import LavaMD
from .mandelbrot import Mandelbrot
from .nw import NW
from .particlefilter import ParticleFilter
from .raytracing import Raytracing
from .srad import Srad
from .where import Where

if TYPE_CHECKING:  # pragma: no cover
    from ..dpct.source_model import SourceModel

__all__ = [
    "APP_FACTORIES",
    "FIG2_CONFIGS",
    "FIG4_CONFIGS",
    "FIG5_CONFIGS",
    "make_app",
    "all_apps",
    "suite_source_models",
    "common_infrastructure",
]

APP_FACTORIES: dict[str, Callable[[], AltisApp]] = {
    "CFD FP32": lambda: Cfd(fp64=False),
    "CFD FP64": lambda: Cfd(fp64=True),
    "DWT2D": Dwt2D,
    "FDTD2D": FdTd2D,
    "KMeans": KMeans,
    "LavaMD": LavaMD,
    "Mandelbrot": Mandelbrot,
    "NW": NW,
    "PF Naive": lambda: ParticleFilter(float_version=False),
    "PF Float": lambda: ParticleFilter(float_version=True),
    "Raytracing": Raytracing,
    "SRAD": Srad,
    "Where": Where,
}

#: Fig. 2 plots all 13 configs.
FIG2_CONFIGS = tuple(APP_FACTORIES)
#: Figs. 4/5 omit DWT2D (no optimized FPGA design, §5.4).
FIG4_CONFIGS = tuple(c for c in APP_FACTORIES if c != "DWT2D")
FIG5_CONFIGS = FIG4_CONFIGS


def make_app(config: str) -> AltisApp:
    try:
        return APP_FACTORIES[config]()
    except KeyError:
        raise KeyError(
            f"unknown benchmark config {config!r}; known: {sorted(APP_FACTORIES)}"
        ) from None


def all_apps() -> dict[str, AltisApp]:
    """One instance per *application* (CFD/PF once each)."""
    return {
        "CFD": Cfd(),
        "DWT2D": Dwt2D(),
        "FDTD2D": FdTd2D(),
        "KMeans": KMeans(),
        "LavaMD": LavaMD(),
        "Mandelbrot": Mandelbrot(),
        "NW": NW(),
        "ParticleFilter": ParticleFilter(),
        "Raytracing": Raytracing(),
        "SRAD": Srad(),
        "Where": Where(),
    }


def common_infrastructure() -> SourceModel:
    """Source model of Altis' shared non-benchmark code."""
    from ..dpct.source_model import Construct, SourceModel

    return SourceModel(
        app="altis-common",
        lines_of_code=17_000,
        constructs=[
            Construct("kernel_def", 24),       # Level-0/1 microbenchmark kernels
            Construct("cuda_event_timing", 860),
            Construct("usm_mem_advise", 470),
            Construct("syncthreads", 470),
            Construct("dpct_helper_use", 238),
            Construct("generic_api", 700),
            Construct("cmake_command", 14),
        ],
    )


def suite_source_models() -> list[SourceModel]:
    """Source models of the whole migrated code base (11 apps + common)."""
    models = [app.source_model() for app in all_apps().values()]
    models.append(common_infrastructure())
    return models
