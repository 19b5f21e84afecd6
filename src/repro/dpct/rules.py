"""Migration rules: CUDA construct -> SYCL construct (+ diagnostics).

Each rule describes how DPCT handles one construct kind: what it becomes
in the migrated code, whether a warning is emitted (and which category),
and whether the construct is a **silent hazard** — migrated without any
diagnostic but broken at runtime in SYCL (the paper's §3.2.2 cases:
``new``/``delete`` in kernels and virtual functions).

Warning categories mirror the taxonomy in §3.2.1/§3.2.2 of the paper and
carry representative DPCT diagnostic ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["WarningCategory", "Diagnostic", "Rule", "RULES", "FixKind"]


class WarningCategory(str, Enum):
    TIME_MEASUREMENT = "time_measurement"       # events -> std::chrono
    USM_MEM_ADVISE = "usm_mem_advise"           # device-dependent advice value
    BARRIER_SCOPE = "barrier_scope"             # fence space defaulted to global
    HELPER_HEADER = "helper_header"             # dpct helper usage emitted
    LIBRARY_MAPPING = "library_mapping"         # thrust->oneDPL, curand->oneMKL
    GENERIC = "generic"


@dataclass(frozen=True)
class Diagnostic:
    """One emitted warning instance."""

    app: str
    category: WarningCategory
    dpct_id: str
    message: str
    count: int = 1


class FixKind(str, Enum):
    """The manual-fix actions the paper applied."""

    CHRONO_TO_SYCL_EVENTS = "chrono_to_sycl_events"      # §3.2.1
    SET_MEM_ADVISE_VALUE = "set_mem_advise_value"        # §3.2.1
    NARROW_BARRIER_SCOPE = "narrow_barrier_scope"        # §3.2.1
    DROP_HELPER_HEADERS = "drop_helper_headers"          # §3.2.2
    HOIST_DEVICE_ALLOCATION = "hoist_device_allocation"  # §3.2.2
    REMOVE_VIRTUAL_FUNCTIONS = "remove_virtual_functions"  # §3.2.2 (Raytracing)


@dataclass(frozen=True)
class Rule:
    """How DPCT treats one construct kind."""

    kind: str
    migrates_to: str
    warning: WarningCategory | None = None
    dpct_id: str = ""
    #: migrated with no diagnostic, but fails at SYCL runtime/compile
    silent_hazard: bool = False
    #: the manual fix that resolves the warning or hazard
    fix: FixKind | None = None


RULES: dict[str, Rule] = {
    r.kind: r
    for r in [
        Rule(
            kind="cuda_event_timing",
            migrates_to="std_chrono_timing",
            warning=WarningCategory.TIME_MEASUREMENT,
            dpct_id="DPCT1012",
            fix=FixKind.CHRONO_TO_SYCL_EVENTS,
        ),
        Rule(
            kind="usm_mem_advise",
            migrates_to="queue_mem_advise",
            warning=WarningCategory.USM_MEM_ADVISE,
            dpct_id="DPCT1063",
            fix=FixKind.SET_MEM_ADVISE_VALUE,
        ),
        Rule(
            kind="syncthreads",
            migrates_to="nd_item_barrier",
            warning=WarningCategory.BARRIER_SCOPE,
            dpct_id="DPCT1065",
            fix=FixKind.NARROW_BARRIER_SCOPE,
        ),
        Rule(
            kind="dpct_helper_use",
            migrates_to="dpct_helper_call",
            warning=WarningCategory.HELPER_HEADER,
            dpct_id="DPCT1093",
            fix=FixKind.DROP_HELPER_HEADERS,
        ),
        Rule(
            kind="device_new_delete",
            migrates_to="kernel_new_delete",  # unsupported in SYCL kernels!
            silent_hazard=True,
            fix=FixKind.HOIST_DEVICE_ALLOCATION,
        ),
        Rule(
            kind="virtual_function",
            migrates_to="kernel_virtual_call",  # unsupported in SYCL kernels!
            silent_hazard=True,
            fix=FixKind.REMOVE_VIRTUAL_FUNCTIONS,
        ),
        Rule(
            kind="thrust_scan",
            migrates_to="onedpl_exclusive_scan",
            warning=WarningCategory.LIBRARY_MAPPING,
            dpct_id="DPCT1007",
        ),
        Rule(
            kind="curand_xorwow",
            migrates_to="onemkl_philox4x32x10",
            warning=WarningCategory.LIBRARY_MAPPING,
            dpct_id="DPCT1032",
        ),
        Rule(
            kind="pow_squared",
            migrates_to="explicit_multiply",  # pow(a,2) -> a*a (§3.3)
        ),
        Rule(kind="kernel_def", migrates_to="sycl_kernel_def"),
        Rule(kind="cmake_command", migrates_to="cmake_sycl_command"),
        Rule(kind="generic_api", migrates_to="sycl_api"),
    ]
}
