"""Construct-level model of a CUDA application's source code.

The real DPCT parses C++/CUDA; the reproduction operates one level up,
on a :class:`SourceModel` that records *how many of each migration-
relevant construct* an application contains.  This is exactly the level
at which the paper reports its migration experience (§3.2): which
constructs produced which warnings, which were migrated silently but
incorrectly, and what manual fixes were needed.

Construct kinds (CUDA side) and their §3.2 significance:

=========================  =====================================================
kind                       paper significance
=========================  =====================================================
``cuda_event_timing``      migrated to ``std::chrono`` + warning (timing skew)
``usm_mem_advise``         ``cudaMemAdvise`` -> ``mem_advise`` + warning
``syncthreads``            barrier; warning when local fence scope undetectable
``dpct_helper_use``        DPCT emits helper-header calls (device selection,
                           constant-memory wrappers) — two latent bugs (§3.2.2)
``device_new_delete``      **silently** migrated; unsupported in SYCL kernels
``virtual_function``       **silently** migrated; unsupported in SYCL kernels
``thrust_scan``            migrated to oneDPL ``exclusive_scan``
``curand_xorwow``          migrated to oneMKL ``philox4x32x10``
``pow_squared``            ``pow(a,2)`` rewritten to ``a*a`` by DPCT
``kernel_def``             one device kernel
``cmake_command``          build command migrated via intercept-build JSON
``generic_api``            other CUDA API calls, migrated 1:1
=========================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.errors import MigrationError

__all__ = ["Construct", "SourceModel", "CONSTRUCT_KINDS"]

CONSTRUCT_KINDS = frozenset(
    {
        "cuda_event_timing",
        "usm_mem_advise",
        "syncthreads",
        "dpct_helper_use",
        "device_new_delete",
        "virtual_function",
        "thrust_scan",
        "curand_xorwow",
        "pow_squared",
        "kernel_def",
        "cmake_command",
        "generic_api",
    }
)


@dataclass(frozen=True)
class Construct:
    """A group of identical constructs in one app's source."""

    kind: str
    count: int = 1
    #: for ``syncthreads``: can DPCT prove the fence may be local-scope?
    local_scope_detectable: bool = False

    def __post_init__(self) -> None:
        if self.kind not in CONSTRUCT_KINDS:
            raise MigrationError(f"unknown construct kind {self.kind!r}")
        if self.count < 0:
            raise MigrationError("construct count must be non-negative")


@dataclass
class SourceModel:
    """The migration-relevant description of one CUDA application."""

    app: str
    lines_of_code: int
    constructs: list[Construct] = field(default_factory=list)

    def count(self, kind: str) -> int:
        if kind not in CONSTRUCT_KINDS:
            raise MigrationError(f"unknown construct kind {kind!r}")
        return sum(c.count for c in self.constructs if c.kind == kind)

    def total_constructs(self) -> int:
        return sum(c.count for c in self.constructs)

    def validate(self) -> None:
        if self.lines_of_code <= 0:
            raise MigrationError(f"{self.app}: lines_of_code must be positive")
        if self.count("kernel_def") == 0:
            raise MigrationError(f"{self.app}: an Altis app has at least one kernel")
