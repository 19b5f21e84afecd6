"""Exception hierarchy shared across the reproduction.

The hierarchy mirrors the error surfaces of the systems being modeled:
the SYCL runtime, the DPCT migrator, and the FPGA
synthesis toolchain.  Keeping them under one root (:class:`ReproError`)
lets callers distinguish model errors from genuine Python bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Root of all errors raised by the ``repro`` package."""


class SyclError(ReproError):
    """Base class for SYCL runtime errors (mirrors ``sycl::exception``)."""


class InvalidParameterError(SyclError):
    """A runtime API was invoked with an invalid argument."""


class FeatureNotSupportedError(SyclError):
    """The selected device lacks a required aspect (e.g. FPGA-only local
    memory requested on a GPU)."""


class KernelLaunchError(SyclError):
    """A kernel could not be launched (bad ND-range, work-group too big...)."""


class DeviceNotFoundError(SyclError):
    """No device satisfied the selector."""


class PipeError(SyclError):
    """Illegal pipe operation (e.g. blocking read with no producer left)."""


class DataflowDeadlockError(PipeError):
    """The cooperative dataflow scheduler detected that no kernel can make
    progress (all blocked on pipe reads)."""


class MigrationError(ReproError):
    """The DPCT-analogue migrator could not process a source model."""


class FpgaToolError(ReproError):
    """Base class for FPGA synthesis-model failures."""


class FitError(FpgaToolError):
    """Design exceeds the device's ALM/BRAM/DSP budget (placement failure)."""

    def __init__(self, message: str, *, utilization: dict | None = None):
        super().__init__(message)
        #: resource-name -> fraction actually requested (may exceed 1.0)
        self.utilization = dict(utilization or {})


class TimingViolationError(FpgaToolError):
    """Place-and-route closed below the requested clock (timing violation)."""

    def __init__(self, message: str, *, achieved_mhz: float | None = None):
        super().__init__(message)
        self.achieved_mhz = achieved_mhz


class CalibrationError(ReproError):
    """A performance-model parameter is missing or inconsistent."""


class CellExecutionError(ReproError):
    """A suite cell failed; carries the cell's identity so the caller can
    tell *which* config/index died instead of a bare re-raise."""

    def __init__(self, message: str, *, key: str = "",
                 index: int | None = None):
        super().__init__(message)
        self.key = key
        self.index = index
