"""Exception hierarchy shared across the reproduction.

The hierarchy mirrors the error surfaces of the systems being modeled:
the SYCL runtime, the CUDA runtime, the DPCT migrator, and the FPGA
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
    """The selected device lacks a required aspect (e.g. USM on FPGA)."""


class KernelLaunchError(SyclError):
    """A kernel could not be launched (bad ND-range, work-group too big...)."""


class DeviceNotFoundError(SyclError):
    """No device satisfied the selector."""


class PipeError(SyclError):
    """Illegal pipe operation (e.g. blocking read with no producer left)."""


class DataflowDeadlockError(PipeError):
    """The cooperative dataflow scheduler detected that no kernel can make
    progress (all blocked on pipe reads)."""


class CudaError(ReproError):
    """Base class for errors of the mini-CUDA substrate."""


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


# -- resilience layer (repro.resilience) ------------------------------------

class TransientFaultError(ReproError):
    """A failure that is expected to clear on retry (crashed worker,
    expired deadline, corrupted read).  The retry policy's default
    ``retry_on`` filter catches exactly this subtree."""


class InjectedFaultError(TransientFaultError):
    """A fault deliberately raised by an active :class:`FaultPlan`."""


class CellTimeoutError(TransientFaultError):
    """A sweep cell exceeded its cooperative worker deadline."""


class CorruptedOutputError(TransientFaultError):
    """A cell's output (or a cache entry) was detected as corrupted."""


def _rebuild_cell_error(message, key, index, attempts):
    return CellExecutionError(message, key=key, index=index, attempts=attempts)


class CellExecutionError(ReproError):
    """A pool cell failed; carries the cell's identity so the caller can
    tell *which* config/size/index died instead of a bare re-raise."""

    def __init__(self, message: str, *, key: str = "", index: int | None = None,
                 attempts: int = 1):
        super().__init__(message)
        self.key = key
        self.index = index
        self.attempts = attempts

    def __reduce__(self):
        return (_rebuild_cell_error,
                (self.args[0], self.key, self.index, self.attempts))
