"""Work-group local memory: local accessors and
``group_local_memory_for_overwrite``.

A :class:`LocalAccessor` is ``sycl::local_accessor``, the shared memory
of one work-group.  What the FPGA compiler provisions for one (16 KiB
for DPCT's dynamically sized default, §4) is the FPGA resource model's
business: :class:`repro.fpga.resources.LocalMemorySpec`.

The paper (§5.2) replaces DPCT's default SYCL local accessors with
``sycl::ext::oneapi::group_local_memory_for_overwrite`` on Intel FPGAs:
unlike accessors, these objects have a user-defined compile-time size,
shrinking the synthesized memory system.

Vendor/device specificity is reproduced: requesting one on a CPU or GPU
device raises :class:`FeatureNotSupportedError`, matching "not supported
on CPUs/GPUs" in the paper.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._exports import lazy_module
from ..common.errors import FeatureNotSupportedError, InvalidParameterError

np = lazy_module("numpy")

if TYPE_CHECKING:  # pragma: no cover
    from .device import Device

__all__ = ["LocalAccessor", "group_local_memory_for_overwrite"]


class LocalAccessor:
    """``sycl::local_accessor`` — work-group shared memory.

    The executor allocates a fresh numpy array per work-group.
    """

    def __init__(self, shape, dtype="float32"):
        self.shape = (shape,) if isinstance(shape, int) else tuple(shape)
        self.dtype = np.dtype(dtype)
        self._current: np.ndarray | None = None

    @property
    def nbytes(self) -> int:
        n = self.dtype.itemsize
        for d in self.shape:
            n *= d
        return n

    def _begin_group(self) -> None:
        self._current = np.zeros(self.shape, dtype=self.dtype)

    def _end_group(self) -> None:
        self._current = None

    def _require(self) -> np.ndarray:
        if self._current is None:
            raise InvalidParameterError(
                "local accessor used outside of a work-group execution"
            )
        return self._current

    def __getitem__(self, idx):
        return self._require()[idx]

    def __setitem__(self, idx, value):
        self._require()[idx] = value

    def array(self) -> np.ndarray:
        return self._require()

    def __repr__(self) -> str:
        return f"LocalAccessor(shape={self.shape}, dtype={self.dtype})"



def group_local_memory_for_overwrite(shape, dtype="float32", *,
                                     device: Device | None = None) -> LocalAccessor:
    """Allocate statically sized work-group local memory.

    Returns a :class:`LocalAccessor` of the declared shape; an FPGA
    design declares its memory ``static`` so the resource model charges
    only those bytes.  Contents are
    "for overwrite": uninitialized in real SYCL; the functional model
    zero-fills per work-group, which is safe because all Altis kernels
    store before loading.
    """
    if device is not None and not device.is_fpga:
        raise FeatureNotSupportedError(
            "group_local_memory_for_overwrite is only provided by the "
            "oneAPI FPGA toolkit (paper §5.2); use a local accessor on "
            f"{device.spec.key!r}"
        )
    return LocalAccessor(shape, dtype)
