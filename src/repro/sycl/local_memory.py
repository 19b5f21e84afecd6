"""Work-group local memory: local accessors and
``group_local_memory_for_overwrite``.

A :class:`LocalAccessor` is ``sycl::local_accessor``, the shared memory
of one work-group.  If its extent is not statically known (DPCT's
default, §4), the FPGA resource model charges the 16 KiB worst-case
memory system the oneAPI compiler must assume.

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

import numpy as np

from ..common.errors import FeatureNotSupportedError, InvalidParameterError

if TYPE_CHECKING:  # pragma: no cover
    from .device import Device

__all__ = ["LocalAccessor", "group_local_memory_for_overwrite"]


class LocalAccessor:
    """``sycl::local_accessor`` — work-group shared memory.

    The executor allocates a fresh numpy array per work-group.  If the
    extent is not statically known at "compile" time (``static=False``,
    DPCT's default, per §4), the FPGA model charges 16 KiB for it.
    """

    MAX_DYNAMIC_BYTES = 16 * 1024

    def __init__(self, shape, dtype=np.float32, *, static: bool = True):
        self.shape = (shape,) if isinstance(shape, int) else tuple(shape)
        self.dtype = np.dtype(dtype)
        self.static = static
        self._current: np.ndarray | None = None

    @property
    def nbytes(self) -> int:
        n = self.dtype.itemsize
        for d in self.shape:
            n *= d
        return n

    @property
    def modeled_fpga_bytes(self) -> int:
        """Bytes the FPGA compiler must provision (16 KiB if dynamic)."""
        return self.nbytes if self.static else self.MAX_DYNAMIC_BYTES

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
        kind = "static" if self.static else "dynamic"
        return f"LocalAccessor(shape={self.shape}, {kind})"



def group_local_memory_for_overwrite(shape, dtype=np.float32, *,
                                     device: Device | None = None) -> LocalAccessor:
    """Allocate statically sized work-group local memory.

    Returns a :class:`LocalAccessor` with ``static=True`` so the FPGA
    resource model charges only the declared bytes.  Contents are
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
    return LocalAccessor(shape, dtype, static=True)
