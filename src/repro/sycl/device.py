"""SYCL devices.

A :class:`Device` wraps a :class:`~repro.perfmodel.spec.DeviceSpec` from
the Table 2 catalogue and exposes SYCL-flavoured queries
(``get_info(...)``).  Devices are named by catalogue key
(:func:`device`); every queue is built for one explicitly.

The paper abandons DPCT's helper headers and their device-selection
logic (§3.2.2) partly because that logic could not enable profiling on
queues; our :class:`Device` therefore carries no queue policy at all —
profiling is requested per-queue, exactly like standard SYCL.
"""

from __future__ import annotations

from ..common.errors import FeatureNotSupportedError
from ..perfmodel.spec import DeviceKind, DeviceSpec, get_spec

__all__ = ["Device", "device"]


class Device:
    """A SYCL device bound to a modeled hardware specification."""

    def __init__(self, spec: DeviceSpec):
        self.spec = spec

    # -- SYCL-style queries -------------------------------------------------
    def is_gpu(self) -> bool:
        return self.spec.kind is DeviceKind.GPU

    @property
    def is_fpga(self) -> bool:
        return self.spec.kind is DeviceKind.FPGA

    def get_info(self, name: str):
        """``device.get_info<...>()``; the launch path asks only for
        ``max_work_group_size`` (the FPGA compiler's preconfigured 128)."""
        if name != "max_work_group_size":
            raise FeatureNotSupportedError(f"unknown info query {name!r}")
        return 128 if self.is_fpga else 1024

    def __repr__(self) -> str:
        return f"Device({self.spec.key!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Device) and other.spec.key == self.spec.key

    def __hash__(self) -> int:
        return hash(self.spec.key)


_DEVICE_CACHE: dict[str, Device] = {}


def device(key: str) -> Device:
    """Get (and cache) the :class:`Device` for a Table 2 catalogue key."""
    if key not in _DEVICE_CACHE:
        _DEVICE_CACHE[key] = Device(get_spec(key))
    return _DEVICE_CACHE[key]
