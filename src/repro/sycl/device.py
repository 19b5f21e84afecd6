"""SYCL devices, aspects, and device selection.

A :class:`Device` wraps a :class:`~repro.perfmodel.spec.DeviceSpec` from
the Table 2 catalogue and exposes SYCL-flavoured queries (``has(aspect)``,
``get_info(...)``).  Selectors reproduce the standard SYCL selection
functions, plus the FPGA selector from the oneAPI FPGA add-on.

The paper abandons DPCT's helper headers and their device-selection
logic (§3.2.2) partly because that logic could not enable profiling on
queues; our :class:`Device` therefore carries no queue policy at all —
profiling is requested per-queue, exactly like standard SYCL.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable

from ..common.errors import DeviceNotFoundError, FeatureNotSupportedError
from ..perfmodel.spec import DEVICE_SPECS, DeviceKind, DeviceSpec, get_spec

__all__ = [
    "Aspect",
    "Device",
    "Platform",
    "device",
    "default_selector",
    "cpu_selector",
    "gpu_selector",
    "accelerator_selector",
    "fpga_selector",
    "select_device",
    "available_devices",
]


class Aspect(str, Enum):
    """Subset of SYCL 2020 aspects relevant to the benchmark suite."""

    CPU = "cpu"
    GPU = "gpu"
    ACCELERATOR = "accelerator"
    FP64 = "fp64"
    QUEUE_PROFILING = "queue_profiling"


class Platform:
    """Groups devices by vendor/back-end, as SYCL platforms do."""

    def __init__(self, name: str, vendor: str):
        self.name = name
        self.vendor = vendor

    def __repr__(self) -> str:
        return f"Platform({self.name!r})"


_PLATFORMS = {
    DeviceKind.CPU: Platform("OpenCL CPU", "Intel"),
    DeviceKind.GPU: Platform("Level-Zero / CUDA back-end", "mixed"),
    DeviceKind.FPGA: Platform("Intel FPGA SDK for OpenCL", "Intel"),
}


class Device:
    """A SYCL device bound to a modeled hardware specification."""

    def __init__(self, spec: DeviceSpec):
        self.spec = spec
        self.platform = _PLATFORMS[spec.kind]
        self._aspects = self._derive_aspects(spec)

    @staticmethod
    def _derive_aspects(spec: DeviceSpec) -> frozenset[Aspect]:
        aspects = {Aspect.QUEUE_PROFILING, Aspect.FP64}
        if spec.kind is DeviceKind.CPU:
            aspects.add(Aspect.CPU)
        elif spec.kind is DeviceKind.GPU:
            aspects.add(Aspect.GPU)
        else:
            aspects.add(Aspect.ACCELERATOR)
        return frozenset(aspects)

    # -- SYCL-style queries -------------------------------------------------
    def has(self, aspect: Aspect) -> bool:
        return aspect in self._aspects

    def is_cpu(self) -> bool:
        return self.spec.kind is DeviceKind.CPU

    def is_gpu(self) -> bool:
        return self.spec.kind is DeviceKind.GPU

    def is_accelerator(self) -> bool:
        return self.spec.kind is DeviceKind.FPGA

    @property
    def is_fpga(self) -> bool:
        return self.spec.kind is DeviceKind.FPGA

    def get_info(self, name: str):
        info = {
            "name": self.spec.name,
            "max_compute_units": self.spec.compute_units,
            "global_mem_size": 16 * 2**30,
            "local_mem_size": 48 * 2**10 if not self.is_fpga else 16 * 2**10,
            "max_work_group_size": 1024 if not self.is_fpga else 128,
            "vendor": self.platform.vendor,
        }
        try:
            return info[name]
        except KeyError:
            raise FeatureNotSupportedError(f"unknown info query {name!r}") from None

    def require(self, aspect: Aspect) -> None:
        if not self.has(aspect):
            raise FeatureNotSupportedError(
                f"device {self.spec.key!r} lacks aspect {aspect.value!r}"
            )

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


def available_devices() -> list[Device]:
    return [device(k) for k in DEVICE_SPECS]


Selector = Callable[[Device], int]


def cpu_selector(dev: Device) -> int:
    return 100 if dev.is_cpu() else -1


def gpu_selector(dev: Device) -> int:
    return 100 if dev.is_gpu() else -1


def accelerator_selector(dev: Device) -> int:
    return 100 if dev.is_accelerator() else -1


#: oneAPI FPGA add-on's ``ext::intel::fpga_selector``
fpga_selector = accelerator_selector


def default_selector(dev: Device) -> int:
    if dev.is_gpu():
        return 50
    if dev.is_accelerator():
        return 40
    return 10


def select_device(selector: Selector = default_selector) -> Device:
    """Pick the highest-scoring available device (SYCL selection rules)."""
    best: Device | None = None
    best_score = -1
    for dev in available_devices():
        score = selector(dev)
        if score > best_score:
            best, best_score = dev, score
    if best is None or best_score < 0:
        raise DeviceNotFoundError("no device satisfies the selector")
    return best
