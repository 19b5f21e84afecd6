"""Device specifications — the reproduction of the paper's Table 2.

Each :class:`DeviceSpec` carries the published headline numbers (compute
units, peak FP32 throughput, peak memory bandwidth) plus the additional
microarchitectural constants the analytical performance models need
(FP64 ratio, FPGA resource budgets and clock ranges); host-side runtime
costs live in :mod:`repro.perfmodel.overhead`.

FPGA peak attainable FP32 follows the paper's formula::

    Peak FP32 = N_DSP(user logic) x 2 x F_kernel

evaluated at the observed SYCL kernel frequency range (250–450 MHz on
Stratix 10, 250–550 MHz on Agilex), giving the paper's 2.4–4.2 and
2.3–5.0 TFLOP/s brackets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..common.errors import DeviceNotFoundError

__all__ = [
    "DeviceKind",
    "FpgaResources",
    "DeviceSpec",
    "DEVICE_SPECS",
    "get_spec",
    "fpga_peak_fp32_tflops",
]


class DeviceKind(str, Enum):
    CPU = "cpu"
    GPU = "gpu"
    FPGA = "fpga"


@dataclass(frozen=True)
class FpgaResources:
    """Total device resources; Table 3 header row ("T:" figures)."""

    alms: int
    brams: int
    dsps_total: int
    dsps_user: int  # after subtracting the fixed board interface (Table 2)

    def as_dict(self) -> dict[str, int]:
        return {"alm": self.alms, "bram": self.brams, "dsp": self.dsps_user}


@dataclass(frozen=True)
class DeviceSpec:
    """One row of Table 2, plus model constants.

    Attributes
    ----------
    peak_fp32_tflops:
        For FPGAs this is the *attainable* peak at ``fmax_typical_mhz``.
    """

    name: str
    key: str
    kind: DeviceKind
    process_nm: int
    compute_units: int
    compute_unit_name: str
    peak_fp32_tflops: float
    mem_bw_gbs: float
    fp64_ratio: float = 0.5  # FP64 peak = ratio x FP32 peak
    # FPGA-only fields
    fpga_resources: FpgaResources | None = None
    fmax_min_mhz: float = 0.0
    fmax_max_mhz: float = 0.0
    fmax_typical_mhz: float = 0.0
    #: how strongly utilization depresses closing frequency (Agilex's
    #: HyperFlex registers retime congested paths, weakening the effect)
    fmax_pressure: float = 0.35
    #: relative logic packed per ALM (Agilex ALMs + HyperFlex registers
    #: absorb ~1.75x the logic of Stratix 10 ALMs — Table 3 fits larger
    #: replication factors into a device with half the ALM count)
    alm_density: float = 1.0

    @property
    def is_fpga(self) -> bool:
        return self.kind is DeviceKind.FPGA

    @property
    def peak_fp64_tflops(self) -> float:
        return self.peak_fp32_tflops * self.fp64_ratio

    def peak_flops(self, fp64: bool = False) -> float:
        tf = self.peak_fp64_tflops if fp64 else self.peak_fp32_tflops
        return tf * 1e12

    @property
    def mem_bw(self) -> float:
        """Bytes per second."""
        return self.mem_bw_gbs * 1e9


def fpga_peak_fp32_tflops(dsps_user: int, fmax_mhz: float) -> float:
    """Paper's formula: each DSP does one FMA (2 FLOP) per cycle."""
    return dsps_user * 2.0 * fmax_mhz * 1e6 / 1e12


# ---------------------------------------------------------------------------
# Table 2 (paper) — the catalogue.
# ---------------------------------------------------------------------------

_STRATIX10 = FpgaResources(alms=933_120, brams=11_721, dsps_total=5_760, dsps_user=4_713)
_AGILEX = FpgaResources(alms=487_200, brams=7_110, dsps_total=4_510, dsps_user=4_510)

DEVICE_SPECS: dict[str, DeviceSpec] = {
    spec.key: spec
    for spec in [
        DeviceSpec(
            name="Xeon Gold 6128 CPU",
            key="xeon6128",
            kind=DeviceKind.CPU,
            process_nm=14,
            compute_units=6,
            compute_unit_name="Cores",
            peak_fp32_tflops=1.1,
            mem_bw_gbs=128.0,
            fp64_ratio=0.5,
        ),
        DeviceSpec(
            name="RTX 2080 GPU",
            key="rtx2080",
            kind=DeviceKind.GPU,
            process_nm=12,
            compute_units=46,
            compute_unit_name="SMs",
            peak_fp32_tflops=10.1,
            mem_bw_gbs=448.0,
            fp64_ratio=1.0 / 32.0,  # Turing consumer parts: FP64 = FP32/32
        ),
        DeviceSpec(
            name="A100 GPU",
            key="a100",
            kind=DeviceKind.GPU,
            process_nm=7,
            compute_units=108,
            compute_unit_name="SMs",
            peak_fp32_tflops=19.5,
            mem_bw_gbs=1555.0,
            fp64_ratio=0.5,
        ),
        DeviceSpec(
            name="Max 1100 GPU",
            key="max1100",
            kind=DeviceKind.GPU,
            process_nm=10,
            compute_units=56,
            compute_unit_name="Xe-cores",
            peak_fp32_tflops=22.2,
            mem_bw_gbs=1229.0,
            fp64_ratio=0.5,
        ),
        DeviceSpec(
            name="Stratix 10 FPGA (BittWare 520N)",
            key="stratix10",
            kind=DeviceKind.FPGA,
            process_nm=14,
            compute_units=_STRATIX10.dsps_user,
            compute_unit_name="DSPs (user logic)",
            peak_fp32_tflops=fpga_peak_fp32_tflops(_STRATIX10.dsps_user, 350.0),
            mem_bw_gbs=76.8,
            fp64_ratio=0.25,  # FP64 consumes ~4 DSPs per FMA
            fpga_resources=_STRATIX10,
            fmax_min_mhz=250.0,
            fmax_max_mhz=450.0,
            fmax_typical_mhz=350.0,
        ),
        DeviceSpec(
            name="Agilex FPGA (DE10 Agilex)",
            key="agilex",
            kind=DeviceKind.FPGA,
            process_nm=10,
            compute_units=_AGILEX.dsps_user,
            compute_unit_name="DSPs (user logic)",
            peak_fp32_tflops=fpga_peak_fp32_tflops(_AGILEX.dsps_user, 400.0),
            mem_bw_gbs=85.3,
            fp64_ratio=0.25,
            fpga_resources=_AGILEX,
            fmax_min_mhz=250.0,
            fmax_max_mhz=550.0,
            fmax_typical_mhz=400.0,
            fmax_pressure=0.15,
            alm_density=1.75,
        ),
    ]
}

#: Paper's Table 2 peak brackets, used as a consistency check in tests.
FPGA_PEAK_BRACKETS = {
    "stratix10": (2.4, 4.2),
    "agilex": (2.3, 5.0),
}


def get_spec(key: str) -> DeviceSpec:
    try:
        return DEVICE_SPECS[key]
    except KeyError:
        raise DeviceNotFoundError(
            f"unknown device {key!r}; available: {sorted(DEVICE_SPECS)}"
        ) from None
