"""Bitstream generation model: fitting and timing closure.

Plays the role of ``icpx -fsycl -Xshardware`` + Quartus: takes a
:class:`~repro.fpga.resources.Design`, checks it against the device
budget, and predicts the kernel clock (Fmax).  Reproduces the paper's
observed toolchain behaviours:

* designs exceeding the resource budget fail placement
  (:class:`FitError`) — e.g. SRAD with eleven accessor-object arguments
  on Stratix 10 (§4);
* heavy unrolling over shared memory closes timing only up to a point —
  LavaMD unrolls 30x fine, further unrolling "leads to timing
  violations during synthesis" (§5.2 case 1) —
  modeled as a congestion score that first degrades Fmax and then
  violates timing (:class:`TimingViolationError`);
* arbitered (non-bankable) local memory lowers Fmax (NW's 216 MHz on
  Stratix 10, Table 3);
* Agilex (newer process, HyperFlex registers) closes at substantially
  higher clocks than Stratix 10 for the same design (Table 3: every app
  clocks higher on Agilex).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import FitError, TimingViolationError
from ..perfmodel.spec import DeviceSpec
from .resources import Design, KernelDesign, ResourceEstimate, estimate

__all__ = ["SynthesisResult", "synthesize", "congestion_score"]

#: congestion above this level fails place-and-route
_TIMING_VIOLATION_THRESHOLD = 1.0


@dataclass(frozen=True)
class SynthesisResult:
    """The successful build: utilization + achieved clock."""

    design_name: str
    device_key: str
    resources: ResourceEstimate
    fmax_mhz: float

    def utilization_percent(self) -> dict[str, float]:
        return {k: 100.0 * v for k, v in self.resources.as_dict().items()}


def congestion_score(design: Design, spec: DeviceSpec,
                     resources: ResourceEstimate | None = None) -> float:
    """Routing-congestion score in [0, ~1.5]; > 1.0 violates timing.

    Drivers: overall utilization, wide datapaths over banked local
    memory, and arbitered memory ports.
    """
    res = resources or estimate(design, spec)
    score = 0.0
    # global fill pressure: placement gets hard above ~80% on any resource
    score += max(0.0, res.max_frac() - 0.80) * 1.2
    for kd in design.kernels:
        for mem in kd.local_memories:
            if mem.bankable:
                # replicated banks * wide datapath stress routing;
                # calibrated so LavaMD's 30x unroll is at the edge
                # (30x over its two staged arrays ~ 0.5; 60x violates)
                score += 0.0056 * kd.datapath_width * mem.ports
            else:
                score += 0.05 * mem.ports
    return score


def _fmax(design: Design, spec: DeviceSpec, res: ResourceEstimate,
          congestion: float) -> float:
    fmax = spec.fmax_max_mhz
    # utilization pressure: large designs close lower
    fmax *= 1.0 - spec.fmax_pressure * min(1.0, res.max_frac())
    # congestion pressure
    fmax *= 1.0 - 0.40 * min(1.0, congestion)
    # arbitered memories put the arbiter on the critical path
    n_arbiters = sum(
        1
        for kd in design.kernels
        for mem in kd.local_memories
        if not mem.bankable
    )
    if n_arbiters:
        fmax *= 0.80 ** min(n_arbiters, 3)
    # per-kernel structural penalties
    for kd in design.kernels:
        if kd.kernel.feature("deep_control_flow", False):
            # long combinational exit conditions (PF's resampling scan);
            # Table 3: PF closes at ~102-108 MHz on the Stratix 10
            fmax *= 0.30
        if kd.fp64:
            fmax *= 0.93
    return max(spec.fmax_min_mhz * 0.4, min(fmax, spec.fmax_max_mhz))


def synthesize(design: Design, spec: DeviceSpec, *,
               seed: int = 1) -> SynthesisResult:
    """Build a bitstream; raises on fit or timing failure.

    ``seed`` models Quartus' place-and-route seed: it perturbs the
    achieved Fmax by a few percent, deterministically.
    """
    res = estimate(design, spec)
    if not res.fits():
        worst = max(res.as_dict().items(), key=lambda kv: kv[1])
        raise FitError(
            f"design {design.name!r} does not fit {spec.key}: "
            f"{worst[0].upper()} at {worst[1]:.0%} of budget",
            utilization=res.as_dict(),
        )
    congestion = congestion_score(design, spec, res)
    if congestion > _TIMING_VIOLATION_THRESHOLD:
        raise TimingViolationError(
            f"design {design.name!r} on {spec.key}: routing congestion "
            f"{congestion:.2f} > {_TIMING_VIOLATION_THRESHOLD} "
            "(reduce unrolling / work-group size, paper §4-5.2)",
            achieved_mhz=None,
        )
    fmax = _fmax(design, spec, res, congestion)
    # deterministic seed jitter, +/-3%
    jitter = 1.0 + 0.03 * (((seed * 2654435761) % 1000) / 500.0 - 1.0)
    fmax *= jitter
    fmax = min(fmax, spec.fmax_max_mhz)
    return SynthesisResult(
        design_name=design.name,
        device_key=spec.key,
        resources=res,
        fmax_mhz=round(fmax, 1),
    )
