"""Application-run timing assembly: kernel + non-kernel decomposition.

Combines a :class:`~repro.perfmodel.profile.LaunchPlan` with a device
model, a runtime-overhead model, and an implementation variant to yield
the run decomposition Figure 1 plots: kernel time vs non-kernel time
(launch overheads + transfers + event management).

Also reproduces the paper's two measurement conventions:

* ``measured="kernel"`` — SYCL-event / CUDA-event style, kernel-only;
* ``measured="total"`` — whole-program style ("some Altis applications
  ... time the entire program", §3.3), including overheads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..trace.spans import current_tracer
from .gpu import CpuModel, GpuModel
from .overhead import EVENTS_PER_LAUNCH, RuntimeOverheads
from .profile import LaunchPlan
from .spec import DeviceKind, DeviceSpec

if TYPE_CHECKING:  # pragma: no cover
    from .traits import ImplVariant

__all__ = ["RunDecomposition", "model_for", "time_launch_plan"]


@dataclass(frozen=True)
class RunDecomposition:
    """Modeled timing of one application run."""

    kernel_s: float
    non_kernel_s: float
    launches: int

    @property
    def total_s(self) -> float:
        return self.kernel_s + self.non_kernel_s


def model_for(spec: DeviceSpec):
    """Pick the device model class for a spec."""
    if spec.kind is DeviceKind.FPGA:
        from .fpga import FpgaModel  # loaded for FPGA specs only

        return FpgaModel(spec)
    if spec.kind is DeviceKind.CPU:
        return CpuModel(spec)
    return GpuModel(spec)


def time_launch_plan(plan: LaunchPlan, spec: DeviceSpec,
                     overheads: RuntimeOverheads,
                     variant: ImplVariant | None = None,
                     device_model=None,
                     kernels: dict | None = None) -> RunDecomposition:
    """Assemble the run decomposition.

    Parameters
    ----------
    kernels:
        Optional mapping profile-name -> :class:`KernelSpec` so FPGA
        timing can use kernel structure (loops, SIMD attributes).  GPU
        and CPU models use profiles alone.
    """
    model = device_model or model_for(spec)
    kernel_s = 0.0
    launches = 0
    for profile, n in plan.entries:
        if n == 0:
            continue
        if spec.kind is DeviceKind.FPGA:
            entry = (kernels or {}).get(profile.name)
            if entry is not None:
                # entry is a KernelSpec or a (KernelSpec, replication) pair
                if isinstance(entry, tuple):
                    kernel, repl = entry
                else:
                    kernel, repl = entry, None
                t = model.kernel_time_s(kernel, profile, replication=repl)
            else:
                t = model.nd_range_time_s_from_profile(profile)
        else:
            t = model.kernel_time_s(profile)
        if variant is not None:
            t *= variant.kernel_multiplier(profile.name)
        kernel_s += t * n
        launches += n

    non_kernel = overheads.per_run_s
    non_kernel += launches * overheads.launch_s
    non_kernel += launches * EVENTS_PER_LAUNCH * overheads.event_s
    if plan.transfer_bytes:
        non_kernel += overheads.transfer_time_s(plan.transfer_bytes)
    decomp = RunDecomposition(kernel_s=kernel_s, non_kernel_s=non_kernel,
                              launches=launches)
    tracer = current_tracer()
    if tracer is not None:
        # modeled run decomposition on its own clock lane: dur is the
        # *modeled* total, anchored at the wall moment it was assembled,
        # so Fig. 1's numbers sit next to the measured spans.
        tracer.complete(
            f"plan:{spec.key}", "model", tracer.now_us(),
            decomp.total_s * 1e6, f"modeled:{spec.key}",
            kernel_us=decomp.kernel_s * 1e6,
            non_kernel_us=decomp.non_kernel_s * 1e6,
            launches=launches, device=spec.key,
        )
    return decomp
