"""LavaMD — N-body particle interactions in a 3D box grid (Altis Level-2).

Particles live in ``boxes1d^3`` boxes; each particle interacts with all
particles in its own box and the 26 face/edge/corner neighbours through
a screened-Coulomb-style kernel (``w = exp(-alpha * |d|^2)``; force along
``d``, potential accumulation).

Paper relevance:

* §5.2 case 1: LavaMD's bottleneck loop runs over the staged neighbour
  particles in **shared memory** whose access pattern banks cleanly —
  unrolling it **30x** improves performance almost linearly; unrolling
  further passes the resource check but **violates timing** (reproduced
  by the synthesis model's congestion threshold);
* §5.5: the unroll factor is retuned 30x -> 16x on Agilex;
* Fig. 4: 3.6x/23.1x/25.2x optimized-vs-baseline on Stratix 10;
* Fig. 5: one of the apps where the Stratix 10 beats the RTX 2080 at
  small sizes (RTX 0.55 vs S10 3.82 at size 1).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._exports import lazy_module
from ..perfmodel.profile import KernelProfile, LaunchPlan
from ..sycl.kernel import KernelAttributes, KernelKind, KernelSpec
from ..sycl.ndrange import FenceSpace
from .base import AltisApp, FpgaSetup, Variant, Workload

np = lazy_module("numpy")

if TYPE_CHECKING:  # pragma: no cover
    from ..dpct.source_model import SourceModel

__all__ = ["LavaMD", "lavamd_reference"]

#: particles per box (Rodinia/Altis constant)
PAR_PER_BOX = 100
ALPHA = 0.5


def _neighbour_boxes(bx, by, bz, nb):
    """Indices of the 27-box neighbourhood (clamped at the grid edge)."""
    out = []
    for dz in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                x, y, z = bx + dx, by + dy, bz + dz
                if 0 <= x < nb and 0 <= y < nb and 0 <= z < nb:
                    out.append((z * nb + y) * nb + x)
    return out


def _box_interaction(rv_i: np.ndarray, qv_i: np.ndarray,
                     rv_j: np.ndarray, qv_j: np.ndarray):
    """All-pairs forces of box j's particles acting on box i's particles.

    Returns (dv, df): potential and force increments for box i.
    """
    d = rv_j[None, :, :] - rv_i[:, None, :]          # (pi, pj, 3)
    u = ALPHA * np.einsum("ijk,ijk->ij", d, d)       # (pi, pj)
    w = np.exp(-u).astype(np.float32)
    dv = (w * qv_j[None, :]).sum(axis=1)
    df = np.einsum("ij,ijk->ik", w * qv_j[None, :], d)
    return dv.astype(np.float32), df.astype(np.float32)


def lavamd_reference(rv: np.ndarray, qv: np.ndarray, nb: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Ground truth: (v, f) per particle; rv shape (boxes, par, 3)."""
    boxes = nb * nb * nb
    par = rv.shape[1]
    v = np.zeros((boxes, par), dtype=np.float32)
    f = np.zeros((boxes, par, 3), dtype=np.float32)
    for b in range(boxes):
        bz, rem = divmod(b, nb * nb)
        by, bx = divmod(rem, nb)
        for j in _neighbour_boxes(bx, by, bz, nb):
            dv, df = _box_interaction(rv[b], qv[b], rv[j], qv[j])
            v[b] += dv
            f[b] += df
    return v, f


def _kernel_item(item, rv, qv, v, f, nb, par):
    """Per work-item: one particle of one box; neighbours staged in
    local memory by the group (modeled here by reading them directly —
    the staging barrier is kept for fidelity).

    Batchable-dialect form: the 27-box neighbourhood is a static loop
    over offset codes with grid-edge boxes masked out via ``np.where``
    (a data-dependent neighbour list would pin the kernel to the
    interpreter), and over-provisioned lanes (work-group 128 vs 100
    particles) compute through a clamped particle index and simply skip
    the final store instead of returning before the barrier completes.
    """
    b = item.get_group(0)
    t = item.get_local_id(0)
    yield item.barrier(FenceSpace.LOCAL)  # neighbour staging barrier
    tc = min(t, par - 1)
    bz = b // (nb * nb)
    rem = b % (nb * nb)
    by = rem // nb
    bx = rem % nb
    px = rv[b, tc, 0]
    py = rv[b, tc, 1]
    pz = rv[b, tc, 2]
    acc_v = np.float32(0.0)
    acc_fx = np.float32(0.0)
    acc_fy = np.float32(0.0)
    acc_fz = np.float32(0.0)
    for off in range(27):
        dxo = off % 3 - 1
        dyo = (off // 3) % 3 - 1
        dzo = off // 9 - 1
        x = bx + dxo
        y = by + dyo
        z = bz + dzo
        inx = np.logical_and(0 <= x, x < nb)
        iny = np.logical_and(0 <= y, y < nb)
        inz = np.logical_and(0 <= z, z < nb)
        valid = np.logical_and(np.logical_and(inx, iny), inz)
        j = np.where(valid, (z * nb + y) * nb + x, 0)
        for k in range(par):
            dx = rv[j, k, 0] - px
            dy = rv[j, k, 1] - py
            dz = rv[j, k, 2] - pz
            u = ALPHA * (dx * dx + dy * dy + dz * dz)
            w = np.exp(-u)
            wq = np.where(valid, w * qv[j, k], np.float32(0.0))
            acc_v = acc_v + wq
            acc_fx = acc_fx + wq * dx
            acc_fy = acc_fy + wq * dy
            acc_fz = acc_fz + wq * dz
    if t < par:
        v[b, t] = acc_v
        f[b, t, 0] = acc_fx
        f[b, t, 1] = acc_fy
        f[b, t, 2] = acc_fz


def _kernel_vector(nd_range, rv, qv, v, f, nb, par):
    vv, ff = lavamd_reference(rv, qv, nb)
    v[:] = vv
    f[:] = ff


class LavaMD(AltisApp):
    name = "LavaMD"
    configs = ("LavaMD",)
    times_whole_program = False

    _BOXES1D = {1: 8, 2: 14, 3: 20}
    _FPGA_UNROLL = {"stratix10": 30, "agilex": 16}  # §5.2 / §5.5

    def nominal_dims(self, size: int) -> dict:
        self.check_size(size)
        nb = self._BOXES1D[size]
        return {"boxes1d": nb, "par": PAR_PER_BOX}

    def generate(self, size: int, *, seed: int = 0, scale: float = 1.0) -> Workload:
        dims = self.nominal_dims(size)
        nb = max(2, int(round(dims["boxes1d"] * scale))) if scale < 1.0 else dims["boxes1d"]
        par = dims["par"] if scale >= 1.0 else 8
        boxes = nb ** 3
        rng = np.random.default_rng(seed)
        rv = rng.uniform(0, nb, size=(boxes, par, 3)).astype(np.float32)
        qv = rng.uniform(0.1, 1.0, size=(boxes, par)).astype(np.float32)
        return Workload(
            app=self.name, size=size,
            arrays={"rv": rv, "qv": qv,
                    "v": np.zeros((boxes, par), dtype=np.float32),
                    "f": np.zeros((boxes, par, 3), dtype=np.float32)},
            params={"boxes1d": nb, "par": par},
        )

    def reference(self, workload: Workload) -> dict[str, np.ndarray]:
        v, f = lavamd_reference(workload["rv"], workload["qv"],
                                workload.params["boxes1d"])
        return {"v": v, "f": f}

    def kernels(self, variant: Variant = Variant.SYCL_OPT) -> dict[str, KernelSpec]:
        fpga = variant in (Variant.FPGA_BASE, Variant.FPGA_OPT)
        wg = 128
        static = variant is not Variant.FPGA_BASE
        kern = KernelSpec(
            name="lavamd_kernel",
            kind=KernelKind.ND_RANGE,
            item_fn=_kernel_item,
            vector_fn=_kernel_vector,
            attributes=KernelAttributes(
                reqd_work_group_size=(1, 1, wg) if fpga else None,
                max_work_group_size=(1, 1, wg) if fpga else None,
            ),
            features={
                "body_fmas": 10, "body_ops": 18, "global_access_sites": 4,
                "special_fn": True,
                "local_memories": [
                    # staged neighbour particles: rA (pos) + qB (charge);
                    # banks cleanly (§5.2 case 1)
                    {"bytes": PAR_PER_BOX * 16, "static": static, "ports": 2,
                     "bankable": True},
                    {"bytes": PAR_PER_BOX * 4, "static": static, "ports": 1,
                     "bankable": True},
                ],
            },
        )
        return {"lavamd_kernel": kern}

    def run_sycl(self, queue, workload: Workload,
                 variant: Variant = Variant.SYCL_OPT) -> dict[str, np.ndarray]:
        from ..sycl import NdRange, Range

        p = workload.params
        nb, par = p["boxes1d"], p["par"]
        boxes = nb ** 3
        kern = self.kernels(variant)["lavamd_kernel"]
        wg = 128 if par == PAR_PER_BOX else par
        if kern.attributes.reqd_work_group_size is not None and wg != 128:
            kern = kern.with_attributes(reqd_work_group_size=(1, 1, wg),
                                        max_work_group_size=(1, 1, wg))
        nd = NdRange(Range(boxes * wg), Range(wg))
        queue.parallel_for(nd, kern, workload["rv"], workload["qv"],
                           workload["v"], workload["f"], nb, par,
                           profile=self._profile(nb, par))
        return {"v": workload["v"], "f": workload["f"]}

    # -- analytical ------------------------------------------------------------
    def _profile(self, nb: int, par: int, *, fpga_unroll: int = 1) -> KernelProfile:
        boxes = nb ** 3
        # average neighbourhood size accounting for grid edges
        interior = max(nb - 2, 0) ** 3
        avg_neigh = (27 * interior + 18 * (boxes - interior)) / boxes
        interactions = boxes * par * avg_neigh * par
        return KernelProfile(
            name="lavamd_kernel",
            flops=interactions * 12.0,
            special_ops=interactions,  # one exp per pair
            global_bytes=boxes * par * (16 + 4 + 16) * 2.0,
            work_items=boxes * 128,
            iters_per_item=avg_neigh * par / fpga_unroll,
            branch_divergence=0.05,
            # GPUs: register pressure from the accumulator arrays caps
            # occupancy (LavaMD is famously CPU-competitive, Fig. 5)
            # dependent exp chains per thread leave GPU pipelines
            # latency-bound (LavaMD is famously CPU-competitive, Fig. 5)
            compute_efficiency=0.02,
            cpu_efficiency=0.08,
        )

    def launch_plan(self, size: int, variant: Variant) -> LaunchPlan:
        dims = self.nominal_dims(size)
        prof = self._profile(dims["boxes1d"], dims["par"])
        boxes = dims["boxes1d"] ** 3
        plan = LaunchPlan(transfer_bytes=boxes * dims["par"] * 40)
        plan.add(prof, 1)
        return plan

    def fpga_setup(self, size: int, optimized: bool, device_key: str) -> FpgaSetup:
        from ..fpga.resources import Design, KernelDesign

        dims = self.nominal_dims(size)
        nb, par = dims["boxes1d"], dims["par"]
        variant = Variant.FPGA_OPT if optimized else Variant.FPGA_BASE
        kern = self.kernels(variant)["lavamd_kernel"]
        unroll = self._FPGA_UNROLL[device_key] if optimized else 1
        prof = self._profile(nb, par, fpga_unroll=unroll)
        plan = LaunchPlan(transfer_bytes=0)
        plan.add(prof, 1)
        design = Design(
            f"lavamd_{'opt' if optimized else 'base'}_s{size}",
            dpct_headers=not optimized,
        ).add(KernelDesign(kern, unroll=unroll))
        return FpgaSetup(design=design, plan=plan,
                         kernels={"lavamd_kernel": (kern, 1)})

    def source_model(self) -> SourceModel:
        from ..dpct.source_model import Construct, SourceModel

        return SourceModel(
            app=self.name,
            lines_of_code=1_900,
            constructs=[
                Construct("kernel_def", 1),
                Construct("cuda_event_timing", 10),
                Construct("usm_mem_advise", 10),
                Construct("syncthreads", 36),
                Construct("dpct_helper_use", 10),
                Construct("generic_api", 90),
                Construct("cmake_command", 2),
            ],
        )
