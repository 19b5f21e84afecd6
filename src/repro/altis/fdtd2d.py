"""FDTD2D — 2D finite-difference time-domain Maxwell solver (Altis Level-2).

TMz formulation on a square grid: per time step, three kernels update
``hx``, ``hy`` (curl of ``ez``) and then ``ez`` (curl of ``h``) with a
hard source at the grid centre.  Many small launches per run make FDTD2D
the paper's case study for runtime overhead (Fig. 1) and for the **time
measurement pitfall** (§3.3):

* the original CUDA code records events *without* an intervening
  ``cudaDeviceSynchronize()``; since launches are asynchronous, the
  measured "kernel region" captures only launch-API time while the real
  kernel work drains later — this is why the Fig. 2 *baseline* speedups
  collapse to 0.1/0.03/0.01 (SYCL honestly measures work the CUDA
  number misses).  Adding the synchronization (the paper's fix) brings
  the comparison to ~0.3/0.9/1.0;
* Fig. 1 decomposes both runtimes: SYCL's non-kernel region is dominated
  by the oneAPI plugin's per-launch context/event management.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..perfmodel.profile import KernelProfile, LaunchPlan
from ..sycl.kernel import KernelAttributes, KernelKind, KernelSpec
from .base import AltisApp, FpgaSetup, Variant, Workload

if TYPE_CHECKING:  # pragma: no cover
    from ..dpct.source_model import SourceModel
    from ..perfmodel.timeline import RunDecomposition

__all__ = ["FdTd2D", "fdtd2d_reference"]

C_H = 0.5
C_E = 0.7


def fdtd2d_reference(n: int, steps: int, ez0: np.ndarray | None = None
                     ) -> dict[str, np.ndarray]:
    """Ground truth: fields after ``steps`` updates on an n x n grid."""
    ez = np.zeros((n, n), dtype=np.float32) if ez0 is None else ez0.astype(np.float32).copy()
    hx = np.zeros((n, n), dtype=np.float32)
    hy = np.zeros((n, n), dtype=np.float32)
    for t in range(steps):
        hx[:, :-1] -= C_H * (ez[:, 1:] - ez[:, :-1])
        hy[:-1, :] += C_H * (ez[1:, :] - ez[:-1, :])
        ez[1:, 1:] += C_E * (hy[1:, 1:] - hy[:-1, 1:] - hx[1:, 1:] + hx[1:, :-1])
        ez[n // 2, n // 2] = np.float32(np.sin(0.1 * (t + 1)))  # hard source
    return {"ez": ez, "hx": hx, "hy": hy}


def _update_hx_item(item, ez, hx, n):
    i = item.get_global_id(0)
    j = item.get_global_id(1)
    if i >= n or j >= n - 1:
        return
    hx[i, j] -= C_H * (ez[i, j + 1] - ez[i, j])


def _update_hx_vector(nd_range, ez, hx, n):
    hx[:n, :n - 1] -= C_H * (ez[:n, 1:n] - ez[:n, :n - 1])


def _update_hy_item(item, ez, hy, n):
    i = item.get_global_id(0)
    j = item.get_global_id(1)
    if i >= n - 1 or j >= n:
        return
    hy[i, j] += C_H * (ez[i + 1, j] - ez[i, j])


def _update_hy_vector(nd_range, ez, hy, n):
    hy[:n - 1, :n] += C_H * (ez[1:n, :n] - ez[:n - 1, :n])


def _update_ez_item(item, ez, hx, hy, n, t):
    i = item.get_global_id(0)
    j = item.get_global_id(1)
    if not (1 <= i < n and 1 <= j < n):
        return
    ez[i, j] += C_E * (hy[i, j] - hy[i - 1, j] - hx[i, j] + hx[i, j - 1])
    if i == n // 2 and j == n // 2:
        ez[i, j] = np.float32(np.sin(0.1 * (t + 1)))


def _update_ez_vector(nd_range, ez, hx, hy, n, t):
    ez[1:n, 1:n] += C_E * (hy[1:n, 1:n] - hy[:n - 1, 1:n]
                           - hx[1:n, 1:n] + hx[1:n, :n - 1])
    ez[n // 2, n // 2] = np.float32(np.sin(0.1 * (t + 1)))


class FdTd2D(AltisApp):
    name = "FDTD2D"
    configs = ("FDTD2D",)
    times_whole_program = True  # the paper times the entire program

    _GRID = {1: 512, 2: 1024, 3: 2048}
    _STEPS = {1: 30, 2: 160, 3: 930}

    def nominal_dims(self, size: int) -> dict:
        self.check_size(size)
        return {"n": self._GRID[size], "steps": self._STEPS[size]}

    def generate(self, size: int, *, seed: int = 0, scale: float = 1.0) -> Workload:
        dims = self.nominal_dims(size)
        n = self.scaled(dims["n"], scale, minimum=8)
        steps = dims["steps"] if scale >= 1.0 else max(3, int(dims["steps"] * scale))
        return Workload(
            app=self.name, size=size,
            arrays={"ez": np.zeros((n, n), dtype=np.float32),
                    "hx": np.zeros((n, n), dtype=np.float32),
                    "hy": np.zeros((n, n), dtype=np.float32)},
            params={"n": n, "steps": steps},
        )

    def reference(self, workload: Workload) -> dict[str, np.ndarray]:
        p = workload.params
        return fdtd2d_reference(p["n"], p["steps"])

    def kernels(self, variant: Variant = Variant.SYCL_OPT) -> dict[str, KernelSpec]:
        fpga = variant in (Variant.FPGA_BASE, Variant.FPGA_OPT)
        wg = (1, 8, 16) if fpga else None
        feats = {"body_fmas": 2, "body_ops": 5, "global_access_sites": 4}
        mk = lambda name, item, vec: KernelSpec(
            name=name, kind=KernelKind.ND_RANGE, item_fn=item, vector_fn=vec,
            attributes=KernelAttributes(reqd_work_group_size=wg,
                                        max_work_group_size=wg),
            features=dict(feats),
        )
        return {"update_hx": mk("update_hx", _update_hx_item, _update_hx_vector),
                "update_hy": mk("update_hy", _update_hy_item, _update_hy_vector),
                "update_ez": mk("update_ez", _update_ez_item, _update_ez_vector)}

    def run_sycl(self, queue, workload: Workload,
                 variant: Variant = Variant.SYCL_OPT) -> dict[str, np.ndarray]:
        from ..sycl import NdRange, Range

        p = workload.params
        n, steps = p["n"], p["steps"]
        ez, hx, hy = workload["ez"], workload["hx"], workload["hy"]
        ks = self.kernels(variant)
        # the FPGA kernels require their (8, 16) work-group, so pad the
        # range to whole tiles (the bodies guard i >= n / j >= n)
        fpga = variant in (Variant.FPGA_BASE, Variant.FPGA_OPT)
        wg = (8, 16) if fpga or (n % 16 == 0 and n >= 16) else (1, n)
        gr = -(-n // wg[0]) * wg[0]
        gc = -(-n // wg[1]) * wg[1]
        nd = NdRange(Range(gr, gc), Range(wg))
        prof = self._step_profile(n)
        for t in range(steps):
            queue.parallel_for(nd, ks["update_hx"], ez, hx, n, profile=prof)
            queue.parallel_for(nd, ks["update_hy"], ez, hy, n, profile=prof)
            queue.parallel_for(nd, ks["update_ez"], ez, hx, hy, n, t,
                               profile=prof)
        return {"ez": ez, "hx": hx, "hy": hy}

    # -- analytical ------------------------------------------------------------
    def _step_profile(self, n: int) -> KernelProfile:
        px = n * n
        return KernelProfile(
            name="fdtd_step", flops=px * 3.0, global_bytes=px * 4 * 4,
            work_items=px, compute_efficiency=0.35, cpu_efficiency=0.20,
            cpu_bw_efficiency=0.25,  # three-array strided stencil sweep
        )

    def launch_plan(self, size: int, variant: Variant) -> LaunchPlan:
        dims = self.nominal_dims(size)
        prof = self._step_profile(dims["n"])
        plan = LaunchPlan(transfer_bytes=dims["n"] * dims["n"] * 4 * 4)
        plan.add(prof, 3 * dims["steps"])
        return plan

    def cuda_measurement(self, size: int, device_key: str = "rtx2080",
                         fixed: bool = True) -> float:
        """Modeled CUDA-reported time with or without the sync fix."""
        decomp = self.xpu_time(size, Variant.CUDA, device_key)
        return decomp.total_s if fixed else decomp.non_kernel_s

    def figure1_decomposition(self, size: int, device_key: str = "rtx2080"
                              ) -> dict[str, RunDecomposition]:
        """Fig. 1: kernel / non-kernel split for CUDA and SYCL."""
        return {
            "cuda": self.xpu_time(size, Variant.CUDA, device_key),
            "sycl": self.xpu_time(size, Variant.SYCL_OPT, device_key),
        }

    def fpga_setup(self, size: int, optimized: bool, device_key: str) -> FpgaSetup:
        from ..fpga.resources import Design, KernelDesign

        dims = self.nominal_dims(size)
        n, steps = dims["n"], dims["steps"]
        variant = Variant.FPGA_OPT if optimized else Variant.FPGA_BASE
        ks = self.kernels(variant)
        prof = self._step_profile(n)
        plan = LaunchPlan(transfer_bytes=0)
        plan.add(prof, 3 * steps)
        simd = 8 if optimized else 1
        design = Design(f"fdtd2d_{'opt' if optimized else 'base'}_s{size}",
                        dpct_headers=not optimized)
        kernels = {}
        for name, k in ks.items():
            if optimized:
                k = k.with_attributes(num_simd_work_items=simd)
            design.add(KernelDesign(k))
            kernels[prof.name] = (k, 1)
        return FpgaSetup(design=design, plan=plan, kernels=kernels)

    def source_model(self) -> SourceModel:
        from ..dpct.source_model import Construct, SourceModel

        return SourceModel(
            app=self.name,
            lines_of_code=1_300,
            constructs=[
                Construct("kernel_def", 3),
                Construct("cuda_event_timing", 14),  # the buggy event pairs
                Construct("usm_mem_advise", 8),
                Construct("generic_api", 60),
                Construct("cmake_command", 2),
            ],
        )
