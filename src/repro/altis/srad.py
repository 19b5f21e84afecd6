"""SRAD — speckle-reducing anisotropic diffusion (Altis Level-2).

PDE-based noise reduction for ultrasound imagery.  Each iteration runs
two kernels: ``srad1`` computes directional gradients and the diffusion
coefficient per pixel; ``srad2`` applies the divergence update.

Paper relevance:

* §4 "SYCL accessors": the initial SRAD design passed **eleven accessor
  objects** as kernel arguments, exceeding the Stratix 10's resources;
  passing raw pointers (``get_pointer()``) instead made it fit — both
  outcomes are reproduced by the resource model's accessor-object
  charge;
* §5.2 case 2: SRAD's kernels use many shared arrays; unrolling or
  full vectorization at large work-group sizes exhausts resources.  The
  tuning grid the paper reports — a 64x64 work-group with SIMD=2 being
  ~4x faster than 16x16 with SIMD=8 — is exposed via
  :meth:`Srad.fpga_ndrange_ablation`;
* §5.5: work-group size retuned 16 -> 32 on Agilex;
* Table 3: the shipped FPGA implementation is **Single-Task**.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._exports import lazy_module
from ..perfmodel.profile import KernelProfile, LaunchPlan
from ..sycl.kernel import KernelAttributes, KernelKind, KernelSpec, LoopSpec
from .base import AltisApp, FpgaSetup, Variant, Workload

np = lazy_module("numpy")

if TYPE_CHECKING:  # pragma: no cover
    from ..dpct.source_model import SourceModel

__all__ = ["Srad", "srad_reference"]

LAMBDA = 0.5
ITERATIONS = 20


def _clamped_neighbours(img: np.ndarray):
    """N/S/W/E neighbours with Rodinia's clamped boundary indexing."""
    north = np.vstack([img[:1], img[:-1]])
    south = np.vstack([img[1:], img[-1:]])
    west = np.hstack([img[:, :1], img[:, :-1]])
    east = np.hstack([img[:, 1:], img[:, -1:]])
    return north, south, west, east


def srad_step(img: np.ndarray, lam: float = LAMBDA) -> np.ndarray:
    """One SRAD iteration (both kernels), vectorized."""
    mean = img.mean()
    var = img.var()
    q0sqr = var / (mean * mean)

    n, s, w, e = _clamped_neighbours(img)
    dN, dS, dW, dE = n - img, s - img, w - img, e - img
    g2 = (dN * dN + dS * dS + dW * dW + dE * dE) / (img * img)
    l = (dN + dS + dW + dE) / img
    num = 0.5 * g2 - (1.0 / 16.0) * (l * l)
    # den * den, not den ** 2: scalar float32 ``**`` and the batched
    # array ``**`` round differently by 1 ulp on some inputs; an explicit
    # multiply is bit-identical in the item_fn and the vector_fn (and matches
    # the original Altis source, which writes (1+.25*L)*(1+.25*L))
    den = 1.0 + 0.25 * l
    qsqr = num / (den * den)
    c = 1.0 / (1.0 + (qsqr - q0sqr) / (q0sqr * (1.0 + q0sqr)))
    c = np.clip(c, 0.0, 1.0)

    # srad2: divergence with the south/east coefficients
    c_s = np.vstack([c[1:], c[-1:]])
    c_e = np.hstack([c[:, 1:], c[:, -1:]])
    d = c * dN + c_s * dS + c * dW + c_e * dE
    return (img + 0.25 * lam * d).astype(img.dtype)


def srad_reference(img: np.ndarray, iterations: int, lam: float = LAMBDA) -> np.ndarray:
    out = img.astype(np.float32).copy()
    for _ in range(iterations):
        out = srad_step(out, lam)
    return out


def _srad1_item(item, img, c_arr, dN_a, dS_a, dW_a, dE_a, q0sqr, rows, cols):
    # clamped neighbour indices read the edge values the vector_fn's
    # _clamped_neighbours reads, so the item_fn stays bitwise equal to it
    i = item.get_global_id(0)
    j = item.get_global_id(1)
    if i >= rows or j >= cols:
        return
    v = img[i, j]
    dn = img[np.maximum(i - 1, 0), j] - v
    ds = img[np.minimum(i + 1, rows - 1), j] - v
    dw = img[i, np.maximum(j - 1, 0)] - v
    de = img[i, np.minimum(j + 1, cols - 1)] - v
    g2 = (dn * dn + ds * ds + dw * dw + de * de) / (v * v)
    l = (dn + ds + dw + de) / v
    num = 0.5 * g2 - (1.0 / 16.0) * (l * l)
    den = 1.0 + 0.25 * l
    qsqr = num / (den * den)
    c = 1.0 / (1.0 + (qsqr - q0sqr) / (q0sqr * (1.0 + q0sqr)))
    c_arr[i, j] = np.minimum(np.maximum(c, 0.0), 1.0)
    dN_a[i, j], dS_a[i, j], dW_a[i, j], dE_a[i, j] = dn, ds, dw, de


def _srad1_vector(nd_range, img, c_arr, dN_a, dS_a, dW_a, dE_a, q0sqr, rows, cols):
    v = img[:rows, :cols]
    n, s, w, e = _clamped_neighbours(v)
    dN, dS, dW, dE = n - v, s - v, w - v, e - v
    g2 = (dN * dN + dS * dS + dW * dW + dE * dE) / (v * v)
    l = (dN + dS + dW + dE) / v
    num = 0.5 * g2 - (1.0 / 16.0) * (l * l)
    den = 1.0 + 0.25 * l
    qsqr = num / (den * den)
    c = 1.0 / (1.0 + (qsqr - q0sqr) / (q0sqr * (1.0 + q0sqr)))
    c_arr[:rows, :cols] = np.clip(c, 0.0, 1.0)
    dN_a[:rows, :cols] = dN
    dS_a[:rows, :cols] = dS
    dW_a[:rows, :cols] = dW
    dE_a[:rows, :cols] = dE


def _srad2_item(item, img, c_arr, dN_a, dS_a, dW_a, dE_a, lam, rows, cols):
    i = item.get_global_id(0)
    j = item.get_global_id(1)
    if i >= rows or j >= cols:
        return
    c = c_arr[i, j]
    c_s = c_arr[np.minimum(i + 1, rows - 1), j]
    c_e = c_arr[i, np.minimum(j + 1, cols - 1)]
    d = (c * dN_a[i, j] + c_s * dS_a[i, j] + c * dW_a[i, j] + c_e * dE_a[i, j])
    img[i, j] = img[i, j] + 0.25 * lam * d


def _srad2_vector(nd_range, img, c_arr, dN_a, dS_a, dW_a, dE_a, lam, rows, cols):
    c = c_arr[:rows, :cols]
    c_s = np.vstack([c[1:], c[-1:]])
    c_e = np.hstack([c[:, 1:], c[:, -1:]])
    d = (c * dN_a[:rows, :cols] + c_s * dS_a[:rows, :cols]
         + c * dW_a[:rows, :cols] + c_e * dE_a[:rows, :cols])
    img[:rows, :cols] = img[:rows, :cols] + 0.25 * lam * d


class Srad(AltisApp):
    name = "SRAD"
    configs = ("SRAD",)
    times_whole_program = False

    _DIM = {1: 2048, 2: 4096, 3: 8192}
    #: (work-group edge, SIMD) per device — §5.2 case 2 / §5.5
    _FPGA_TUNING = {"stratix10": (16, 2), "agilex": (32, 2)}

    def nominal_dims(self, size: int) -> dict:
        self.check_size(size)
        n = self._DIM[size]
        return {"rows": n, "cols": n, "iterations": ITERATIONS}

    def generate(self, size: int, *, seed: int = 0, scale: float = 1.0) -> Workload:
        dims = self.nominal_dims(size)
        rows = self.scaled(dims["rows"], scale, minimum=16)
        cols = self.scaled(dims["cols"], scale, minimum=16)
        iters = dims["iterations"] if scale >= 1.0 else 4
        rng = np.random.default_rng(seed)
        img = np.exp(rng.normal(0.0, 0.3, size=(rows, cols))).astype(np.float32)
        return Workload(
            app=self.name, size=size,
            arrays={"img": img},
            params={"rows": rows, "cols": cols, "iterations": iters,
                    "lam": LAMBDA},
        )

    def reference(self, workload: Workload) -> dict[str, np.ndarray]:
        return {"img": srad_reference(workload["img"],
                                      workload.params["iterations"],
                                      workload.params["lam"])}

    def kernels(self, variant: Variant = Variant.SYCL_OPT,
                accessor_objects: bool = False) -> dict[str, KernelSpec]:
        """``accessor_objects=True`` reconstructs the §4 initial design
        that passed eleven accessor objects (exceeds the Stratix 10)."""
        fpga = variant in (Variant.FPGA_BASE, Variant.FPGA_OPT)
        wg = self._FPGA_TUNING["stratix10"][0]
        static = variant is not Variant.FPGA_BASE
        shared = [{"bytes": wg * wg * 4, "static": static, "ports": 2,
                   "bankable": True} for _ in range(5)]
        srad1 = KernelSpec(
            name="srad1", kind=KernelKind.ND_RANGE,
            item_fn=_srad1_item,
            vector_fn=_srad1_vector,
            attributes=KernelAttributes(
                reqd_work_group_size=(1, wg, wg) if fpga else None,
                max_work_group_size=(1, wg, wg) if fpga else None,
            ),
            features={"body_fmas": 14, "body_ops": 28, "global_access_sites": 6,
                      "accessor_object_args": 7 if accessor_objects else 0,
                      "local_memories": shared + [
                          {"bytes": wg * wg * 4, "static": static,
                           "ports": 2, "bankable": True}]},
        )
        srad2 = KernelSpec(
            name="srad2", kind=KernelKind.ND_RANGE,
            item_fn=_srad2_item,
            vector_fn=_srad2_vector,
            attributes=srad1.attributes,
            features={"body_fmas": 6, "body_ops": 12, "global_access_sites": 6,
                      "accessor_object_args": 4 if accessor_objects else 0,
                      "local_memories": shared},
        )
        st = KernelSpec(
            name="srad_single_task", kind=KernelKind.SINGLE_TASK,
            vector_fn=lambda img, lam, iters, rows, cols: None,
            attributes=KernelAttributes(kernel_args_restrict=True,
                                        max_global_work_dim=0),
            loops=[LoopSpec("pixels", trip_count=1, initiation_interval=1,
                            unroll=2, speculated_iterations=0)],
            features={"body_fmas": 20, "body_ops": 40, "global_access_sites": 8,
                      "local_memories": [
                          {"bytes": 8192 * 4 * 3, "static": True, "ports": 4,
                           "bankable": True}]},  # 3-row line buffer
        )
        return {"srad1": srad1, "srad2": srad2, "single_task": st}

    def run_sycl(self, queue, workload: Workload,
                 variant: Variant = Variant.SYCL_OPT) -> dict[str, np.ndarray]:
        from ..sycl import NdRange, Range

        p = workload.params
        rows, cols, iters, lam = p["rows"], p["cols"], p["iterations"], p["lam"]
        img = workload["img"].astype(np.float32).copy()
        c_arr = np.zeros_like(img)
        dN = np.zeros_like(img)
        dS = np.zeros_like(img)
        dW = np.zeros_like(img)
        dE = np.zeros_like(img)
        ks = self.kernels(variant)
        wg = 16 if min(rows, cols) >= 16 else 8
        k1, k2 = ks["srad1"], ks["srad2"]
        if k1.attributes.reqd_work_group_size is not None and wg != 16:
            k1 = k1.with_attributes(reqd_work_group_size=(1, wg, wg),
                                    max_work_group_size=(1, wg, wg))
            k2 = k2.with_attributes(reqd_work_group_size=(1, wg, wg),
                                    max_work_group_size=(1, wg, wg))
        gr = -(-rows // wg) * wg
        gc = -(-cols // wg) * wg
        nd = NdRange(Range(gr, gc), Range(wg, wg))
        p1, p2 = self._profiles(rows, cols)
        for _ in range(iters):
            mean = img[:rows, :cols].mean()
            var = img[:rows, :cols].var()
            q0sqr = var / (mean * mean)
            queue.parallel_for(nd, k1, img, c_arr, dN, dS, dW, dE,
                               q0sqr, rows, cols, profile=p1)
            queue.parallel_for(nd, k2, img, c_arr, dN, dS, dW, dE,
                               lam, rows, cols, profile=p2)
        return {"img": img}

    # -- analytical -----------------------------------------------------------
    def _profiles(self, rows: int, cols: int):
        px = rows * cols
        p1 = KernelProfile(
            name="srad1", flops=px * 30.0, global_bytes=px * 4 * 7,
            work_items=px, compute_efficiency=0.35, cpu_efficiency=0.12,
            cpu_bw_efficiency=0.15,  # 7-array strided sweep thrashes LLC
        )
        p2 = KernelProfile(
            name="srad2", flops=px * 12.0, global_bytes=px * 4 * 7,
            work_items=px, compute_efficiency=0.35, cpu_efficiency=0.12,
            cpu_bw_efficiency=0.15,
        )
        return p1, p2

    def launch_plan(self, size: int, variant: Variant) -> LaunchPlan:
        dims = self.nominal_dims(size)
        p1, p2 = self._profiles(dims["rows"], dims["cols"])
        plan = LaunchPlan(transfer_bytes=dims["rows"] * dims["cols"] * 8)
        plan.add(p1, dims["iterations"]).add(p2, dims["iterations"])
        return plan

    def fpga_setup(self, size: int, optimized: bool, device_key: str) -> FpgaSetup:
        from ..fpga.resources import Design, KernelDesign

        dims = self.nominal_dims(size)
        rows, cols, iters = dims["rows"], dims["cols"], dims["iterations"]
        px = rows * cols
        plan = LaunchPlan(transfer_bytes=0)
        if optimized:
            # Table 3: shipped SRAD is a Single-Task line-buffered pipeline
            st = self.kernels(Variant.FPGA_OPT)["single_task"]
            st = KernelSpec(
                name=st.name, kind=st.kind, vector_fn=st.vector_fn,
                attributes=st.attributes,
                loops=[LoopSpec("pixels", trip_count=px, unroll=2,
                                initiation_interval=1,
                                speculated_iterations=0)],
                features=st.features,
            )
            prof = KernelProfile(name=st.name, flops=px * 42.0,
                                 global_bytes=px * 8.0, work_items=1,
                                 iters_per_item=px / 2.0,
                                 compute_efficiency=0.4)
            plan.add(prof, iters)
            design = Design(f"srad_opt_s{size}").add(KernelDesign(st, unroll=2))
            return FpgaSetup(design=design, plan=plan,
                             kernels={st.name: (st, 1)})
        ks = self.kernels(Variant.FPGA_BASE)
        p1, p2 = self._profiles(rows, cols)
        p1 = p1.with_(iters_per_item=1.2, branch_divergence=0.2)
        p2 = p2.with_(iters_per_item=1.0, branch_divergence=0.2)
        plan.add(p1, iters).add(p2, iters)
        design = (Design(f"srad_base_s{size}", dpct_headers=True)
                  .add(KernelDesign(ks["srad1"]))
                  .add(KernelDesign(ks["srad2"])))
        return FpgaSetup(design=design, plan=plan,
                         kernels={"srad1": (ks["srad1"], 1),
                                  "srad2": (ks["srad2"], 1)})

    def fpga_ndrange_ablation(self, device_key: str = "stratix10",
                              size: int = 1):
        """§5.2 case 2 tuning grid: (wg edge, SIMD) -> modeled time or the
        failure mode ('does not fit' / 'timing violation')."""
        from ..common.errors import FpgaToolError
        from ..fpga.resources import Design, KernelDesign
        from ..fpga.synthesis import synthesize
        from ..perfmodel.fpga import FpgaModel
        from ..perfmodel.spec import get_spec

        dims = self.nominal_dims(size)
        px = dims["rows"] * dims["cols"]
        spec = get_spec(device_key)
        results = {}
        for wg in (16, 32, 64):
            for simd in (1, 2, 4, 8):
                ks = self.kernels(Variant.FPGA_OPT)
                k1 = ks["srad1"].with_attributes(
                    reqd_work_group_size=(1, wg, wg),
                    max_work_group_size=(1, wg, wg),
                    num_simd_work_items=simd)
                k1.features["local_memories"] = [
                    {"bytes": wg * wg * 4, "static": True, "ports": 2,
                     "bankable": True} for _ in range(6)]
                design = Design(f"srad_wg{wg}_simd{simd}").add(KernelDesign(k1))
                try:
                    synth = synthesize(design, spec)
                except FpgaToolError as exc:
                    results[(wg, simd)] = type(exc).__name__
                    continue
                model = FpgaModel(spec, synth)
                prof = self._profiles(dims["rows"], dims["cols"])[0]
                # halo refetch + lost reuse: traffic grows as tiles shrink
                prof = prof.with_(global_bytes=prof.global_bytes
                                  * (1.0 + 48.0 / wg))
                results[(wg, simd)] = model.nd_range_time_s(k1, prof).time_s
        return results

    def source_model(self) -> SourceModel:
        from ..dpct.source_model import Construct, SourceModel

        return SourceModel(
            app=self.name,
            lines_of_code=2_300,
            constructs=[
                Construct("kernel_def", 2),
                Construct("cuda_event_timing", 12),
                Construct("usm_mem_advise", 12),
                Construct("syncthreads", 14, local_scope_detectable=True),
                Construct("syncthreads", 6),
                Construct("dpct_helper_use", 10),
                Construct("generic_api", 110),
                Construct("cmake_command", 2),
            ],
        )
