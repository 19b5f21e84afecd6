"""DWT2D — 2D discrete wavelet transform (Altis Level-2).

Forward CDF 5/3 (integer, lossless) transform: a lifting step along
rows then columns per decomposition level, splitting each level into
LL/LH/HL/HH sub-bands; the LL band recurses.

Paper relevance:

* §4 "Multiple kernel versions": DWT2D features **14 kernels** (row/
  column x 5/3 / 9/7 x forward/reverse variants); only the two needed
  for the default configuration, the forward 5/3 row and column
  kernels, are synthesized into one FPGA bitstream — and only those
  two are implemented here (``TOTAL_KERNEL_VARIANTS`` keeps the count
  for the DPCT source model);
* §4 "Congested memory ports": DWT2D performs numerous operations on a
  single shared-memory array; the port/arbiter pressure forced smaller
  work-group sizes to close timing;
* §5.4: the authors could not remove the shared-memory congestion, so
  **only a baseline (functional, non-optimized) FPGA version exists** —
  DWT2D appears in Fig. 2 but not in Figs. 4/5 or Table 3; reproduced
  by :meth:`fpga_setup` refusing ``optimized=True``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..common.errors import FeatureNotSupportedError
from ..perfmodel.profile import KernelProfile, LaunchPlan
from ..sycl.kernel import KernelAttributes, KernelKind, KernelSpec
from .base import AltisApp, FpgaSetup, Variant, Workload

if TYPE_CHECKING:  # pragma: no cover
    from ..dpct.source_model import SourceModel

__all__ = ["Dwt2D", "dwt53_forward", "dwt53_inverse"]

LEVELS = 3


def _lift53_1d(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One CDF 5/3 lifting pass along the last axis -> (low, high)."""
    x = x.astype(np.int64)
    even = x[..., 0::2]
    odd = x[..., 1::2]
    # predict: high = odd - floor((left + right) / 2)
    right = np.concatenate([even[..., 1:], even[..., -1:]], axis=-1)
    high = odd - ((even + right) >> 1)
    # update: low = even + floor((h_left + h_right + 2) / 4)
    h_left = np.concatenate([high[..., :1], high[..., :-1]], axis=-1)
    low = even + ((h_left + high + 2) >> 2)
    return low, high


def _unlift53_1d(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    h_left = np.concatenate([high[..., :1], high[..., :-1]], axis=-1)
    even = low - ((h_left + high + 2) >> 2)
    right = np.concatenate([even[..., 1:], even[..., -1:]], axis=-1)
    odd = high + ((even + right) >> 1)
    out = np.empty(low.shape[:-1] + (low.shape[-1] * 2,), dtype=np.int64)
    out[..., 0::2] = even
    out[..., 1::2] = odd
    return out


def dwt53_forward(img: np.ndarray, levels: int = LEVELS) -> np.ndarray:
    """Forward 5/3 DWT, sub-bands packed in place (LL top-left)."""
    out = img.astype(np.int64).copy()
    h, w = out.shape
    for _ in range(levels):
        # rows
        low, high = _lift53_1d(out[:h, :w])
        out[:h, : w // 2] = low
        out[:h, w // 2: w] = high
        # columns
        low, high = _lift53_1d(out[:h, :w].T)
        out[: h // 2, :w] = low.T
        out[h // 2: h, :w] = high.T
        h //= 2
        w //= 2
    return out


def dwt53_inverse(coeffs: np.ndarray, levels: int = LEVELS) -> np.ndarray:
    """Inverse transform (exact integer reconstruction)."""
    out = coeffs.astype(np.int64).copy()
    H, W = out.shape
    dims = [(H >> k, W >> k) for k in range(levels)]
    for h, w in reversed(dims):
        cols = _unlift53_1d(out[: h // 2, :w].T, out[h // 2: h, :w].T).T
        out[:h, :w] = cols
        rows = _unlift53_1d(out[:h, : w // 2], out[:h, w // 2: w])
        out[:h, :w] = rows
    return out


def _fdwt_rows_item(item, data, tmp, h, w):
    """Row-lifting kernel: one work-item per row (functional form)."""
    i = item.get_global_linear_id()
    if i >= h:
        return
    low, high = _lift53_1d(data[i, :w])
    tmp[i, : w // 2] = low
    tmp[i, w // 2: w] = high


def _fdwt_rows_vector(nd_range, data, tmp, h, w):
    low, high = _lift53_1d(data[:h, :w])
    tmp[:h, : w // 2] = low
    tmp[:h, w // 2: w] = high


def _fdwt_cols_item(item, tmp, data, h, w):
    j = item.get_global_linear_id()
    if j >= w:
        return
    low, high = _lift53_1d(tmp[:h, j])
    data[: h // 2, j] = low
    data[h // 2: h, j] = high


def _fdwt_cols_vector(nd_range, tmp, data, h, w):
    low, high = _lift53_1d(tmp[:h, :w].T)
    data[: h // 2, :w] = low.T
    data[h // 2: h, :w] = high.T


class Dwt2D(AltisApp):
    name = "DWT2D"
    configs = ("DWT2D",)
    times_whole_program = False

    _DIM = {1: 1024, 2: 2048, 3: 4096}
    #: total kernel variants in the app (§4: only 2 of 14 synthesized)
    TOTAL_KERNEL_VARIANTS = 14

    def nominal_dims(self, size: int) -> dict:
        self.check_size(size)
        n = self._DIM[size]
        return {"h": n, "w": n, "levels": LEVELS}

    def generate(self, size: int, *, seed: int = 0, scale: float = 1.0) -> Workload:
        dims = self.nominal_dims(size)
        n = self.scaled(dims["h"], scale, minimum=2 ** (LEVELS + 2))
        n = max(2 ** (LEVELS + 2), 1 << (n.bit_length() - 1))  # pow2
        rng = np.random.default_rng(seed)
        img = rng.integers(0, 256, size=(n, n), dtype=np.int64)
        return Workload(
            app=self.name, size=size,
            arrays={"img": img,
                    "coeffs": np.zeros((n, n), dtype=np.int64),
                    "tmp": np.zeros((n, n), dtype=np.int64)},
            params={"h": n, "w": n, "levels": dims["levels"]},
        )

    def reference(self, workload: Workload) -> dict[str, np.ndarray]:
        return {"coeffs": dwt53_forward(workload["img"],
                                        workload.params["levels"])}

    def kernels(self, variant: Variant = Variant.SYCL_OPT) -> dict[str, KernelSpec]:
        fpga = variant in (Variant.FPGA_BASE, Variant.FPGA_OPT)
        # §4: work-group size reduced to tame the congested shared array
        wg = (1, 1, 64) if fpga else None
        shared = [{"bytes": 6 * 1024, "static": variant is not Variant.FPGA_BASE,
                   "ports": 6, "bankable": False}]  # congested (§5.4)
        rows = KernelSpec(
            name="fdwt53_rows", kind=KernelKind.ND_RANGE,
            item_fn=_fdwt_rows_item, vector_fn=_fdwt_rows_vector,
            attributes=KernelAttributes(reqd_work_group_size=wg,
                                        max_work_group_size=wg),
            features={"body_fmas": 0, "body_ops": 8, "global_access_sites": 4,
                      "local_memories": shared},
        )
        cols = KernelSpec(
            name="fdwt53_cols", kind=KernelKind.ND_RANGE,
            item_fn=_fdwt_cols_item, vector_fn=_fdwt_cols_vector,
            attributes=rows.attributes,
            features=dict(rows.features),
        )
        return {"fdwt53_rows": rows, "fdwt53_cols": cols}

    def run_sycl(self, queue, workload: Workload,
                 variant: Variant = Variant.SYCL_OPT) -> dict[str, np.ndarray]:
        from ..sycl import NdRange, Range

        p = workload.params
        h, w, levels = p["h"], p["w"], p["levels"]
        data = workload["img"].astype(np.int64).copy()
        tmp = workload["tmp"]
        ks = self.kernels(variant)
        prof_r, prof_c = self._profiles(h, w)
        ch, cw = h, w
        for _ in range(levels):
            wg = min(64, ch)
            nd_r = NdRange(Range(-(-ch // wg) * wg), Range(wg))
            kr = ks["fdwt53_rows"]
            kc = ks["fdwt53_cols"]
            if kr.attributes.reqd_work_group_size is not None and wg != 64:
                kr = kr.with_attributes(reqd_work_group_size=(1, 1, wg),
                                        max_work_group_size=(1, 1, wg))
                kc = kc.with_attributes(reqd_work_group_size=(1, 1, wg),
                                        max_work_group_size=(1, 1, wg))
            queue.parallel_for(nd_r, kr, data, tmp, ch, cw, profile=prof_r)
            wgc = min(64, cw)
            nd_c = NdRange(Range(-(-cw // wgc) * wgc), Range(wgc))
            queue.parallel_for(nd_c, kc, tmp, data, ch, cw, profile=prof_c)
            ch //= 2
            cw //= 2
        workload.arrays["coeffs"] = data
        return {"coeffs": data}

    # -- analytical ------------------------------------------------------------
    def _profiles(self, h: int, w: int):
        px = h * w
        mk = lambda name: KernelProfile(
            name=name, flops=px * 6.0, global_bytes=px * 8 * 2,
            work_items=h, iters_per_item=w,
            local_accesses=px * 4.0,
            compute_efficiency=0.25, cpu_efficiency=0.15,
        )
        return mk("fdwt53_rows"), mk("fdwt53_cols")

    def launch_plan(self, size: int, variant: Variant) -> LaunchPlan:
        dims = self.nominal_dims(size)
        prof_r, prof_c = self._profiles(dims["h"], dims["w"])
        plan = LaunchPlan(transfer_bytes=dims["h"] * dims["w"] * 8 * 2)
        # per level the work quarters; model as a geometric factor ~1.33
        plan.add(prof_r.scaled(4.0 / 3.0), 1)
        plan.add(prof_c.scaled(4.0 / 3.0), 1)
        return plan

    def variant_traits(self, variant: Variant, config: str | None = None):
        from ..perfmodel.traits import ImplVariant

        traits: tuple[str, ...] = ()
        if variant is Variant.SYCL_BASELINE:
            traits = ("missed_vectorization", "barrier_global_scope")
        return ImplVariant(name=f"{self.name}:{variant.value}",
                           runtime=variant.runtime, traits=traits)

    def fpga_setup(self, size: int, optimized: bool, device_key: str) -> FpgaSetup:
        from ..fpga.resources import Design, KernelDesign

        if optimized:
            # §5.4: the shared-memory congestion could not be removed;
            # only the baseline FPGA version exists
            raise FeatureNotSupportedError(
                "DWT2D has no optimized FPGA design (paper §5.4: a full "
                "device-specific algorithmic rewrite would be required)"
            )
        dims = self.nominal_dims(size)
        ks = self.kernels(Variant.FPGA_BASE)
        prof_r, prof_c = self._profiles(dims["h"], dims["w"])
        plan = LaunchPlan(transfer_bytes=0)
        plan.add(prof_r.scaled(4.0 / 3.0), 1).add(prof_c.scaled(4.0 / 3.0), 1)
        # §4: only the two kernels needed for the default algorithm and
        # input size are synthesized (of TOTAL_KERNEL_VARIANTS)
        design = (Design(f"dwt2d_base_s{size}", dpct_headers=True)
                  .add(KernelDesign(ks["fdwt53_rows"]))
                  .add(KernelDesign(ks["fdwt53_cols"])))
        return FpgaSetup(design=design, plan=plan,
                         kernels={"fdwt53_rows": (ks["fdwt53_rows"], 1),
                                  "fdwt53_cols": (ks["fdwt53_cols"], 1)})

    def source_model(self) -> SourceModel:
        from ..dpct.source_model import Construct, SourceModel

        return SourceModel(
            app=self.name,
            lines_of_code=2_400,
            constructs=[
                Construct("kernel_def", self.TOTAL_KERNEL_VARIANTS),
                Construct("cuda_event_timing", 12),
                Construct("usm_mem_advise", 10),
                Construct("syncthreads", 40),
                Construct("device_new_delete", 3),  # per-level temp planes
                Construct("dpct_helper_use", 12),
                Construct("generic_api", 110),
                Construct("cmake_command", 2),
            ],
        )
