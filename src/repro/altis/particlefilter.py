"""ParticleFilter — statistical target tracking (Altis Level-2).

A particle filter tracks a moving object through a synthetic noisy
video: per frame, each particle's likelihood is evaluated against pixel
samples around its guess, weights are updated and normalised, the
position estimate is the weighted mean, and particles are resampled
against the CDF with a systematic-resampling ``u`` vector.  Altis ships
two variants benchmarked separately:

* **PF Naive** — integer pixel arithmetic, straightforward kernels
  (Table 3: 0.0% DSP on both FPGAs — no floating-point datapath);
* **PF Float** — floating-point likelihood with ``pow(a, 2)`` call
  sites.  DPCT rewrites those to ``a*a``, making the *migrated SYCL up
  to 6x faster than the original CUDA* (§3.3; Fig. 2 baseline 4.7/6.8);
  the paper then back-ports the rewrite to CUDA, equalising the
  optimized comparison (~0.9-1.1).

FPGA story (§5.3): the resampling ``findIndex`` search is too branchy
to vectorize as ND-range, so both variants are rewritten Single-Task;
compute units are replicated 10x/50x on Stratix 10, retuned to 4x/24x
on Agilex (§5.5).  The baseline's per-particle linear CDF search is
O(n_particles) *per particle* and collapses at large sizes — Fig. 4's
optimized-over-baseline speedup grows from ~1x (size 1) to ~272x/368x
(size 3).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .._exports import lazy_module
from ..common.rng import LcgPark
from ..perfmodel.profile import KernelProfile, LaunchPlan
from ..sycl.kernel import KernelAttributes, KernelKind, KernelSpec, LoopSpec
from .base import AltisApp, FpgaSetup, Variant, Workload

np = lazy_module("numpy")

if TYPE_CHECKING:  # pragma: no cover
    from ..dpct.source_model import SourceModel

__all__ = ["ParticleFilter", "particlefilter_reference"]

FRAMES = 10
IMG = 128  # video frame edge


def _make_video(frames: int, img: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Synthetic video: a bright disc moving diagonally + salt noise.

    Returns (video[frames, img, img] uint8, true positions[frames, 2]).
    """
    rng = np.random.default_rng(seed)
    video = (rng.random((frames, img, img)) * 40).astype(np.uint8)
    pos = np.zeros((frames, 2))
    x = y = img // 4
    for t in range(frames):
        x += 1.0
        y += 1.5
        pos[t] = (x, y)
        yy, xx = np.ogrid[:img, :img]
        disc = (yy - y) ** 2 + (xx - x) ** 2 <= 9
        video[t][disc] = 200
    return video, pos


def _likelihood(video_frame: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Per-particle log-likelihood from a 3x3 sample around the guess."""
    img = video_frame.shape[0]
    lik = np.zeros(len(px), dtype=np.float64)
    offsets = (-1, 0, 1)
    cols = [np.clip(np.round(px + dx).astype(int), 0, img - 1) for dx in offsets]
    rows = [np.clip(np.round(py + dy).astype(int), 0, img - 1) for dy in offsets]
    for iy in rows:
        for ix in cols:
            sample = video_frame[iy, ix].astype(np.float64)
            # foreground model mean 200, background 40 (Rodinia-style)
            lik += ((sample - 100.0) ** 2 - (sample - 228.0) ** 2) / 50.0
    return lik / 9.0


def _systematic_u(n: int, rng: LcgPark) -> np.ndarray:
    u1 = rng.uniform_float() / n
    return u1 + np.arange(n) / n


def particlefilter_reference(video: np.ndarray, n_particles: int, seed: int = 1
                             ) -> np.ndarray:
    """Ground truth: estimated (x, y) per frame."""
    frames, img, _ = video.shape
    rng = LcgPark(seed)
    px = np.full(n_particles, img / 4.0)
    py = np.full(n_particles, img / 4.0)
    weights = np.full(n_particles, 1.0 / n_particles)
    estimates = np.zeros((frames, 2))
    for t in range(frames):
        # motion model + roughening noise (deterministic LCG streams)
        px = px + 1.0 + rng.normals(n_particles) * 0.5
        py = py + 1.5 + rng.normals(n_particles) * 0.5
        lik = _likelihood(video[t], px, py)
        weights = weights * np.exp(0.05 * (lik - lik.max()))
        weights /= weights.sum()
        estimates[t] = ((px * weights).sum(), (py * weights).sum())
        # systematic resampling via CDF search
        cdf = np.cumsum(weights)
        u = _systematic_u(n_particles, rng)
        idx = np.searchsorted(cdf, u)
        idx = np.clip(idx, 0, n_particles - 1)
        px, py = px[idx].copy(), py[idx].copy()
        weights = np.full(n_particles, 1.0 / n_particles)
    return estimates


def _find_index_item(item, cdf, u, out_idx, n):
    """The migrated findIndex kernel: per-particle linear CDF search —
    the branchy loop that motivates the Single-Task rewrite (§5.3)."""
    i = item.get_global_linear_id()
    if i >= n:
        return
    target = u[i]
    chosen = n - 1
    for j in range(n):
        if cdf[j] >= target:
            chosen = j
            break
    out_idx[i] = chosen


def _find_index_vector(nd_range, cdf, u, out_idx, n):
    out_idx[:n] = np.clip(np.searchsorted(cdf[:n], u[:n]), 0, n - 1)


def _find_index_single_task(cdf, u, out_idx, n):
    """Single-task merged scan: u is sorted, so one pass over the CDF
    serves all particles (O(n) total instead of O(n^2))."""
    j = 0
    for i in range(n):
        while j < n - 1 and cdf[j] < u[i]:
            j += 1
        out_idx[i] = j


class ParticleFilter(AltisApp):
    name = "ParticleFilter"
    configs = ("PF Naive", "PF Float")
    times_whole_program = False

    _PARTICLES = {1: 1_024, 2: 4_096, 3: 16_384}
    #: (naive_repl, float_repl) on each device (§5.5)
    _FPGA_REPLICATION = {"stratix10": (10, 50), "agilex": (4, 24)}

    def __init__(self, float_version: bool = False):
        self.float_version = float_version

    @property
    def config(self) -> str:
        return "PF Float" if self.float_version else "PF Naive"

    def nominal_dims(self, size: int) -> dict:
        self.check_size(size)
        return {"n_particles": self._PARTICLES[size], "frames": FRAMES,
                "img": IMG}

    def generate(self, size: int, *, seed: int = 0, scale: float = 1.0) -> Workload:
        dims = self.nominal_dims(size)
        n = self.scaled(dims["n_particles"], scale, minimum=16)
        frames = dims["frames"] if scale >= 1.0 else 4
        video, true_pos = _make_video(frames, dims["img"], seed)
        return Workload(
            app=self.name, size=size,
            arrays={"video": video, "true_pos": true_pos},
            params={"n_particles": n, "frames": frames, "img": dims["img"],
                    "seed": seed + 1},
        )

    def reference(self, workload: Workload) -> dict[str, np.ndarray]:
        p = workload.params
        est = particlefilter_reference(workload["video"], p["n_particles"],
                                       p["seed"])
        return {"estimates": est}

    def kernels(self, variant: Variant = Variant.SYCL_OPT) -> dict[str, KernelSpec]:
        fpga = variant in (Variant.FPGA_BASE, Variant.FPGA_OPT)
        wg = (1, 1, 128) if fpga else None
        fp = self.float_version
        likelihood = KernelSpec(
            name="likelihood", kind=KernelKind.ND_RANGE,
            vector_fn=lambda nd, *a: None,
            attributes=KernelAttributes(reqd_work_group_size=wg,
                                        max_work_group_size=wg),
            features={"body_fmas": 12 if fp else 0, "body_ops": 20,
                      "global_access_sites": 2,
                      "pow_calls": 4 if fp else 0},
        )
        find_index = KernelSpec(
            name="find_index", kind=KernelKind.ND_RANGE,
            item_fn=_find_index_item, vector_fn=_find_index_vector,
            attributes=KernelAttributes(reqd_work_group_size=wg,
                                        max_work_group_size=wg),
            features={"body_fmas": 0, "body_ops": 4, "global_access_sites": 3,
                      "variable_trip_loop": True, "deep_control_flow": True},
        )
        find_index_st = KernelSpec(
            name="find_index_st", kind=KernelKind.SINGLE_TASK,
            vector_fn=_find_index_single_task,
            attributes=KernelAttributes(kernel_args_restrict=True,
                                        max_global_work_dim=0),
            loops=[LoopSpec("merge", trip_count=1, initiation_interval=1,
                            speculated_iterations=0)],
            features={"body_fmas": 0, "body_ops": 6, "global_access_sites": 3,
                      "deep_control_flow": True},
        )
        return {"likelihood": likelihood, "find_index": find_index,
                "find_index_st": find_index_st}

    def run_sycl(self, queue, workload: Workload,
                 variant: Variant = Variant.SYCL_OPT) -> dict[str, np.ndarray]:
        """Functional run; the filter loop is host-driven with the
        find-index phase dispatched as a kernel per frame."""
        from ..sycl import NdRange, Range

        p = workload.params
        n, frames, img = p["n_particles"], p["frames"], p["img"]
        video = workload["video"]
        rng = LcgPark(p["seed"])
        px = np.full(n, img / 4.0)
        py = np.full(n, img / 4.0)
        weights = np.full(n, 1.0 / n)
        estimates = np.zeros((frames, 2))
        ks = self.kernels(variant)
        prof = self._frame_profile(n, Variant(variant))
        wg = min(128, n)
        gn = -(-n // wg) * wg
        kern = ks["find_index"]
        if kern.attributes.reqd_work_group_size is not None and wg != 128:
            kern = kern.with_attributes(reqd_work_group_size=(1, 1, wg),
                                        max_work_group_size=(1, 1, wg))
        for t in range(frames):
            px = px + 1.0 + rng.normals(n) * 0.5
            py = py + 1.5 + rng.normals(n) * 0.5
            lik = _likelihood(video[t], px, py)
            weights = weights * np.exp(0.05 * (lik - lik.max()))
            weights /= weights.sum()
            estimates[t] = ((px * weights).sum(), (py * weights).sum())
            cdf = np.cumsum(weights)
            u = _systematic_u(n, rng)
            idx = np.zeros(n, dtype=np.int64)
            if variant is Variant.FPGA_OPT:
                queue.single_task(ks["find_index_st"], cdf, u, idx, n,
                                  profile=prof)
            else:
                queue.parallel_for(NdRange(Range(gn), Range(wg)), kern,
                                   cdf, u, idx, n, profile=prof)
            idx = np.clip(idx, 0, n - 1)
            px, py = px[idx].copy(), py[idx].copy()
            weights = np.full(n, 1.0 / n)
        return {"estimates": estimates}

    # -- analytical ------------------------------------------------------------
    def _frame_profile(self, n: int, variant: Variant) -> KernelProfile:
        fp = self.float_version
        word = 4 if fp else 1
        return KernelProfile(
            name="pf_frame",
            flops=n * (60.0 if fp else 20.0) + n * 9 * 4,
            special_ops=n * (6.0 if fp else 1.0),
            global_bytes=n * (word * 16 + 24),
            work_items=n,
            branch_divergence=0.55,  # resampling search divergence
            compute_efficiency=0.12,
            cpu_efficiency=0.06,
        )

    def launch_plan(self, size: int, variant: Variant) -> LaunchPlan:
        dims = self.nominal_dims(size)
        n, frames = dims["n_particles"], dims["frames"]
        prof = self._frame_profile(n, variant)
        if variant in (Variant.CUDA, Variant.SYCL_BASELINE, Variant.SYCL_OPT):
            # GPU find_index: per-particle binary/linear search folded in
            prof = prof.with_(iters_per_item=math.log2(max(n, 2)))
        plan = LaunchPlan(transfer_bytes=dims["img"] ** 2 * frames)
        # likelihood + weights + normalize + find_index per frame
        plan.add(prof, frames * 4)
        return plan

    def variant_traits(self, variant: Variant, config: str | None = None):
        from ..perfmodel.traits import ImplVariant

        traits: tuple[str, ...] = ()
        if variant is Variant.CUDA and self.float_version and \
                getattr(self, "_cuda_pow_unfixed", True):
            # §3.3: original CUDA calls pow(a,2); DPCT strength-reduced it
            traits = ("pow_not_strength_reduced",)
        return ImplVariant(name=f"{self.name}:{variant.value}",
                           runtime=variant.runtime, traits=traits)

    def cuda_reported_time_s(self, size: int, device_key: str = "rtx2080",
                             pow_fixed: bool = False) -> float:
        """CUDA time with/without the pow(a,2) -> a*a back-port (§3.3)."""
        old = getattr(self, "_cuda_pow_unfixed", True)
        self._cuda_pow_unfixed = not pow_fixed
        try:
            return self.reported_time_s(size, Variant.CUDA, device_key)
        finally:
            self._cuda_pow_unfixed = old

    def fpga_setup(self, size: int, optimized: bool, device_key: str) -> FpgaSetup:
        from ..fpga.resources import Design, KernelDesign

        dims = self.nominal_dims(size)
        n, frames = dims["n_particles"], dims["frames"]
        variant = Variant.FPGA_OPT if optimized else Variant.FPGA_BASE
        ks = self.kernels(variant)
        naive_repl, float_repl = self._FPGA_REPLICATION[device_key]
        repl = (float_repl if self.float_version else naive_repl) if optimized else 1
        tag = "float" if self.float_version else "naive"
        phases = self._frame_profile(n, variant).with_(name="pf_phases",
                                                       iters_per_item=3.0)
        plan = LaunchPlan(transfer_bytes=0)
        design = Design(f"pf_{tag}_{'opt' if optimized else 'base'}_s{size}",
                        dpct_headers=not optimized)
        like = ks["likelihood"]
        design.add(KernelDesign(like, replication=repl if optimized else 1))
        plan.add(phases, frames * 3)
        if optimized:
            st = ks["find_index_st"]
            st = KernelSpec(
                name="pf_find", kind=st.kind, vector_fn=st.vector_fn,
                attributes=st.attributes,
                loops=[LoopSpec("merge", trip_count=2 * n,
                                initiation_interval=1,
                                speculated_iterations=0)],
                features=st.features,
            )
            find_prof = self._frame_profile(n, variant).with_(name="pf_find")
            plan.add(find_prof, frames)
            # the find chain is serial; only the frame phases replicate
            design.add(KernelDesign(st))
            return FpgaSetup(design=design, plan=plan,
                             kernels={"pf_phases": (like, repl),
                                      "pf_find": (st, 1)})
        # baseline: ND-range linear CDF search, O(n) *per particle*
        base = ks["find_index"]
        # early-exit linear search: work-groups retire once their last
        # particle hits, so the pipeline sees ~n/32 iterations per item
        find_prof = self._frame_profile(n, variant).with_(
            name="pf_find", iters_per_item=n / 32.0)
        plan.add(find_prof, frames)
        design.add(KernelDesign(base))
        return FpgaSetup(design=design, plan=plan,
                         kernels={"pf_phases": (like, 1),
                                  "pf_find": (base, 1)})

    def source_model(self) -> SourceModel:
        from ..dpct.source_model import Construct, SourceModel

        return SourceModel(
            app=self.name,
            lines_of_code=2_600,
            constructs=[
                Construct("kernel_def", 4),
                Construct("cuda_event_timing", 14),
                Construct("usm_mem_advise", 12),
                Construct("syncthreads", 18),
                Construct("pow_squared", 4),
                Construct("dpct_helper_use", 8),
                Construct("generic_api", 120),
                Construct("cmake_command", 2),
            ],
        )
