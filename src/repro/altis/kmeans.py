"""KMeans — clustering for data mining (Altis Level-2).

Lloyd iterations: assign each point to its nearest center
(``mapCenters``), then recompute centers (``reset`` / ``accumulate`` /
``finalize``).

Paper relevance (§5.3, Fig. 3):

* the **baseline FPGA design** launches four kernels per iteration,
  communicating through global memory (Fig. 3a);
* the **optimized design** fuses reset/accumulate/finalize into
  ``resetAccFin`` and connects it to ``mapCenters`` with **pipes**,
  including the feedback pipe that returns the new centers — the two
  single-task kernels run simultaneously as dataflow, cutting DRAM
  round trips and kernel invocations.  The paper reports **510x** on
  Stratix 10 (Fig. 4: 489x/500x/510x at sizes 1-3);
* mechanism for the magnitude: the migrated ND-range ``mapCenters`` has
  a sequential k x d distance loop per work-item (one point every
  ~k*d cycles), while the optimized single-task engine unrolls the
  distance computation into a spatial pipeline processing ~one point
  every other cycle.
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
    from ..sycl.pipes import Pipe

__all__ = ["KMeans", "kmeans_reference"]

#: Lloyd iterations per timed run (Altis iterates to convergence; the
#: model fixes the count for determinism)
ITERATIONS = 50
#: pipe streaming granularity (points per pipe word bundle)
CHUNK = 256


def _assign_points(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest-center assignment, vectorized (n,d)x(k,d) -> (n,)."""
    # squared distances via ||p||^2 - 2 p.c + ||c||^2; ||p||^2 constant
    cross = points @ centers.T
    c2 = np.einsum("kd,kd->k", centers, centers)
    return np.argmin(c2[None, :] - 2.0 * cross, axis=1).astype(np.int32)


def _cluster_sums(points: np.ndarray, assign: np.ndarray, k: int) -> np.ndarray:
    """Per-cluster float64 sums of ``points`` rows, shape ``(k, d)``.

    One ``np.bincount`` over the flat bin ``assign * d + j``: each
    (cluster, dim) bin adds its points in point order, starting from
    0.0, so the sums equal, bit for bit, a scatter-add of one row at a
    time into zeros.
    """
    d = points.shape[1]
    bins = (assign.astype(np.intp) * d)[:, None] + np.arange(d)
    return np.bincount(bins.ravel(), weights=points.ravel(),
                       minlength=k * d).reshape(k, d)


def _update_centers(points: np.ndarray, assign: np.ndarray, k: int) -> np.ndarray:
    sums = _cluster_sums(points, assign, k)
    counts = np.bincount(assign, minlength=k).astype(np.float64)
    counts[counts == 0] = 1.0
    return (sums / counts[:, None]).astype(points.dtype)


def kmeans_reference(points: np.ndarray, centers0: np.ndarray,
                     iterations: int) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth Lloyd iterations; returns (centers, assignments)."""
    centers = centers0.copy()
    assign = np.zeros(len(points), dtype=np.int32)
    for _ in range(iterations):
        assign = _assign_points(points, centers)
        centers = _update_centers(points, assign, len(centers))
    return centers, assign


# -- ND-range kernels ---------------------------------------------------------

def _map_centers_item(item, points, centers, assign, n, k, d):
    # Batchable dialect: the k x d sweep is a static-trip-count loop
    # (unrolled by the compiled tier), and the running best is tracked
    # with np.where instead of a lane-divergent conditional rebind.
    i = item.get_global_linear_id()
    if i >= n:
        return
    best = 0
    best_dist = np.inf
    for c in range(k):
        dist = 0.0
        for j in range(d):
            delta = float(points[i, j]) - float(centers[c, j])
            dist += delta * delta
        closer = dist < best_dist
        best = np.where(closer, c, best)
        best_dist = np.where(closer, dist, best_dist)
    assign[i] = best


def _map_centers_vector(nd_range, points, centers, assign, n, k, d):
    assign[:n] = _assign_points(points[:n], centers)


def _reset_vector(nd_range, sums, counts, k, d):
    sums[:] = 0
    counts[:] = 0


def _accumulate_vector(nd_range, points, assign, sums, counts, n):
    k = len(counts)
    sums += _cluster_sums(points[:n], assign[:n], k)
    counts += np.bincount(assign[:n], minlength=k)


def _finalize_vector(nd_range, centers, sums, counts, k):
    safe = np.maximum(counts[:k], 1).astype(np.float64)
    centers[:k] = (sums[:k] / safe[:, None]).astype(centers.dtype)


# -- single-task dataflow kernels (Fig. 3b) -----------------------------------

def _map_centers_st(points, centers0, assign_pipe: Pipe, centers_pipe: Pipe,
                    n, k, d, iterations):
    """Single-task mapCenters: streams assignments out, receives the new
    centers back through the feedback pipe after each pass."""
    centers = centers0.copy()
    for it in range(iterations):
        for start in range(0, n, CHUNK):
            chunk = _assign_points(points[start:start + CHUNK], centers)
            yield from assign_pipe.write_blocking((start, chunk))
        if it < iterations - 1:
            centers = yield from centers_pipe.read_blocking()


def _reset_acc_fin_st(points, centers_out, assign_out, assign_pipe: Pipe,
                      centers_pipe: Pipe, n, k, d, iterations):
    """Fused reset+accumulate+finalize; feeds centers back via pipe."""
    for it in range(iterations):
        assign = np.empty(n, dtype=np.int32)
        received = 0
        while received < n:
            start, chunk = yield from assign_pipe.read_blocking()
            assign[start:start + len(chunk)] = chunk
            received += len(chunk)
        # chunks arrive in point order, so one pass over the whole
        # assignment adds each cluster's points in the streamed order
        sums = _cluster_sums(points[:n], assign, k)
        counts = np.bincount(assign, minlength=k)
        if it == iterations - 1:
            assign_out[:n] = assign
        safe = np.maximum(counts, 1).astype(np.float64)
        centers = (sums / safe[:, None]).astype(points.dtype)
        if it < iterations - 1:
            yield from centers_pipe.write_blocking(centers)
        else:
            centers_out[:] = centers


class KMeans(AltisApp):
    name = "KMeans"
    configs = ("KMeans",)
    times_whole_program = True  # Altis times the full clustering run

    _N = {1: 32_768, 2: 131_072, 3: 524_288}
    FEATURES = 32
    CLUSTERS = 16

    # -- workloads ----------------------------------------------------------
    def nominal_dims(self, size: int) -> dict:
        self.check_size(size)
        return {"n": self._N[size], "d": self.FEATURES, "k": self.CLUSTERS,
                "iterations": ITERATIONS}

    def generate(self, size: int, *, seed: int = 0, scale: float = 1.0) -> Workload:
        dims = self.nominal_dims(size)
        n = self.scaled(dims["n"], scale, minimum=64)
        d, k = dims["d"], dims["k"]
        iters = dims["iterations"] if scale >= 1.0 else max(3, int(dims["iterations"] * scale * 10))
        rng = np.random.default_rng(seed)
        # k well-separated blobs
        blob_centers = rng.normal(0.0, 10.0, size=(k, d)).astype(np.float32)
        labels = rng.integers(0, k, size=n)
        points = blob_centers[labels] + rng.normal(0, 1.0, size=(n, d)).astype(np.float32)
        centers0 = points[rng.choice(n, size=k, replace=False)].copy()
        return Workload(
            app=self.name, size=size,
            arrays={
                "points": points.astype(np.float32),
                "centers0": centers0.astype(np.float32),
                "centers": np.zeros((k, d), dtype=np.float32),
                "assign": np.zeros(n, dtype=np.int32),
            },
            params={"n": n, "d": d, "k": k, "iterations": iters},
        )

    # -- functional ------------------------------------------------------------
    def reference(self, workload: Workload) -> dict[str, np.ndarray]:
        p = workload.params
        centers, assign = kmeans_reference(
            workload["points"], workload["centers0"], p["iterations"]
        )
        return {"centers": centers, "assign": assign}

    def kernels(self, variant: Variant = Variant.SYCL_OPT) -> dict[str, KernelSpec]:
        k, d = self.CLUSTERS, self.FEATURES
        fpga = variant in (Variant.FPGA_BASE, Variant.FPGA_OPT)
        wg = (1, 1, 64) if fpga else None
        map_nd = KernelSpec(
            name="mapCenters",
            kind=KernelKind.ND_RANGE,
            item_fn=_map_centers_item,
            vector_fn=_map_centers_vector,
            attributes=KernelAttributes(reqd_work_group_size=wg,
                                        max_work_group_size=wg),
            features={"body_fmas": 3 * 4, "body_ops": 3 * 8,
                      "global_access_sites": 3,
                      # migrated baseline: loop-carried distance
                      # accumulation stalls the item pipeline on FPGA
                      "variable_trip_loop": fpga},
        )
        reset = KernelSpec(name="reset", vector_fn=_reset_vector,
                           features={"body_fmas": 0, "body_ops": 2,
                                     "global_access_sites": 2})
        accumulate = KernelSpec(
            name="accumulate", vector_fn=_accumulate_vector,
            features={"body_fmas": 2, "body_ops": 6, "global_access_sites": 4},
        )
        finalize = KernelSpec(name="finalize", vector_fn=_finalize_vector,
                              features={"body_fmas": 1, "body_ops": 3,
                                        "global_access_sites": 3})
        map_st = KernelSpec(
            name="mapCenters_st",
            kind=KernelKind.SINGLE_TASK,
            item_fn=_map_centers_st,
            attributes=KernelAttributes(kernel_args_restrict=True,
                                        max_global_work_dim=0),
            loops=[LoopSpec("points", trip_count=1, initiation_interval=2,
                            speculated_iterations=0)],
            features={"body_fmas": d * 6, "body_ops": d * 10,
                      "global_access_sites": 2, "uses_pipes": True},
        )
        raf_st = KernelSpec(
            name="resetAccFin_st",
            kind=KernelKind.SINGLE_TASK,
            item_fn=_reset_acc_fin_st,
            attributes=KernelAttributes(kernel_args_restrict=True,
                                        max_global_work_dim=0),
            loops=[LoopSpec("points", trip_count=1, initiation_interval=1,
                            speculated_iterations=0)],
            features={"body_fmas": d, "body_ops": d * 2,
                      "global_access_sites": 2, "uses_pipes": True},
        )
        return {"mapCenters": map_nd, "reset": reset, "accumulate": accumulate,
                "finalize": finalize, "mapCenters_st": map_st,
                "resetAccFin_st": raf_st}

    def run_sycl(self, queue, workload: Workload,
                 variant: Variant = Variant.SYCL_OPT) -> dict[str, np.ndarray]:
        p = workload.params
        n, k, d, iters = p["n"], p["k"], p["d"], p["iterations"]
        points = workload["points"]
        centers = workload["centers"]
        centers[:] = workload["centers0"]
        assign = workload["assign"]
        ks = self.kernels(variant)

        prof_map, prof_upd = self._iteration_profiles(n, k, d)

        if variant is Variant.FPGA_OPT:
            from ..sycl.pipes import Pipe

            assign_pipe = Pipe("assign", capacity=8)
            centers_pipe = Pipe("centers_fb", capacity=2)
            out_centers = np.zeros_like(centers)
            # Fig. 3b: both engines launch once and run all iterations
            queue.dataflow(
                (ks["mapCenters_st"],
                 (points, workload["centers0"], assign_pipe, centers_pipe,
                  n, k, d, iters), prof_map.scaled(iters)),
                (ks["resetAccFin_st"],
                 (points, out_centers, assign, assign_pipe, centers_pipe,
                  n, k, d, iters), prof_upd.scaled(iters)))
            centers[:] = out_centers
            return {"centers": centers, "assign": assign}

        from ..sycl import NdRange, Range

        sums = np.zeros((k, d), dtype=np.float64)
        counts = np.zeros(k, dtype=np.int64)
        wg = 64
        gn = -(-n // wg) * wg
        nd = NdRange(Range(gn), Range(wg))
        for _ in range(iters):
            queue.parallel_for(nd, ks["mapCenters"], points, centers, assign,
                               n, k, d, profile=prof_map)
            queue.parallel_for(Range(k), ks["reset"], sums, counts, k, d,
                               profile=prof_upd)
            queue.parallel_for(Range(max(n, 1)), ks["accumulate"], points,
                               assign, sums, counts, n, profile=prof_upd)
            queue.parallel_for(Range(k), ks["finalize"], centers, sums,
                               counts, k, profile=prof_upd)
        return {"centers": centers, "assign": assign}

    # -- analytical ------------------------------------------------------------
    def _iteration_profiles(self, n, k, d) -> tuple[KernelProfile, KernelProfile]:
        map_prof = KernelProfile(
            name="mapCenters",
            flops=n * k * d * 3.0,
            global_bytes=n * d * 4 + n * 4 + k * d * 4,
            work_items=n,
            iters_per_item=k * d / 4.0,  # partially vectorized distance loop
            branch_divergence=0.10,
            compute_efficiency=0.12,  # gather + argmin limits SIMD use
            cpu_efficiency=0.03,      # CPU back-end: scalarized gathers
        )
        upd_prof = KernelProfile(
            name="update",
            flops=n * d * 1.0,
            global_bytes=n * d * 4 + n * 4 + 2 * k * d * 8,
            work_items=max(n, 1),
            branch_divergence=0.30,  # atomic contention on accumulators
            compute_efficiency=0.10,
            cpu_efficiency=0.03,
        )
        return map_prof, upd_prof

    def launch_plan(self, size: int, variant: Variant) -> LaunchPlan:
        dims = self.nominal_dims(size)
        n, k, d, iters = dims["n"], dims["k"], dims["d"], dims["iterations"]
        map_prof, upd_prof = self._iteration_profiles(n, k, d)
        plan = LaunchPlan(transfer_bytes=n * d * 4 + n * 4 + 2 * k * d * 4)
        plan.add(map_prof, iters)
        # reset+accumulate+finalize modeled as one update profile + the
        # two small launches' overhead via invocation count
        plan.add(upd_prof, iters)
        plan.add(upd_prof.with_(name="small_kernels", flops=k * d,
                                global_bytes=2 * k * d * 4, work_items=k),
                 2 * iters)
        return plan

    def fpga_setup(self, size: int, optimized: bool, device_key: str) -> FpgaSetup:
        from ..fpga.resources import Design, KernelDesign

        dims = self.nominal_dims(size)
        n, k, d, iters = dims["n"], dims["k"], dims["d"], dims["iterations"]
        ks = self.kernels(Variant.FPGA_OPT if optimized else Variant.FPGA_BASE)
        plan = LaunchPlan(transfer_bytes=n * d * 4 + n * 4)
        if not optimized:
            # Fig. 3a: four ND-range kernels per iteration via global memory
            map_prof = KernelProfile(
                name="mapCenters", flops=n * k * d * 3.0,
                global_bytes=n * d * 4 + n * 4, work_items=n,
                iters_per_item=k * d,  # sequential distance loop per item
                compute_efficiency=0.2,
            )
            upd_prof = KernelProfile(
                name="update", flops=n * d, global_bytes=2 * (n * d * 4 + n * 4),
                work_items=n, iters_per_item=d / 2,
                compute_efficiency=0.2,
            )
            small = KernelProfile(name="small", flops=k * d,
                                  global_bytes=2 * k * d * 4, work_items=k,
                                  compute_efficiency=0.2)
            plan.add(map_prof, iters).add(upd_prof, iters).add(small, 2 * iters)
            design = Design(f"kmeans_base_s{size}")
            for kn in ("mapCenters", "reset", "accumulate", "finalize"):
                design.add(KernelDesign(ks[kn]))
            kernels = {"mapCenters": ks["mapCenters"],
                       "update": ks["accumulate"], "small": ks["reset"]}
            return FpgaSetup(design=design, plan=plan, kernels=kernels)

        # Fig. 3b: dataflow pair launched once; mapCenters engine computes
        # one point's full k x d distance block every 2 cycles (unrolled
        # spatial datapath); resetAccFin overlaps behind the pipe.
        map_st = ks["mapCenters_st"]
        map_st = KernelSpec(
            name=map_st.name, kind=map_st.kind, item_fn=map_st.item_fn,
            attributes=map_st.attributes,
            loops=[LoopSpec("points", trip_count=n * iters,
                            initiation_interval=2, speculated_iterations=0)],
            features=map_st.features,
        )
        raf_st = ks["resetAccFin_st"]
        prof = KernelProfile(
            name="dataflow", flops=n * k * d * 3.0 * iters,
            global_bytes=(n * d * 4 + n * 4) * iters,
            work_items=n * iters, compute_efficiency=0.3,
        )
        plan.add(prof, 1)
        design = (Design(f"kmeans_opt_s{size}")
                  .add(KernelDesign(map_st, unroll=1))
                  .add(KernelDesign(raf_st)))
        return FpgaSetup(design=design, plan=plan,
                         kernels={"dataflow": map_st})

    def source_model(self) -> SourceModel:
        from ..dpct.source_model import Construct, SourceModel

        return SourceModel(
            app=self.name,
            lines_of_code=2_900,
            constructs=[
                Construct("kernel_def", 4),
                Construct("cuda_event_timing", 18),
                Construct("usm_mem_advise", 14),
                Construct("syncthreads", 22, local_scope_detectable=True),
                Construct("syncthreads", 8),
                Construct("dpct_helper_use", 12),
                Construct("generic_api", 120),
                Construct("cmake_command", 2),
            ],
        )
