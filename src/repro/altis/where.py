"""Where — record filtering for data analytics (Altis Level-2).

Three phases: ``mark`` evaluates the predicate per record, a prefix sum
over the match flags computes output offsets, and ``scatter`` compacts
matching records into the output.

Paper relevance:

* §3.3: DPCT migrates the CUDA (CUB-based) prefix sum to **oneDPL's
  exclusive_scan**, which is 50% slower on the RTX 2080 — the only app
  whose optimized SYCL version underperforms CUDA at every size
  (Fig. 2: ~0.3x).  Mechanism modeled: CUB's single-pass
  decoupled-lookback scan touches the data ~once; oneDPL's multi-pass
  scan costs ~3 passes at lower efficiency.
* §5.3 (Listing 2): for FPGAs a **custom single-task prefix sum**
  (``#pragma unroll 2``, ``kernel_args_restrict``) replaces the
  GPU-tuned oneDPL version — up to **100x** faster on Stratix 10.
* §5.5: Where crashes at size 3 on Agilex (reproduced as a modeled
  runtime failure), so those bars are absent from Fig. 5.
* Table 3: "ND-Range & Single-Task" — mark/scatter stay ND-range; the
  scan is single-task.  Replication retuned 2->4 and 20->25 on Agilex.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._exports import lazy_module
from ..common.errors import KernelLaunchError
from ..perfmodel.profile import KernelProfile, LaunchPlan
from ..sycl.kernel import KernelAttributes, KernelKind, KernelSpec, LoopSpec
from .base import AltisApp, FpgaSetup, Variant, Workload

np = lazy_module("numpy")

if TYPE_CHECKING:  # pragma: no cover
    from ..dpct.source_model import SourceModel

__all__ = ["Where", "where_reference", "custom_fpga_prefix_sum"]

#: predicate: select records whose key field falls below the threshold
THRESHOLD = 0.35
FIELDS = 4  # record width (int32 fields); field 0 is the key


def where_reference(records: np.ndarray, threshold: float = THRESHOLD
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(matching rows, exclusive prefix of flags) ground truth."""
    keys = records[:, 0].astype(np.float64) / np.iinfo(np.int32).max
    flags = (keys < threshold).astype(np.int32)
    prefix = np.zeros_like(flags)
    np.cumsum(flags[:-1], out=prefix[1:])
    return records[flags.astype(bool)], prefix


def custom_fpga_prefix_sum(results: np.ndarray, unroll: int = 2) -> np.ndarray:
    """Listing 2's single-task exclusive scan, functionally.

    The unroll factor only affects hardware shape; functionally this is
    the sequential dependence chain ``prefix[i] = prefix[i-1]+results[i]``
    (note Listing 2 scans ``results[i]``, an *inclusive-shifted* variant;
    we keep the standard exclusive semantics used by the scatter phase).
    """
    out = np.zeros_like(results)
    np.cumsum(results[:-1], out=out[1:])
    return out


# -- kernels -------------------------------------------------------------------

def _mark_item(item, records, flags, n, threshold):
    i = item.get_global_linear_id()
    if i >= n:
        return
    # int32 values are exact in float64, so dividing by a float64 max is
    # bit-identical to float(...)/int and to the vector_fn's division
    key = records[i, 0] / np.float64(np.iinfo(np.int32).max)
    flags[i] = 1 if key < threshold else 0


def _mark_vector(nd_range, records, flags, n, threshold):
    keys = records[:n, 0].astype(np.float64) / np.iinfo(np.int32).max
    flags[:n] = (keys < threshold).astype(np.int32)


def _scatter_item(item, records, flags, prefix, out, n):
    i = item.get_global_linear_id()
    if i >= n:
        return
    if flags[i]:
        out[prefix[i]] = records[i]


def _scatter_vector(nd_range, records, flags, prefix, out, n):
    sel = flags[:n].astype(bool)
    out[prefix[:n][sel]] = records[:n][sel]


def _scan_single_task(results, prefix, size):
    prefix[0] = 0
    np.cumsum(results[:size - 1], out=prefix[1:size])


class Where(AltisApp):
    name = "Where"
    configs = ("Where",)
    times_whole_program = True

    _N = {1: 1 << 22, 2: 1 << 24, 3: 1 << 26}
    #: compute-unit replication of mark/scatter (§5.5 retuning)
    _FPGA_TUNING = {"stratix10": (2, 20), "agilex": (4, 25)}

    def nominal_dims(self, size: int) -> dict:
        self.check_size(size)
        return {"n": self._N[size], "fields": FIELDS}

    def generate(self, size: int, *, seed: int = 0, scale: float = 1.0) -> Workload:
        dims = self.nominal_dims(size)
        n = self.scaled(dims["n"], scale, minimum=32)
        rng = np.random.default_rng(seed)
        records = rng.integers(0, np.iinfo(np.int32).max, size=(n, FIELDS),
                               dtype=np.int32)
        return Workload(
            app=self.name, size=size,
            arrays={
                "records": records,
                "flags": np.zeros(n, dtype=np.int32),
                "prefix": np.zeros(n, dtype=np.int32),
                "out": np.zeros((n, FIELDS), dtype=np.int32),
            },
            params={"n": n, "threshold": THRESHOLD},
        )

    def reference(self, workload: Workload) -> dict[str, np.ndarray]:
        matched, prefix = where_reference(workload["records"],
                                          workload.params["threshold"])
        return {"matched": matched, "prefix": prefix}

    def kernels(self, variant: Variant = Variant.SYCL_OPT) -> dict[str, KernelSpec]:
        fpga = variant in (Variant.FPGA_BASE, Variant.FPGA_OPT)
        wg = (1, 1, 128) if fpga else None
        mark = KernelSpec(
            name="mark", item_fn=_mark_item, vector_fn=_mark_vector,
            attributes=KernelAttributes(reqd_work_group_size=wg,
                                        max_work_group_size=wg),
            features={"body_fmas": 1, "body_ops": 4, "global_access_sites": 2},
        )
        scatter = KernelSpec(
            name="scatter", item_fn=_scatter_item, vector_fn=_scatter_vector,
            attributes=KernelAttributes(reqd_work_group_size=wg,
                                        max_work_group_size=wg),
            features={"body_fmas": 0, "body_ops": 4, "global_access_sites": 4},
        )
        scan = KernelSpec(
            name="exclusive_scan_id",  # Listing 2's kernel name
            kind=KernelKind.SINGLE_TASK,
            vector_fn=_scan_single_task,
            attributes=KernelAttributes(kernel_args_restrict=True,
                                        max_global_work_dim=0,
                                        no_global_work_offset=True),
            # loop-carried prefix dependence: II=2, halved by unroll 2
            loops=[LoopSpec("scan", trip_count=1, unroll=2,
                            initiation_interval=2, speculated_iterations=0)],
            features={"body_fmas": 0, "body_ops": 2, "global_access_sites": 2},
        )
        return {"mark": mark, "scatter": scatter, "scan": scan}

    def run_sycl(self, queue, workload: Workload,
                 variant: Variant = Variant.SYCL_OPT) -> dict[str, np.ndarray]:
        from ..sycl import NdRange, Range, onedpl

        p = workload.params
        n = p["n"]
        records, flags = workload["records"], workload["flags"]
        prefix, out = workload["prefix"], workload["out"]
        ks = self.kernels(variant)
        wg = 128
        gn = -(-n // wg) * wg
        nd = NdRange(Range(gn), Range(wg))
        mark_prof, scan_prof, scatter_prof = self._profiles(n, variant)
        queue.parallel_for(nd, ks["mark"], records, flags, n, p["threshold"],
                           profile=mark_prof)
        if variant in (Variant.FPGA_BASE, Variant.FPGA_OPT) and variant is Variant.FPGA_OPT:
            queue.single_task(ks["scan"], flags, prefix, n, profile=scan_prof)
        else:
            prefix[:n] = onedpl.exclusive_scan(flags[:n], queue=queue)
        queue.parallel_for(nd, ks["scatter"], records, flags, prefix, out, n,
                           profile=scatter_prof)
        n_match = int(flags[:n].sum())
        return {"matched": out[:n_match].copy(), "prefix": prefix[:n].copy()}

    # -- analytical ---------------------------------------------------------
    def _profiles(self, n: int, variant: Variant):
        rec_bytes = n * FIELDS * 4
        mark = KernelProfile(
            name="mark", flops=n * 2.0, global_bytes=rec_bytes + n * 4,
            work_items=n, compute_efficiency=0.3, cpu_efficiency=0.08,
            cpu_bw_efficiency=0.30,
        )
        if variant is Variant.CUDA:
            # CUB: single-pass decoupled-lookback scan
            scan = KernelProfile(name="scan", flops=n, global_bytes=2 * n * 4,
                                 work_items=n, compute_efficiency=0.3,
                                 cpu_efficiency=0.08, cpu_bw_efficiency=0.30)
        elif variant is Variant.FPGA_OPT:
            scan = KernelProfile(name="exclusive_scan_id", flops=n,
                                 global_bytes=2 * n * 4, work_items=1,
                                 iters_per_item=n / 2.0,  # unroll 2
                                 compute_efficiency=0.3)
        else:
            # oneDPL: multi-pass (local scan + block sums + propagate)
            scan = KernelProfile(name="scan", flops=2 * n,
                                 global_bytes=6 * n * 4, work_items=n,
                                 compute_efficiency=0.15, cpu_efficiency=0.08,
                                 cpu_bw_efficiency=0.30)
        scatter = KernelProfile(
            name="scatter", flops=n, global_bytes=rec_bytes + 2 * n * 4
            + int(THRESHOLD * rec_bytes),
            work_items=n, branch_divergence=0.4,
            compute_efficiency=0.25, cpu_efficiency=0.08,
            cpu_bw_efficiency=0.30,
        )
        return mark, scan, scatter

    def launch_plan(self, size: int, variant: Variant) -> LaunchPlan:
        n = self.nominal_dims(size)["n"]
        mark, scan, scatter = self._profiles(n, variant)
        # Altis' Where pre-stages the table on the device; the timed
        # region covers the three phases only
        plan = LaunchPlan(transfer_bytes=0)
        plan.add(mark, 1)
        # oneDPL scan internally launches ~3 kernels
        plan.add(scan, 1 if variant in (Variant.CUDA, Variant.FPGA_OPT) else 3)
        plan.add(scatter, 1)
        return plan

    def fpga_setup(self, size: int, optimized: bool, device_key: str) -> FpgaSetup:
        from ..fpga.resources import Design, KernelDesign

        dims = self.nominal_dims(size)
        n = dims["n"]
        if device_key == "agilex" and size == 3:
            # §5.5: "execution attempts of Where with size 3 resulted in
            # crashes on Agilex"
            raise KernelLaunchError(
                "Where size 3 crashes on Agilex (paper §5.5); no datapoint"
            )
        variant = Variant.FPGA_OPT if optimized else Variant.FPGA_BASE
        ks = self.kernels(variant)
        mark_prof, scan_prof, scatter_prof = self._profiles(n, variant)
        plan = LaunchPlan(transfer_bytes=0)
        design = Design(f"where_{'opt' if optimized else 'base'}_s{size}")
        if optimized:
            scan_repl, markscatter_repl = self._FPGA_TUNING[device_key]
            scan_kernel = KernelSpec(
                name="exclusive_scan_id", kind=KernelKind.SINGLE_TASK,
                vector_fn=_scan_single_task,
                attributes=ks["scan"].attributes,
                loops=[LoopSpec("scan", trip_count=n, unroll=2,
                                initiation_interval=2, speculated_iterations=0)],
                features=ks["scan"].features,
            )
            design.add(KernelDesign(ks["mark"], replication=markscatter_repl))
            design.add(KernelDesign(scan_kernel, replication=scan_repl, unroll=2))
            design.add(KernelDesign(ks["scatter"], replication=markscatter_repl))
            plan.add(mark_prof, 1).add(scan_prof, 1).add(scatter_prof, 1)
            # mark/scatter are replicated; the scan is a serial
            # dependence chain (its design replication buys resources,
            # not single-stream throughput)
            kernels = {"mark": (ks["mark"], markscatter_repl),
                       "exclusive_scan_id": (scan_kernel, 1),
                       "scatter": (ks["scatter"], markscatter_repl)}
            return FpgaSetup(design=design, plan=plan, kernels=kernels)
        # baseline: oneDPL scan synthesized for FPGA — GPU-tuned work-group
        # decomposition collapses on in-order pipelines (§5.3: the custom
        # scan is ~100x faster)
        onedpl_scan = KernelSpec(
            name="scan", kind=KernelKind.ND_RANGE,
            vector_fn=lambda nd, *a: None,
            features={"body_fmas": 0, "body_ops": 4, "global_access_sites": 6,
                      "variable_trip_loop": True,
                      "local_memories": [
                          {"bytes": 2048, "static": False, "ports": 4,
                           "bankable": False}],
                      },
        )
        scan_base = scan_prof.with_(
            name="scan", work_items=n,
            iters_per_item=8.0,  # hierarchical scan passes per element
            branch_divergence=0.5,
        )
        design.add(KernelDesign(ks["mark"]))
        design.add(KernelDesign(onedpl_scan))
        design.add(KernelDesign(ks["scatter"]))
        plan.add(mark_prof, 1).add(scan_base, 3).add(scatter_prof, 1)
        kernels = {"mark": ks["mark"], "scan": onedpl_scan,
                   "scatter": ks["scatter"]}
        return FpgaSetup(design=design, plan=plan, kernels=kernels)

    def variant_traits(self, variant: Variant, config: str | None = None):
        from ..perfmodel.traits import ImplVariant

        traits: tuple[str, ...] = ()
        if variant in (Variant.SYCL_BASELINE, Variant.SYCL_OPT):
            traits = ("onedpl_scan",)  # §3.3: both keep oneDPL on GPU
        if variant is Variant.SYCL_BASELINE:
            traits = traits + ("barrier_global_scope",)
        iv = ImplVariant(name=f"{self.name}:{variant.value}",
                         runtime=variant.runtime, traits=())
        # scope the scan penalty to the scan profile only
        return ImplVariant(
            name=iv.name, runtime=iv.runtime, traits=(),
            per_kernel={"scan": traits},
        )

    def source_model(self) -> SourceModel:
        from ..dpct.source_model import Construct, SourceModel

        return SourceModel(
            app=self.name,
            lines_of_code=1_400,
            constructs=[
                Construct("kernel_def", 3),
                Construct("cuda_event_timing", 8),
                Construct("usm_mem_advise", 8),
                Construct("thrust_scan", 2),
                Construct("generic_api", 60),
                Construct("cmake_command", 2),
            ],
        )
