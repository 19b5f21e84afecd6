"""NW — Needleman-Wunsch DNA sequence alignment (Altis Level-2).

Dynamic-programming global alignment: ``score[i,j] = max(diag + sim(i,j),
up - penalty, left - penalty)``, computed as a block wavefront — each
work-group processes one BLOCK x BLOCK tile in shared memory, sweeping
the tile's anti-diagonals with a barrier per step (the classic
Rodinia/Altis formulation DPCT migrates verbatim).

Paper relevance:

* §3.3: Clang refuses to inline NW's sizable kernel helper unless
  ``-finlining-threshold=10000`` is passed — the baseline SYCL runs ~2x
  slower (Fig. 2: 0.57-0.7 baseline vs ~1.0-1.2 optimized);
* §5.2 case 3: the tile's access pattern prevents banking, so the FPGA
  compiler inserts **arbiters** that stall the pipeline and cap Fmax
  (Table 3: 216 MHz on Stratix 10 — the lowest ND-range clock);
  unrolling over this memory violates timing, so NW stays un-unrolled;
* §5.5: compute-unit replication retuned 16x (Stratix 10) -> 8x (Agilex);
* Fig. 5: NW on FPGA is the paper's bandwidth/arbitration cautionary
  tale — about half the *CPU's* performance at sizes 2-3.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .._exports import lazy_module
from ..perfmodel.profile import KernelProfile, LaunchPlan
from ..sycl.local_memory import LocalAccessor
from ..sycl.kernel import KernelAttributes, KernelKind, KernelSpec
from ..sycl.ndrange import FenceSpace
from .base import AltisApp, FpgaSetup, Variant, Workload

np = lazy_module("numpy")

if TYPE_CHECKING:  # pragma: no cover
    from ..dpct.source_model import SourceModel

__all__ = ["NW", "nw_reference"]

PENALTY = 10
ALPHABET = 24  # BLOSUM-like alphabet size
BLOCK = 16     # tile edge (Altis default)


def _similarity(seq_a: np.ndarray, seq_b: np.ndarray, blosum: np.ndarray) -> np.ndarray:
    """sim[i, j] = blosum[a[i], b[j]] for 0-based sequence positions."""
    return blosum[np.ix_(seq_a, seq_b)]


def nw_reference(seq_a: np.ndarray, seq_b: np.ndarray, blosum: np.ndarray,
                 penalty: int = PENALTY) -> np.ndarray:
    """Ground-truth DP matrix ((n+1) x (n+1), int32), anti-diagonal
    vectorized."""
    n = len(seq_a)
    m = len(seq_b)
    sim = _similarity(seq_a, seq_b, blosum)
    score = np.zeros((n + 1, m + 1), dtype=np.int32)
    score[0, :] = -penalty * np.arange(m + 1)
    score[:, 0] = -penalty * np.arange(n + 1)
    for d in range(2, n + m + 1):
        i_lo = max(1, d - m)
        i_hi = min(n, d - 1)
        if i_lo > i_hi:
            continue
        i = np.arange(i_lo, i_hi + 1)
        j = d - i
        diag = score[i - 1, j - 1] + sim[i - 1, j - 1]
        up = score[i - 1, j] - penalty
        left = score[i, j - 1] - penalty
        score[i, j] = np.maximum(diag, np.maximum(up, left))
    return score


# -- kernels ----------------------------------------------------------------

def _block_item(item, score, sim, tile, penalty, diag_idx, nb, n, block):
    """One work-group computes one tile of the current block diagonal.

    Work-group shape: ``block`` work-items; tile anti-diagonals are
    separated by local barriers (the migrated kernel's __syncthreads).
    The tile — halo row/column included — is a ``LocalAccessor``
    argument.  Off-diagonal work-items compute through a clamped column
    index and only the in-range lanes store, so every lane runs the
    same arithmetic and the score matrix stays bitwise equal to the
    ``vector_fn``'s (unwritten tile cells read as zeros).
    """
    g = item.get_group(0)
    tx = item.get_local_id(0)
    # block coordinates on this block-diagonal
    bi = (min(diag_idx, nb - 1) - g) if diag_idx < nb else (nb - 1 - g)
    bj = diag_idx - bi
    base_i = bi * block
    base_j = bj * block
    # stage halo + interior column-wise by this thread
    tile[0, tx + 1] = score[base_i, base_j + tx + 1]
    tile[tx + 1, 0] = score[base_i + tx + 1, base_j]
    if tx == 0:
        tile[0, 0] = score[base_i, base_j]
    yield item.barrier(FenceSpace.LOCAL)
    # tile wavefront: 2*block-1 internal diagonals; a work-item is on
    # the current diagonal when 0 <= d - tx < block
    for d in range(2 * block - 1):
        lj = d - tx
        ljc = np.clip(lj, 0, block - 1)
        s = sim[base_i + tx, base_j + ljc]
        val = max(
            tile[tx, ljc] + s,
            tile[tx, ljc + 1] - penalty,
            tile[tx + 1, ljc] - penalty,
        )
        if 0 <= lj < block:
            tile[tx + 1, ljc + 1] = val
        yield item.barrier(FenceSpace.LOCAL)
    # write back this thread's row
    for lj in range(block):
        score[base_i + tx + 1, base_j + lj + 1] = tile[tx + 1, lj + 1]


def _block_vector(nd_range, score, sim, tile_acc, penalty, diag_idx, nb, n, block):
    """Every tile of the current block diagonal, one after another.

    A tile row is at most ``block`` cells, far below the length where
    numpy's per-call overhead amortizes, so each tile is staged from
    ``score`` into native-int rows, swept row by row (every cell after
    its upper, left and diagonal neighbours, the same recurrence as the
    work-item form's anti-diagonal sweep) and written back as one block
    assignment.  The arithmetic is int32 max/add, so the result is exact.
    """
    for g in range(nd_range.group_range()[0]):
        bi = (min(diag_idx, nb - 1) - g) if diag_idx < nb else (nb - 1 - g)
        bj = diag_idx - bi
        i0 = bi * block
        j0 = bj * block
        above = score[i0, j0:j0 + block + 1].tolist()
        halo = score[i0 + 1:i0 + block + 1, j0].tolist()
        rows = []
        for sim_row, left in zip(sim[i0:i0 + block, j0:j0 + block].tolist(),
                                 halo):
            row = [left]
            for lj in range(block):
                val = above[lj] + sim_row[lj]
                up = above[lj + 1] - penalty
                if up > val:
                    val = up
                left -= penalty
                if left > val:
                    val = left
                row.append(val)
                left = val
            rows.append(row[1:])
            above = row
        score[i0 + 1:i0 + block + 1, j0 + 1:j0 + block + 1] = rows


class NW(AltisApp):
    name = "NW"
    configs = ("NW",)
    times_whole_program = False

    _N = {1: 2048, 2: 4096, 3: 8192}
    _FPGA_REPLICATION = {"stratix10": 16, "agilex": 8}  # §5.5

    def nominal_dims(self, size: int) -> dict:
        self.check_size(size)
        n = self._N[size]
        return {"n": n, "block": BLOCK, "penalty": PENALTY}

    def generate(self, size: int, *, seed: int = 0, scale: float = 1.0) -> Workload:
        dims = self.nominal_dims(size)
        block = dims["block"] if scale >= 1.0 else 8
        n = self.scaled(dims["n"], scale, minimum=2 * block)
        n = (n // block) * block
        rng = np.random.default_rng(seed)
        seq_a = rng.integers(0, ALPHABET, size=n, dtype=np.int64)
        seq_b = rng.integers(0, ALPHABET, size=n, dtype=np.int64)
        blosum = rng.integers(-4, 12, size=(ALPHABET, ALPHABET), dtype=np.int32)
        blosum = ((blosum + blosum.T) // 2).astype(np.int32)  # symmetric
        return Workload(
            app=self.name, size=size,
            arrays={"seq_a": seq_a, "seq_b": seq_b, "blosum": blosum,
                    "score": np.zeros((n + 1, n + 1), dtype=np.int32)},
            params={"n": n, "block": block, "penalty": dims["penalty"]},
        )

    def reference(self, workload: Workload) -> dict[str, np.ndarray]:
        return {"score": nw_reference(workload["seq_a"], workload["seq_b"],
                                      workload["blosum"],
                                      workload.params["penalty"])}

    def kernels(self, variant: Variant = Variant.SYCL_OPT) -> dict[str, KernelSpec]:
        fpga = variant in (Variant.FPGA_BASE, Variant.FPGA_OPT)
        tile_bytes = (BLOCK + 1) * (BLOCK + 1) * 4
        # DPCT baseline keeps the dynamically-sized accessor (16 KiB
        # assumed); the FPGA-optimized version switches to
        # group_local_memory_for_overwrite (static)
        static = variant is not Variant.FPGA_BASE
        block_kernel = KernelSpec(
            name="needle_block",
            kind=KernelKind.ND_RANGE,
            item_fn=_block_item,
            vector_fn=_block_vector,
            attributes=KernelAttributes(
                reqd_work_group_size=(1, 1, BLOCK) if fpga else None,
                max_work_group_size=(1, 1, BLOCK) if fpga else None,
            ),
            features={
                "body_fmas": 0, "body_ops": 10, "global_access_sites": 4,
                "local_memories": [
                    {"bytes": tile_bytes, "static": static, "ports": 4,
                     "bankable": False},  # §5.2 case 3
                    {"bytes": BLOCK * BLOCK * 4, "static": static,
                     "ports": 2, "bankable": True},
                ],
            },
        )
        return {"needle_block": block_kernel}

    def run_sycl(self, queue, workload: Workload,
                 variant: Variant = Variant.SYCL_OPT) -> dict[str, np.ndarray]:
        from ..sycl import NdRange, Range

        p = workload.params
        n, block, penalty = p["n"], p["block"], p["penalty"]
        nb = n // block
        score = workload["score"]
        score[0, :] = -penalty * np.arange(n + 1)
        score[:, 0] = -penalty * np.arange(n + 1)
        sim = _similarity(workload["seq_a"], workload["seq_b"],
                          workload["blosum"]).astype(np.int32)
        ks = self.kernels(variant)
        kern = ks["needle_block"]
        prof = self._profile(n, block)
        tile = LocalAccessor((block + 1, block + 1), np.int32)
        for diag_idx in range(2 * nb - 1):
            blocks = (diag_idx + 1) if diag_idx < nb else (2 * nb - 1 - diag_idx)
            nd = NdRange(Range(blocks * block), Range(block))
            # relax the FPGA wg attributes for the scaled functional run
            launch_kernel = kern
            if kern.attributes.reqd_work_group_size is not None and block != BLOCK:
                launch_kernel = kern.with_attributes(
                    reqd_work_group_size=(1, 1, block),
                    max_work_group_size=(1, 1, block))
            queue.parallel_for(nd, launch_kernel, score, sim, tile, penalty,
                               diag_idx, nb, n, block, profile=prof)
        return {"score": score}

    # -- analytical ------------------------------------------------------------
    def _profile(self, n: int, block: int) -> KernelProfile:
        """Average per-launch profile across the wavefront (the figures
        time whole runs; per-launch variation averages out)."""
        nb = n // block
        cells_total = n * n
        launches = 2 * nb - 1
        cells = cells_total / launches
        return KernelProfile(
            name="needle_block",
            flops=cells * 6.0,
            global_bytes=cells * 4 * 3.0,  # tile in/out + sim row
            # one thread per tile row; each sweeps 2*block diagonals
            work_items=max(block, int(cells / block)),
            iters_per_item=2.0 * block,
            local_accesses=cells * 5.0,
            branch_divergence=0.45,  # half the tile diagonal is idle
            compute_efficiency=0.10,
            cpu_efficiency=0.05,
        )

    def launch_plan(self, size: int, variant: Variant) -> LaunchPlan:
        dims = self.nominal_dims(size)
        n, block = dims["n"], dims["block"]
        nb = n // block
        prof = self._profile(n, block)
        plan = LaunchPlan(transfer_bytes=(n + 1) * (n + 1) * 4 * 2)
        plan.add(prof, 2 * nb - 1)
        return plan

    def fpga_setup(self, size: int, optimized: bool, device_key: str) -> FpgaSetup:
        from ..fpga.resources import Design, KernelDesign

        dims = self.nominal_dims(size)
        n, block = dims["n"], dims["block"]
        nb = n // block
        variant = Variant.FPGA_OPT if optimized else Variant.FPGA_BASE
        kern = self.kernels(variant)["needle_block"]
        prof = self._profile(n, block)
        plan = LaunchPlan(transfer_bytes=0)
        plan.add(prof, 2 * nb - 1)
        if optimized:
            repl = self._FPGA_REPLICATION[device_key]
            design = Design(f"nw_opt_s{size}").add(
                KernelDesign(kern, replication=repl))
            return FpgaSetup(design=design, plan=plan,
                             kernels={"needle_block": (kern, repl)})
        # DPCT baseline: dynamically-sized accessors + global-scope
        # fences leave the tile pipeline mostly stalled
        base_prof = prof.with_(iters_per_item=prof.iters_per_item * 2.5)
        plan = LaunchPlan(transfer_bytes=0)
        plan.add(base_prof, 2 * nb - 1)
        design = Design(f"nw_base_s{size}", dpct_headers=True).add(
            KernelDesign(kern))
        return FpgaSetup(design=design, plan=plan,
                         kernels={"needle_block": (kern, 1)})

    def variant_traits(self, variant: Variant, config: str | None = None):
        from ..perfmodel.traits import ImplVariant

        traits: tuple[str, ...] = ()
        if variant is Variant.SYCL_BASELINE:
            # §3.3: un-inlined kernel helper until the threshold is raised
            traits = ("missing_inline", "barrier_global_scope")
        return ImplVariant(name=f"{self.name}:{variant.value}",
                           runtime=variant.runtime, traits=traits)

    def source_model(self) -> SourceModel:
        from ..dpct.source_model import Construct, SourceModel

        return SourceModel(
            app=self.name,
            lines_of_code=1_750,
            constructs=[
                Construct("kernel_def", 2),
                Construct("cuda_event_timing", 8),
                Construct("usm_mem_advise", 10),
                Construct("syncthreads", 66),  # tile diagonals x 2 kernels
                Construct("dpct_helper_use", 8),
                Construct("generic_api", 70),
                Construct("cmake_command", 2),
            ],
        )
