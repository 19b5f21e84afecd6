"""Mandelbrot — fractal image computation (Altis Level-2).

Algorithm: per pixel, iterate ``z <- z^2 + c`` until escape
(``|z| > 2``) or the iteration cap; the output is the escape count.

Paper relevance:

* §5.3 loop optimizations use Mandelbrot as the running example: the
  per-pixel escape loop's exit condition lands on the critical path, and
  the compiler's default of **4 speculated iterations** wastes up to
  ``rows x cols x 4`` cycles; the fix is
  ``[[intel::speculated_iterations(0)]]`` on the escape loop.
* Fig. 4 (size 3): ~476x FPGA optimized-vs-baseline — single-task
  rewrite with unrolled pixel engines and compute-unit replication vs
  the migrated ND-range baseline.
* Table 3: three separate bitstreams, one per input size, each with its
  own replication/unroll combination.
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

__all__ = ["Mandelbrot", "mandelbrot_reference"]

#: escape-iteration cap (Altis default)
MAX_ITERS = 256
#: average fraction of the cap a pixel actually iterates (measured on
#: the standard view rectangle; used only by the performance model)
AVG_ITER_FRACTION = 0.22

_VIEW = (-2.0, 0.75, -1.375, 1.375)  # x0, x1, y0, y1


def mandelbrot_reference(width: int, height: int, max_iters: int = MAX_ITERS) -> np.ndarray:
    """Vectorized numpy ground truth: escape counts, dtype int32.

    A pixel's count is the iteration at which its orbit escapes, or
    ``max_iters`` if it never does.  Only live pixels are iterated: the
    flat state arrays are compacted each time some pixel escapes.
    Real-pair float32 arithmetic in the device kernel's operation order,
    ``(zx*zx - zy*zy) + cx`` and ``(2*zx)*zy + cy``, so the per-item
    form (:func:`_kernel_item`) is bit-identical.
    """
    x0, x1, y0, y1 = _VIEW
    xs = np.linspace(x0, x1, width, dtype=np.float32)
    ys = np.linspace(y0, y1, height, dtype=np.float32)
    cx = np.tile(xs, height)
    cy = np.repeat(ys, width)
    counts = np.full(width * height, max_iters, dtype=np.int32)
    live = np.arange(width * height)
    zx = np.zeros_like(cx)
    zy = np.zeros_like(cx)
    zx2 = zy2 = zx
    two = np.float32(2.0)
    four = np.float32(4.0)
    for i in range(max_iters):
        if not live.size:
            break
        zy = two * zx * zy + cy
        zx = zx2 - zy2 + cx
        zx2 = zx * zx
        zy2 = zy * zy
        escaped = zx2 + zy2 > four
        if escaped.any():
            counts[live[escaped]] = i
            keep = ~escaped
            live, cx, cy = live[keep], cx[keep], cy[keep]
            zx, zy, zx2, zy2 = zx[keep], zy[keep], zx2[keep], zy2[keep]
    return counts.reshape(height, width)


def _kernel_item(item, out, width, height, max_iters):
    """ND-range SYCL kernel, one pixel per work-item.

    The escape loop keeps the masked early-exit form that the compacted
    :func:`mandelbrot_reference` is tested against: ``alive`` freezes
    ``z`` and the count once the orbit escapes, instead of ``break``.
    It is bit-identical to the break form, and so to the compacted
    ``vector_fn``, because a frozen ``z`` keeps ``escaped`` true for
    every later iteration.
    """
    gy = item.get_global_id(0)
    gx = item.get_global_id(1)
    if gx >= width or gy >= height:
        return
    # float32 arithmetic throughout, matching the device kernels; the
    # clamp keeps over-provisioned lanes (width rounded up to the
    # work-group size) in bounds of the coordinate table — it never
    # changes gx for lanes that survive the guard above
    x0, x1, y0, y1 = _VIEW
    gxc = np.minimum(gx, width - 1)
    cx = np.linspace(x0, x1, width, dtype=np.float32)[gxc]
    cy = np.linspace(y0, y1, height, dtype=np.float32)[gy]
    zx = np.float32(0.0)
    zy = np.float32(0.0)
    two = np.float32(2.0)
    four = np.float32(4.0)
    # counted in the buffer's int32, so the store never narrows
    one = np.int32(1)
    zero = np.int32(0)
    count = zero
    alive = True
    for _ in range(max_iters):
        nzx = zx * zx - zy * zy + cx
        nzy = two * zx * zy + cy
        zx = np.where(alive, nzx, zx)
        zy = np.where(alive, nzy, zy)
        escaped = zx * zx + zy * zy > four
        alive = np.logical_and(alive, np.logical_not(escaped))
        count = count + np.where(alive, one, zero)
    out[gy, gx] = count


def _kernel_vector(nd_range, out, width, height, max_iters):
    """Vectorized whole-range fast path."""
    out[:height, :width] = mandelbrot_reference(width, height, max_iters)


def _kernel_single_task(out, width, height, max_iters):
    """Single-task FPGA form: row/col loops around the escape loop."""
    out[:height, :width] = mandelbrot_reference(width, height, max_iters)


class Mandelbrot(AltisApp):
    name = "Mandelbrot"
    configs = ("Mandelbrot",)
    times_whole_program = False

    _DIMS = {1: 2048, 2: 4096, 3: 8192}
    #: Table 3 gives one bitstream per size; (replication, unroll)
    _FPGA_TUNING = {
        "stratix10": {1: (20, 16), 2: (24, 16), 3: (24, 16)},
        "agilex": {1: (12, 16), 2: (14, 16), 3: (14, 16)},
    }

    # -- workloads ----------------------------------------------------------
    def nominal_dims(self, size: int) -> dict:
        self.check_size(size)
        n = self._DIMS[size]
        return {"width": n, "height": n, "max_iters": MAX_ITERS}

    def generate(self, size: int, *, seed: int = 0, scale: float = 1.0) -> Workload:
        dims = self.nominal_dims(size)
        w = self.scaled(dims["width"], scale)
        h = self.scaled(dims["height"], scale)
        return Workload(
            app=self.name,
            size=size,
            arrays={"out": np.zeros((h, w), dtype=np.int32)},
            params={"width": w, "height": h, "max_iters": dims["max_iters"]},
        )

    # -- functional --------------------------------------------------------
    def reference(self, workload: Workload) -> dict[str, np.ndarray]:
        p = workload.params
        return {"out": mandelbrot_reference(p["width"], p["height"], p["max_iters"])}

    def kernels(self, variant: Variant = Variant.SYCL_OPT) -> dict[str, KernelSpec]:
        escape_ops = 10  # flops of one escape-loop iteration
        nd = KernelSpec(
            name="mandel_ndrange",
            kind=KernelKind.ND_RANGE,
            item_fn=_kernel_item,
            vector_fn=_kernel_vector,
            attributes=KernelAttributes(
                reqd_work_group_size=(1, 1, 16) if variant in
                (Variant.FPGA_BASE, Variant.FPGA_OPT) else None,
                max_work_group_size=(1, 1, 16) if variant in
                (Variant.FPGA_BASE, Variant.FPGA_OPT) else None,
            ),
            features={"body_fmas": 9, "body_ops": escape_ops,
                      "global_access_sites": 1, "deep_control_flow": False,
                      "variable_trip_loop": True},
        )
        st = KernelSpec(
            name="mandel_single_task",
            kind=KernelKind.SINGLE_TASK,
            vector_fn=_kernel_single_task,
            attributes=KernelAttributes(
                kernel_args_restrict=True, max_global_work_dim=0,
                no_global_work_offset=True,
            ),
            loops=[
                LoopSpec("rows", trip_count=8192, speculated_iterations=2),
                LoopSpec("cols", trip_count=8192, nested_in="rows",
                         speculated_iterations=2),
                LoopSpec("escape", trip_count=int(MAX_ITERS * AVG_ITER_FRACTION),
                         nested_in="cols", speculated_iterations=4),
            ],
            features={"body_fmas": 9, "body_ops": escape_ops,
                      "global_access_sites": 1},
        )
        return {"ndrange": nd, "single_task": st}

    def run_sycl(self, queue, workload: Workload,
                 variant: Variant = Variant.SYCL_OPT) -> dict[str, np.ndarray]:
        from ..sycl import NdRange, Range

        p = workload.params
        out = workload["out"]
        ks = self.kernels(variant)
        if variant in (Variant.FPGA_BASE, Variant.FPGA_OPT):
            if variant is Variant.FPGA_OPT:
                queue.single_task(
                    ks["single_task"],
                    out, p["width"], p["height"], p["max_iters"],
                    profile=self._profile(p["width"], p["height"]),
                )
                return {"out": out}
            # FPGA baseline: refactored ND-range with wg attributes
            local = (1, 16)
            gw = -(-p["width"] // 16) * 16
            queue.parallel_for(
                NdRange(Range(p["height"], gw), Range(local)),
                ks["ndrange"], out, p["width"], p["height"], p["max_iters"],
                profile=self._profile(p["width"], p["height"]),
            )
            return {"out": out}
        local = (1, 16)
        gw = -(-p["width"] // 16) * 16
        nd = NdRange(Range(p["height"], gw), Range(local))
        queue.parallel_for(nd, ks["ndrange"], out, p["width"], p["height"],
                           p["max_iters"],
                           profile=self._profile(p["width"], p["height"]))
        return {"out": out}

    # -- analytical -----------------------------------------------------------
    def _profile(self, width: int, height: int) -> KernelProfile:
        pixels = width * height
        avg_iters = MAX_ITERS * AVG_ITER_FRACTION
        return KernelProfile(
            name="mandel",
            flops=pixels * avg_iters * 10,
            global_bytes=pixels * 4,  # one int32 store per pixel
            work_items=pixels,
            iters_per_item=avg_iters,
            branch_divergence=0.35,  # neighbours escape at different times
            compute_efficiency=0.5,
        )

    def launch_plan(self, size: int, variant: Variant) -> LaunchPlan:
        dims = self.nominal_dims(size)
        prof = self._profile(dims["width"], dims["height"])
        plan = LaunchPlan(transfer_bytes=dims["width"] * dims["height"] * 4)
        plan.add(prof, 1)
        return plan

    def fpga_setup(self, size: int, optimized: bool, device_key: str) -> FpgaSetup:
        from ..fpga.resources import Design, KernelDesign

        dims = self.nominal_dims(size)
        n = dims["width"]
        ks = self.kernels(Variant.FPGA_OPT if optimized else Variant.FPGA_BASE)
        plan = LaunchPlan(transfer_bytes=n * n * 4)
        prof = self._profile(n, n)
        if not optimized:
            kernel = ks["ndrange"]
            design = Design(f"mandelbrot_base_s{size}").add(KernelDesign(kernel))
            plan.add(prof, 1)
            return FpgaSetup(design=design, plan=plan,
                             kernels={prof.name: (kernel, 1)})
        repl, unroll = self._FPGA_TUNING[device_key][size]
        base = ks["single_task"]
        # rebuild with this size's trip counts, zero speculation, and the
        # chosen unroll on the column loop
        kernel = KernelSpec(
            name=base.name, kind=base.kind, item_fn=base.item_fn,
            vector_fn=base.vector_fn, attributes=base.attributes,
            loops=[
                LoopSpec("rows", trip_count=n, speculated_iterations=0),
                LoopSpec("cols", trip_count=n, nested_in="rows",
                         unroll=unroll, speculated_iterations=0),
                LoopSpec("escape", trip_count=int(MAX_ITERS * AVG_ITER_FRACTION),
                         nested_in="cols", speculated_iterations=0),
            ],
            features=base.features,
        )
        design = Design(f"mandelbrot_opt_s{size}").add(
            KernelDesign(kernel, replication=repl, unroll=unroll)
        )
        plan.add(prof, 1)
        # unroll is already inside the loop specs; replication divides here
        return FpgaSetup(design=design, plan=plan,
                         kernels={prof.name: (kernel, repl)})

    def source_model(self) -> SourceModel:
        from ..dpct.source_model import Construct, SourceModel

        return SourceModel(
            app=self.name,
            lines_of_code=1_150,
            constructs=[
                Construct("kernel_def", 2),
                Construct("cuda_event_timing", 10),
                Construct("usm_mem_advise", 6),
                Construct("generic_api", 40),
                Construct("cmake_command", 2),
            ],
        )
