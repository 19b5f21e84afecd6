"""Unit tests for the GPU/CPU roofline and FPGA pipeline models."""

import pytest

from repro.common.errors import CalibrationError, InvalidParameterError
from repro.perfmodel import (
    CpuModel,
    FpgaModel,
    GpuModel,
    ImplVariant,
    KernelProfile,
    LaunchPlan,
    RuntimeKind,
    get_spec,
    model_for,
    overheads_for,
    time_launch_plan,
)
from repro.perfmodel.traits import TRAITS
from repro.sycl.kernel import KernelAttributes, KernelSpec, LoopSpec


def _profile(**kw) -> KernelProfile:
    base = dict(name="k", flops=1e9, global_bytes=1e7, work_items=1 << 20)
    base.update(kw)
    return KernelProfile(**base)


class TestProfileValidation:
    def test_negative_work_rejected(self):
        with pytest.raises(CalibrationError):
            _profile(flops=-1)

    def test_divergence_bounds(self):
        with pytest.raises(CalibrationError):
            _profile(branch_divergence=1.5)

    def test_efficiency_bounds(self):
        with pytest.raises(CalibrationError):
            _profile(compute_efficiency=0.0)

    def test_scaled(self):
        p = _profile().scaled(2.0)
        assert p.flops == 2e9
        assert p.global_bytes == 2e7


class TestGpuRoofline:
    def test_compute_bound_kernel(self):
        # the compute wall binds: doubling the traffic costs nothing,
        # doubling the arithmetic doubles the time
        m = GpuModel(get_spec("rtx2080"))
        t = m.kernel_time_s(_profile(flops=1e12, global_bytes=1e6))
        assert m.kernel_time_s(_profile(flops=1e12, global_bytes=2e6)) == t
        assert m.kernel_time_s(
            _profile(flops=2e12, global_bytes=1e6)) == pytest.approx(2 * t)

    def test_memory_bound_kernel(self):
        # the memory wall binds: doubling the arithmetic costs nothing,
        # doubling the traffic doubles the time
        m = GpuModel(get_spec("rtx2080"))
        t = m.kernel_time_s(_profile(flops=1e6, global_bytes=1e9))
        assert m.kernel_time_s(_profile(flops=2e6, global_bytes=1e9)) == t
        assert m.kernel_time_s(
            _profile(flops=1e6, global_bytes=2e9)) == pytest.approx(2 * t)

    def test_divergence_slows_kernel(self):
        m = GpuModel(get_spec("rtx2080"))
        fast = m.kernel_time_s(_profile(branch_divergence=0.0))
        slow = m.kernel_time_s(_profile(branch_divergence=0.8))
        assert slow > fast * 2

    def test_fp64_penalty_on_consumer_gpu(self):
        m = GpuModel(get_spec("rtx2080"))
        t32 = m.kernel_time_s(_profile(fp64=False))
        t64 = m.kernel_time_s(_profile(fp64=True))
        assert t64 > 10 * t32  # 1/32 rate

    def test_occupancy_ramp(self):
        m = GpuModel(get_spec("a100"))
        small = _profile(work_items=256, flops=1e8)
        large = _profile(work_items=1 << 22, flops=1e8)
        # the small launch cannot fill 108 SMs: lower efficiency
        assert m.kernel_time_s(small) > m.kernel_time_s(large)

    def test_faster_device_wins(self):
        p = _profile()
        t2080 = GpuModel(get_spec("rtx2080")).kernel_time_s(p)
        ta100 = GpuModel(get_spec("a100")).kernel_time_s(p)
        assert ta100 < t2080

    def test_streaming_bandwidth_stays_below_spec(self):
        """A saturating triad (a = b + s*c) gets most of the DRAM
        bandwidth and never more; the A100 streams faster."""
        n = 1 << 24
        triad = KernelProfile(name="triad", flops=2.0 * n,
                              global_bytes=12.0 * n, work_items=n,
                              compute_efficiency=0.9)
        achieved = {}
        for key in ("rtx2080", "a100"):
            spec = get_spec(key)
            achieved[key] = (triad.global_bytes
                             / GpuModel(spec).kernel_time_s(triad))
            assert 0.4 * spec.mem_bw < achieved[key] <= spec.mem_bw
        assert achieved["a100"] > achieved["rtx2080"]

    def test_fma_chain_stays_below_peak_flops(self):
        n = 1 << 20
        chain = KernelProfile(name="maxflops", flops=2.0 * 512 * n,
                              global_bytes=8.0 * n, work_items=n,
                              compute_efficiency=0.92)
        spec = get_spec("rtx2080")
        achieved = chain.flops / GpuModel(spec).kernel_time_s(chain)
        assert 0.5 * spec.peak_flops() < achieved <= spec.peak_flops()

    def test_kernel_floor(self):
        m = GpuModel(get_spec("a100"))
        assert m.kernel_time_s(_profile(flops=1, global_bytes=1, work_items=1)) >= 2e-6

    def test_fpga_spec_rejected(self):
        with pytest.raises(ValueError):
            GpuModel(get_spec("stratix10"))


class TestCpuModel:
    def test_cpu_slower_than_gpu(self):
        p = _profile()
        assert (CpuModel(get_spec("xeon6128")).kernel_time_s(p)
                > GpuModel(get_spec("rtx2080")).kernel_time_s(p))

    def test_cpu_efficiency_override(self):
        m = CpuModel(get_spec("xeon6128"))
        normal = m.kernel_time_s(_profile())
        derated = m.kernel_time_s(_profile(cpu_efficiency=0.01))
        assert derated > normal

    def test_cpu_bw_override(self):
        m = CpuModel(get_spec("xeon6128"))
        p = _profile(flops=1e3, global_bytes=1e9)
        assert (m.kernel_time_s(p.with_(cpu_bw_efficiency=0.1))
                > m.kernel_time_s(p))

    def test_per_launch_floor(self):
        m = CpuModel(get_spec("xeon6128"))
        assert m.kernel_time_s(_profile(flops=1, global_bytes=1)) >= 100e-6


class TestFpgaModel:
    def _nd_kernel(self, simd=1, **features):
        return KernelSpec(
            name="k", vector_fn=lambda nd, *a: None,
            attributes=KernelAttributes(num_simd_work_items=simd),
            features=features)

    def test_simd_scales_throughput(self):
        m = FpgaModel(get_spec("stratix10"))
        p = _profile(global_bytes=1e3)  # not memory bound
        t1 = m.nd_range_time_s(self._nd_kernel(simd=1), p).time_s
        t4 = m.nd_range_time_s(self._nd_kernel(simd=4), p).time_s
        assert t1 / t4 == pytest.approx(4.0, rel=0.1)

    def test_simd_capped_by_bandwidth(self):
        """§5.2: performance only scales when bandwidth suffices."""
        m = FpgaModel(get_spec("stratix10"))
        p = _profile(global_bytes=5e9)  # strongly memory bound
        t1 = m.nd_range_time_s(self._nd_kernel(simd=1), p)
        t8 = m.nd_range_time_s(self._nd_kernel(simd=8), p)
        assert t8.bound == "memory"
        assert t1.time_s / t8.time_s < 1.5  # far from 8x

    def test_replication_scales_throughput(self):
        p = _profile(global_bytes=1e3)
        t1 = FpgaModel(get_spec("stratix10"), replication=1).nd_range_time_s(
            self._nd_kernel(), p).time_s
        t4 = FpgaModel(get_spec("stratix10"), replication=4).nd_range_time_s(
            self._nd_kernel(), p).time_s
        assert t1 / t4 == pytest.approx(4.0, rel=0.1)

    def test_variable_trip_loop_stall(self):
        m = FpgaModel(get_spec("stratix10"))
        p = _profile(global_bytes=1e3, branch_divergence=0.3)
        plain = m.nd_range_time_s(self._nd_kernel(), p).time_s
        stalled = m.nd_range_time_s(
            self._nd_kernel(variable_trip_loop=True), p).time_s
        assert stalled == pytest.approx(plain * 2.0 * 1.3, rel=0.05)

    def test_arbitered_local_memory_stalls(self):
        m = FpgaModel(get_spec("stratix10"))
        p = _profile(global_bytes=1e3)
        k = self._nd_kernel(local_memories=[
            {"bytes": 1024, "ports": 4, "bankable": False}])
        assert (m.nd_range_time_s(k, p).time_s
                > m.nd_range_time_s(self._nd_kernel(), p).time_s)

    def test_single_task_loop_nest(self):
        """Nested trip counts multiply through the ancestor chain."""
        m = FpgaModel(get_spec("stratix10"))
        k = KernelSpec(
            name="st", kind="single_task", vector_fn=lambda *a: None,
            loops=[
                LoopSpec("outer", trip_count=100, speculated_iterations=0),
                LoopSpec("inner", trip_count=50, nested_in="outer",
                         speculated_iterations=0),
            ])
        p = _profile(work_items=1, global_bytes=1e2)
        t = m.single_task_time_s(k, p)
        # 100 outer + 100*50 inner + fill = 5400
        assert t.cycles == pytest.approx(100 + 5000 + 300, rel=0.01)

    def test_speculated_iterations_cost_per_exit(self):
        """§5.3 Mandelbrot: speculation wastes cycles once per exit."""
        m = FpgaModel(get_spec("stratix10"))

        def kernel(spec_iters):
            return KernelSpec(
                name="st", kind="single_task", vector_fn=lambda *a: None,
                loops=[
                    LoopSpec("pixels", trip_count=10_000,
                             speculated_iterations=0),
                    LoopSpec("escape", trip_count=10, nested_in="pixels",
                             speculated_iterations=spec_iters),
                ])

        p = _profile(work_items=1, global_bytes=1e2)
        t0 = m.single_task_time_s(kernel(0), p).cycles
        t4 = m.single_task_time_s(kernel(4), p).cycles
        assert t4 - t0 == pytest.approx(10_000 * 4, rel=0.01)

    def test_unroll_divides_trips(self):
        m = FpgaModel(get_spec("stratix10"))
        k = KernelSpec(
            name="st", kind="single_task", vector_fn=lambda *a: None,
            loops=[LoopSpec("main", trip_count=1000, unroll=4,
                            speculated_iterations=0)])
        p = _profile(work_items=1, global_bytes=1e2)
        assert m.single_task_time_s(k, p).cycles == pytest.approx(
            250 + 300, rel=0.01)

    def test_per_kernel_replication_override(self):
        m = FpgaModel(get_spec("stratix10"), replication=8)
        p = _profile(global_bytes=1e3)
        k = self._nd_kernel()
        serial = m.kernel_time_s(k, p, replication=1)
        parallel = m.kernel_time_s(k, p)
        assert serial / parallel == pytest.approx(8.0, rel=0.15)

    def test_non_fpga_spec_rejected(self):
        with pytest.raises(CalibrationError):
            FpgaModel(get_spec("a100"))


class TestTraits:
    def test_known_traits_have_references(self):
        for trait in TRAITS.values():
            assert trait.reference

    def test_variant_multiplier_composition(self):
        v = ImplVariant(name="x", runtime="sycl",
                        traits=("missing_inline", "barrier_global_scope"))
        assert v.kernel_multiplier() == pytest.approx(2.0 * 1.12)

    def test_per_kernel_scoping(self):
        v = ImplVariant(name="x", runtime="sycl",
                        per_kernel={"scan": ("onedpl_scan",)})
        assert v.kernel_multiplier("scan") == pytest.approx(1.5)
        assert v.kernel_multiplier("other") == 1.0


class TestOverheadsAndTimeline:
    def test_sycl_gpu_costlier_than_cuda(self):
        """Fig. 1's premise: the oneAPI plugin pays more per launch."""
        cuda = overheads_for(RuntimeKind.CUDA, get_spec("rtx2080"))
        sycl = overheads_for(RuntimeKind.SYCL, get_spec("rtx2080"))
        assert sycl.launch_s > 2 * cuda.launch_s
        assert sycl.per_run_s > cuda.per_run_s

    def test_fpga_launch_costliest(self):
        fpga = overheads_for(RuntimeKind.SYCL, get_spec("stratix10"))
        gpu = overheads_for(RuntimeKind.SYCL, get_spec("rtx2080"))
        assert fpga.launch_s > gpu.launch_s

    def test_fpga_per_launch_overhead_dwarfs_gpu(self):
        """Back-to-back launches, each with its two events (§5)."""
        def per_launch(key):
            ov = overheads_for(RuntimeKind.SYCL, get_spec(key))
            return ov.launch_s + 2 * ov.event_s
        assert per_launch("stratix10") > 3 * per_launch("rtx2080")

    def test_transfer_bandwidth_grows_with_block_size(self):
        """A 1 KiB copy is latency-bound, a 64 MiB one bandwidth-bound."""
        ov = overheads_for(RuntimeKind.SYCL, get_spec("rtx2080"))
        small, large = 1 << 10, 1 << 26
        assert (large / ov.transfer_time_s(large)
                > 10 * small / ov.transfer_time_s(small))

    def test_unknown_combo_raises(self):
        with pytest.raises(InvalidParameterError):
            overheads_for(RuntimeKind.CUDA, get_spec("stratix10"))

    def test_time_launch_plan_decomposition(self):
        plan = LaunchPlan(transfer_bytes=1e6)
        plan.add(_profile(), 10)
        spec = get_spec("rtx2080")
        d = time_launch_plan(plan, spec,
                             overheads_for(RuntimeKind.SYCL, spec))
        assert d.launches == 10
        assert d.kernel_s > 0 and d.non_kernel_s > 0
        assert d.total_s == pytest.approx(d.kernel_s + d.non_kernel_s)

    def test_variant_multiplies_kernel_time(self):
        plan = LaunchPlan()
        plan.add(_profile(name="k"), 1)
        spec = get_spec("rtx2080")
        ov = overheads_for(RuntimeKind.SYCL, spec)
        base = time_launch_plan(plan, spec, ov).kernel_s
        slow = time_launch_plan(
            plan, spec, ov,
            variant=ImplVariant(name="v", runtime="sycl",
                                traits=("missing_inline",))).kernel_s
        assert slow == pytest.approx(2 * base)

    def test_model_for_dispatch(self):
        assert isinstance(model_for(get_spec("xeon6128")), CpuModel)
        assert isinstance(model_for(get_spec("a100")), GpuModel)
        assert isinstance(model_for(get_spec("agilex")), FpgaModel)

    def test_launch_plan_totals(self):
        plan = LaunchPlan()
        plan.add(_profile(flops=10, global_bytes=20), 3)
        assert plan.total_flops() == 30
        assert plan.total_bytes() == 60
        assert plan.total_invocations() == 3
