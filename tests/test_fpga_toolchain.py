"""Unit tests for the FPGA synthesis model (resources, fitting, timing)."""

import pytest

from repro.common.errors import (
    FitError,
    InvalidParameterError,
    TimingViolationError,
)
from repro.fpga import (
    DYNAMIC_ACCESSOR_BYTES,
    M20K_BYTES,
    Design,
    KernelDesign,
    LocalMemorySpec,
    congestion_score,
    estimate,
    synthesize,
)
from repro.perfmodel import get_spec
from repro.sycl import KernelAttributes, KernelSpec


def _kernel(**features):
    return KernelSpec(name="k", vector_fn=lambda nd, *a: None,
                      features=features)


class TestResourceEstimation:
    def test_interface_overhead_always_charged(self):
        res = estimate(Design("empty"), get_spec("stratix10"))
        assert res.alms > 0 and res.brams > 0

    def test_datapath_scales_with_unroll(self):
        """§5.2: resource utilization scales ~linearly with the factor."""
        spec = get_spec("stratix10")
        k = _kernel(body_fmas=10, body_ops=20)
        r1 = estimate(Design("u1").add(KernelDesign(k, unroll=1)), spec)
        r8 = estimate(Design("u8").add(KernelDesign(k, unroll=8)), spec)
        assert r8.dsps == pytest.approx(r1.dsps * 8, rel=0.05)

    def test_simd_scales_like_unroll(self):
        spec = get_spec("stratix10")
        k4 = KernelSpec(name="k", vector_fn=lambda nd, *a: None,
                        attributes=KernelAttributes(num_simd_work_items=4),
                        features={"body_fmas": 10})
        k1 = _kernel(body_fmas=10)
        r4 = estimate(Design("s4").add(KernelDesign(k4)), spec)
        r1 = estimate(Design("s1").add(KernelDesign(k1)), spec)
        assert r4.dsps == pytest.approx(r1.dsps * 4, rel=0.05)

    def test_fp64_quadruples_dsps(self):
        spec = get_spec("stratix10")
        r32 = estimate(Design("f32").add(KernelDesign(_kernel(body_fmas=10))), spec)
        r64 = estimate(Design("f64").add(
            KernelDesign(_kernel(body_fmas=10, fp64=True))), spec)
        assert r64.dsps == pytest.approx(r32.dsps * 4, rel=0.05)

    def test_replication_multiplies_everything(self):
        spec = get_spec("stratix10")
        k = _kernel(body_fmas=5, body_ops=10)
        r1 = estimate(Design("r1").add(KernelDesign(k)), spec)
        r3 = estimate(Design("r3").add(KernelDesign(k, replication=3)), spec)
        assert r3.dsps == pytest.approx(r1.dsps * 3, rel=0.01)

    def test_dynamic_local_memory_provisioned_16k(self):
        """§4: dynamically sized accessors cost a 16 KiB memory system."""
        mem = LocalMemorySpec(bytes=8, static=False)
        assert mem.provisioned_bytes == DYNAMIC_ACCESSOR_BYTES
        assert LocalMemorySpec(bytes=8, static=True).provisioned_bytes == 8

    def test_dynamic_accessor_costs_more_bram(self):
        spec = get_spec("stratix10")
        small = _kernel(local_memories=[{"bytes": 64, "static": True}])
        dyn = _kernel(local_memories=[{"bytes": 64, "static": False}])
        r_small = estimate(Design("s").add(KernelDesign(small)), spec)
        r_dyn = estimate(Design("d").add(KernelDesign(dyn)), spec)
        extra_blocks = (DYNAMIC_ACCESSOR_BYTES - M20K_BYTES) // M20K_BYTES
        assert r_dyn.brams - r_small.brams >= extra_blocks

    def test_dpct_headers_cost_one_percent(self):
        """§4: the helper memcpy synthesizes ~1% of RAM and DSP."""
        spec = get_spec("stratix10")
        with_h = estimate(Design("h", dpct_headers=True), spec)
        without = estimate(Design("n", dpct_headers=False), spec)
        assert (with_h.bram_frac - without.bram_frac) == pytest.approx(0.01, abs=0.002)
        assert (with_h.dsp_frac - without.dsp_frac) == pytest.approx(0.01, abs=0.002)

    def test_invalid_knobs_rejected(self):
        with pytest.raises(InvalidParameterError):
            KernelDesign(_kernel(), replication=0)

    def test_non_fpga_spec_rejected(self):
        with pytest.raises(InvalidParameterError):
            estimate(Design("x"), get_spec("a100"))


class TestSynthesis:
    def test_successful_build_reports_fmax_in_range(self):
        spec = get_spec("stratix10")
        syn = synthesize(Design("ok").add(KernelDesign(_kernel())), spec)
        assert spec.fmax_min_mhz * 0.4 <= syn.fmax_mhz <= spec.fmax_max_mhz

    def test_overflow_fails_fit(self):
        spec = get_spec("agilex")
        k = _kernel(body_fmas=100, body_ops=200)
        with pytest.raises(FitError) as exc:
            synthesize(Design("big").add(KernelDesign(k, replication=60)), spec)
        assert exc.value.utilization  # carries the utilization breakdown

    def test_congestion_violates_timing(self):
        """§5.2 case 1: unrolling past the edge fails place-and-route."""
        spec = get_spec("stratix10")
        k = _kernel(body_fmas=2, local_memories=[
            {"bytes": 1024, "ports": 2, "bankable": True},
            {"bytes": 512, "ports": 1, "bankable": True}])
        synthesize(Design("u30").add(KernelDesign(k, unroll=30)), spec)  # ok
        with pytest.raises(TimingViolationError):
            synthesize(Design("u60").add(KernelDesign(k, unroll=60)), spec)

    def test_agilex_closes_higher_than_stratix(self):
        """Table 3: every design clocks higher on Agilex."""
        k = _kernel(body_fmas=8, body_ops=16)
        s10 = synthesize(Design("d").add(KernelDesign(k)), get_spec("stratix10"))
        agx = synthesize(Design("d").add(KernelDesign(k)), get_spec("agilex"))
        assert agx.fmax_mhz > s10.fmax_mhz

    def test_arbiters_lower_fmax(self):
        """§5.2 case 3 / Table 3 NW: arbitered memory caps the clock."""
        spec = get_spec("stratix10")
        banked = _kernel(local_memories=[{"bytes": 1024, "ports": 2,
                                          "bankable": True}])
        arbitered = _kernel(local_memories=[{"bytes": 1024, "ports": 4,
                                             "bankable": False}])
        f_banked = synthesize(Design("b").add(KernelDesign(banked)), spec).fmax_mhz
        f_arb = synthesize(Design("a").add(KernelDesign(arbitered)), spec).fmax_mhz
        assert f_arb < f_banked * 0.9

    def test_seed_jitters_fmax_deterministically(self):
        spec = get_spec("stratix10")
        d = Design("d").add(KernelDesign(_kernel()))
        f1 = synthesize(d, spec, seed=1).fmax_mhz
        f2 = synthesize(d, spec, seed=2).fmax_mhz
        f1_again = synthesize(d, spec, seed=1).fmax_mhz
        assert f1 == f1_again
        assert f1 != f2

    def test_congestion_score_grows_with_width(self):
        spec = get_spec("stratix10")
        k = _kernel(local_memories=[{"bytes": 1024, "ports": 2}])
        low = congestion_score(Design("l").add(KernelDesign(k, unroll=2)), spec)
        high = congestion_score(Design("h").add(KernelDesign(k, unroll=16)), spec)
        assert high > low

