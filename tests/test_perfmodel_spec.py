"""Unit tests for the Table 2 device catalogue."""

import pytest

from repro.common.errors import DeviceNotFoundError
from repro.perfmodel.spec import (
    DEVICE_SPECS,
    FPGA_PEAK_BRACKETS,
    DeviceKind,
    fpga_peak_fp32_tflops,
    get_spec,
)

#: paper Table 2 rows: key -> (process nm, compute units, peak TFLOP/s
#: where fixed, memory bandwidth GB/s)
_TABLE2 = {
    "xeon6128": (14, 6, 1.1, 128.0),
    "rtx2080": (12, 46, 10.1, 448.0),
    "a100": (7, 108, 19.5, 1555.0),
    "max1100": (10, 56, 22.2, 1229.0),
}


class TestTable2Values:
    @pytest.mark.parametrize("key", list(_TABLE2))
    def test_fixed_function_devices(self, key):
        nm, cu, tflops, bw = _TABLE2[key]
        spec = get_spec(key)
        assert spec.process_nm == nm
        assert spec.compute_units == cu
        assert spec.peak_fp32_tflops == pytest.approx(tflops)
        assert spec.mem_bw_gbs == pytest.approx(bw)

    def test_stratix10_row(self):
        spec = get_spec("stratix10")
        assert spec.process_nm == 14
        assert spec.compute_units == 4713  # user-logic DSPs
        assert spec.mem_bw_gbs == pytest.approx(76.8)

    def test_agilex_row(self):
        spec = get_spec("agilex")
        assert spec.process_nm == 10
        assert spec.compute_units == 4510
        assert spec.mem_bw_gbs == pytest.approx(85.3)

    def test_six_devices(self):
        assert len(DEVICE_SPECS) == 6


class TestFpgaPeakFormula:
    """Paper: Peak FP32 = N_DSP x 2 x F_kernel."""

    def test_formula(self):
        assert fpga_peak_fp32_tflops(4713, 250.0) == pytest.approx(2.3565)

    @pytest.mark.parametrize("key", ["stratix10", "agilex"])
    def test_peak_brackets(self, key):
        """Table 2's attainable ranges: {2.4-4.2} S10, {2.3-5.0} Agilex."""
        spec = get_spec(key)
        lo, hi = FPGA_PEAK_BRACKETS[key]
        at_min = fpga_peak_fp32_tflops(spec.compute_units, spec.fmax_min_mhz)
        at_max = fpga_peak_fp32_tflops(spec.compute_units, spec.fmax_max_mhz)
        assert at_min == pytest.approx(lo, abs=0.06)
        assert at_max == pytest.approx(hi, abs=0.06)
        assert lo <= spec.peak_fp32_tflops <= hi

    def test_table3_totals(self):
        s10 = get_spec("stratix10").fpga_resources
        agx = get_spec("agilex").fpga_resources
        # Table 3 header: T: 933120 / 11721 / 5760 and 487200 / 7110 / 4510
        assert (s10.alms, s10.brams, s10.dsps_total) == (933_120, 11_721, 5_760)
        assert (agx.alms, agx.brams, agx.dsps_total) == (487_200, 7_110, 4_510)


class TestSpecQueries:
    def test_fp64_ratio_consumer_gpu(self):
        spec = get_spec("rtx2080")
        assert spec.peak_fp64_tflops == pytest.approx(10.1 / 32)

    def test_peak_flops_units(self):
        assert get_spec("a100").peak_flops() == pytest.approx(19.5e12)
        assert get_spec("a100").peak_flops(fp64=True) == pytest.approx(9.75e12)

    def test_mem_bw_bytes(self):
        assert get_spec("xeon6128").mem_bw == pytest.approx(128e9)

    def test_unknown_device(self):
        with pytest.raises(DeviceNotFoundError):
            get_spec("h100")

    def test_list_by_kind(self):
        kinds = [spec.kind for spec in DEVICE_SPECS.values()]
        assert kinds.count(DeviceKind.GPU) == 3
        assert kinds.count(DeviceKind.FPGA) == 2
        assert len(kinds) == 6
