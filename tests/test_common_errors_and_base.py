"""Tests for the error hierarchy and the AltisApp base-class helpers."""

import numpy as np
import pytest

from repro.altis import Variant, make_app
from repro.altis.base import AltisApp, Workload
from repro.common import errors


class TestErrorHierarchy:
    def test_all_under_repro_error(self):
        for cls in (errors.SyclError, errors.MigrationError,
                    errors.FpgaToolError, errors.CalibrationError,
                    errors.PipeError):
            assert issubclass(cls, errors.ReproError)

    def test_sycl_family(self):
        for cls in (errors.InvalidParameterError,
                    errors.FeatureNotSupportedError,
                    errors.KernelLaunchError, errors.DeviceNotFoundError,
                    errors.PipeError, errors.DataflowDeadlockError):
            assert issubclass(cls, errors.SyclError)

    def test_fpga_family(self):
        assert issubclass(errors.FitError, errors.FpgaToolError)
        assert issubclass(errors.TimingViolationError, errors.FpgaToolError)

    def test_fit_error_carries_utilization(self):
        e = errors.FitError("too big", utilization={"alm": 1.2})
        assert e.utilization == {"alm": 1.2}

    def test_fit_error_default_utilization(self):
        assert errors.FitError("x").utilization == {}

    def test_timing_violation_carries_mhz(self):
        e = errors.TimingViolationError("slow", achieved_mhz=180.0)
        assert e.achieved_mhz == 180.0

    def test_deadlock_is_pipe_error(self):
        assert issubclass(errors.DataflowDeadlockError, errors.PipeError)


class TestVariant:
    def test_runtime_mapping(self):
        assert Variant.CUDA.runtime == "cuda"
        for v in (Variant.SYCL_BASELINE, Variant.SYCL_OPT,
                  Variant.FPGA_BASE, Variant.FPGA_OPT):
            assert v.runtime == "sycl"

    def test_from_string(self):
        assert Variant("sycl_opt") is Variant.SYCL_OPT


class TestWorkload:
    def test_getitem(self):
        w = Workload(app="x", size=1,
                     arrays={"a": np.arange(3)}, params={"n": 3})
        np.testing.assert_array_equal(w["a"], [0, 1, 2])

    def test_missing_array_raises(self):
        w = Workload(app="x", size=1, arrays={}, params={})
        with pytest.raises(KeyError):
            _ = w["nope"]


class TestAppBaseHelpers:
    def test_scaled_minimum(self):
        assert AltisApp.scaled(1000, 0.001, minimum=8) == 8
        assert AltisApp.scaled(1000, 0.5) == 500

    def test_verify_raises_on_mismatch(self):
        app = make_app("Mandelbrot")
        good = {"out": np.ones(4)}
        bad = {"out": np.zeros(4)}
        with pytest.raises(AssertionError):
            app.verify(bad, good)

    def test_verify_passes_equal_and_same_position_nan(self):
        app = make_app("Mandelbrot")
        exp = np.array([1.0, np.nan, -np.inf, 3.0])
        app.verify({"out": exp.copy()}, {"out": exp})
        app.verify({"out": exp + 1e-9}, {"out": exp})  # inside rtol/atol

    def test_verify_integer_outputs(self):
        app = make_app("NW")
        exp = np.arange(12, dtype=np.int32).reshape(3, 4)
        app.verify({"score": exp.copy()}, {"score": exp})
        with pytest.raises(AssertionError):
            app.verify({"score": exp + 1}, {"score": exp})

    @pytest.mark.parametrize("got, exp", [
        (np.zeros(4), np.zeros(5)),                # shape mismatch
        (np.zeros((2, 2)), np.zeros(4)),           # same size, other shape
        (np.array([np.nan, 1.0]), np.array([1.0, np.nan])),  # nan moved
        (np.array([np.inf]), np.array([-np.inf])),
        (np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.5, 3.0])),
    ])
    def test_verify_failure_text_is_assert_allclose_text(self, got, exp):
        app = make_app("Mandelbrot")
        with pytest.raises(AssertionError) as ours:
            app.verify({"x": got}, {"x": exp}, rtol=1e-4, atol=1e-5)
        with pytest.raises(AssertionError) as theirs:
            np.testing.assert_allclose(
                got, exp, rtol=1e-4, atol=1e-5,
                err_msg="Mandelbrot: output 'x' diverges from reference")
        assert str(ours.value) == str(theirs.value)
        assert "Mandelbrot: output 'x' diverges from reference" \
            in str(ours.value)

    def test_check_size_bounds(self):
        app = make_app("NW")
        for bad in (0, 4, -1):
            with pytest.raises(errors.InvalidParameterError):
                app.check_size(bad)

    def test_default_variant_traits_neutral(self):
        app = make_app("Mandelbrot")
        iv = app.variant_traits(Variant.SYCL_OPT)
        assert iv.kernel_multiplier() == 1.0

    def test_repr(self):
        assert "Mandelbrot" in repr(make_app("Mandelbrot"))

    def test_reported_time_positive_all_variants(self):
        app = make_app("KMeans")
        for variant in (Variant.CUDA, Variant.SYCL_BASELINE,
                        Variant.SYCL_OPT):
            assert app.reported_time_s(1, variant, "rtx2080") > 0
        for variant in (Variant.FPGA_BASE, Variant.FPGA_OPT):
            assert app.reported_time_s(1, variant, "stratix10") > 0

    def test_fpga_time_uses_cached_synthesis(self):
        from repro.altis.base import FpgaSetup
        from repro.fpga.synthesis import synthesize
        from repro.perfmodel import get_spec

        app = make_app("Mandelbrot")
        setup = app.fpga_setup(1, True, "stratix10")
        syn = synthesize(setup.design, get_spec("stratix10"), seed=7)
        cached = FpgaSetup(design=setup.design, plan=setup.plan,
                           replication=setup.replication,
                           kernels=setup.kernels, synthesis=syn)
        app.fpga_setup = lambda *a: cached  # inject
        t = app.fpga_time(1, True, "stratix10")
        assert t.total_s > 0
