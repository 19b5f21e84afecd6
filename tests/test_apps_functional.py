"""Suite-wide functional verification: every benchmark configuration is
generated, executed through the SYCL runtime, and checked against its
numpy reference."""

import numpy as np
import pytest

from repro.altis import SIZES, Variant, make_app
from repro.altis.registry import APP_FACTORIES
from repro.harness.runner import _DEFAULT_SCALES, run_functional, run_suite_functional


@pytest.mark.parametrize("config", sorted(APP_FACTORIES))
class TestEveryConfig:
    def test_runs_and_verifies(self, config):
        result = run_functional(config)
        assert result.verified
        assert result.modeled_total_s > 0

    def test_cuda_variant_runs_and_verifies(self, config):
        # the CUDA variant runs the same kernels through run_sycl
        # (Raytracing's draws another RNG stream and is not compared)
        assert run_functional(config, variant=Variant.CUDA).verified

    def test_deterministic_generation(self, config):
        app_a = make_app(config)
        app_b = make_app(config)
        wa = app_a.generate(1, seed=7, scale=_DEFAULT_SCALES[config])
        wb = app_b.generate(1, seed=7, scale=_DEFAULT_SCALES[config])
        for name in wa.arrays:
            np.testing.assert_array_equal(wa[name], wb[name])

    def test_seed_changes_workload(self, config):
        # Mandelbrot/FDTD2D/Raytracing inputs are analytic (view rectangle,
        # zero-initialized fields, procedural scene keyed by params): the
        # seed reaches them via params, not input arrays.
        if config in ("Mandelbrot", "FDTD2D", "Raytracing"):
            pytest.skip("workload is analytic; seed affects params only")
        app = make_app(config)
        scale = _DEFAULT_SCALES[config]
        wa = app.generate(1, seed=1, scale=scale)
        wb = app.generate(1, seed=2, scale=scale)
        differs = any(
            wa[name].shape != wb[name].shape or not np.array_equal(wa[name], wb[name])
            for name in wa.arrays
            if wa[name].size
        )
        assert differs

    def test_nominal_dims_grow_with_size(self, config):
        app = make_app(config)
        dims = [app.nominal_dims(s) for s in SIZES]
        # at least one dimension must grow strictly across sizes
        numeric_keys = [k for k, v in dims[0].items() if isinstance(v, int)]
        grew = any(dims[0][k] < dims[2][k] for k in numeric_keys)
        assert grew

    def test_invalid_size_rejected(self, config):
        app = make_app(config)
        with pytest.raises(Exception):
            app.nominal_dims(4)

    def test_launch_plan_has_work(self, config):
        plan = make_app(config).launch_plan(1, Variant.SYCL_OPT)
        assert plan.total_invocations() >= 1
        assert plan.total_flops() > 0


class TestSuiteSweep:
    def test_run_suite_functional_all_verified(self):
        results = run_suite_functional()
        assert len(results) == len(APP_FACTORIES)
        assert all(r.verified for r in results)


class TestRegistry:
    def test_unknown_config(self):
        with pytest.raises(KeyError):
            make_app("BFS")

    def test_fig_configs_consistency(self):
        from repro.altis.registry import FIG2_CONFIGS, FIG4_CONFIGS

        assert len(FIG2_CONFIGS) == 13  # Table 1's 11 apps, CFD and PF doubled
        assert set(FIG4_CONFIGS) == set(FIG2_CONFIGS) - {"DWT2D"}

    def test_all_apps_covers_table1(self):
        from repro.altis.registry import all_apps

        assert len(all_apps()) == 11  # paper Table 1
