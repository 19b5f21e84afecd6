"""Tests for DWT2D's kernel count (§4: 14 kernels, 2 synthesized) and
golden-value drift guards on the regenerated figures."""

import numpy as np
import pytest

from repro.altis.dwt2d import Dwt2D, dwt53_forward


class TestKernelVariants:
    def test_exactly_fourteen(self):
        """§4: DWT2D has 14 kernels, as its DPCT source model counts."""
        kernel_defs = {c.kind: c.count
                       for c in Dwt2D().source_model().constructs}
        assert kernel_defs["kernel_def"] == Dwt2D.TOTAL_KERNEL_VARIANTS == 14

    def test_forward_53_kernels_compose_to_reference(self):
        ks = Dwt2D().kernels()
        rng = np.random.default_rng(0)
        n = 32
        img = rng.integers(0, 256, (n, n)).astype(np.int64)
        data = img.copy()
        tmp = np.zeros_like(data)
        ks["fdwt53_rows"].vector_fn(None, data, tmp, n, n)
        ks["fdwt53_cols"].vector_fn(None, tmp, data, n, n)
        np.testing.assert_array_equal(data, dwt53_forward(img, levels=1))

    def test_bitstream_selects_two_of_fourteen(self):
        """§4: only the kernels for the default config are synthesized."""
        app = Dwt2D()
        setup = app.fpga_setup(3, False, "stratix10")
        assert len(setup.design.kernels) == 2
        assert Dwt2D.TOTAL_KERNEL_VARIANTS == 14


class TestGoldenValues:
    """Drift guards: the regenerated headline numbers are deterministic;
    any model change that moves them outside these windows must update
    EXPERIMENTS.md too."""

    def test_fig2_optimized_geomeans(self):
        from repro.common.utils import geomean
        from repro.harness import figure2

        fig2 = figure2(True)
        gm = [geomean([row[i] for row in fig2.values()]) for i in range(3)]
        assert gm[0] == pytest.approx(1.06, abs=0.05)
        assert gm[1] == pytest.approx(1.14, abs=0.05)
        assert gm[2] == pytest.approx(1.19, abs=0.05)

    def test_fig4_kmeans_headline(self):
        from repro.harness import figure4

        assert figure4()["KMeans"][2] == pytest.approx(469, rel=0.1)

    def test_migration_totals_exact(self):
        from repro.harness import migration_report

        rep = migration_report()
        assert (rep.total_loc, rep.total_warnings) == (40_000, 2_535)

    def test_table3_mandelbrot_dsp(self):
        from repro.fpga import synthesize
        from repro.altis import make_app
        from repro.perfmodel import get_spec

        setup = make_app("Mandelbrot").fpga_setup(3, True, "stratix10")
        syn = synthesize(setup.design, get_spec("stratix10"))
        assert syn.utilization_percent()["dsp"] == pytest.approx(73.3, abs=3)
