"""Tests for the fused-material render path (Listing 1's float8 layout
actually driving the tracer)."""

import numpy as np

from repro.altis.raytracing import Material, make_scene, render


class TestFusedMaterialRender:
    def test_render_through_fused_layout_is_identical(self):
        """Listing 1's optimization is purely a memory-layout change:
        rendering through MaterialF8 objects must produce the same image
        bit for bit."""
        centers, radii, mats = make_scene(6, seed=3)
        fused = [m.to_float8() for m in mats]
        img_a = render(16, 16, 2, (centers, radii, mats),
                       np.random.Generator(np.random.Philox(5)))
        img_b = render(16, 16, 2, (centers, radii, fused),
                       np.random.Generator(np.random.Philox(5)))
        np.testing.assert_array_equal(img_a, img_b)

    def test_fused_roundtrip_is_stable(self):
        """float8 -> Material-like view -> float8 is idempotent."""
        m = Material(1, np.array([0.25, 0.5, 0.75]), fuzz=0.125,
                     ref_idx=1.5)
        once = m.to_float8()
        again = Material(once.m_type, once.albedo, once.fuzz,
                         once.ref_idx).to_float8()
        np.testing.assert_array_equal(np.asarray(list(once.data)),
                                      np.asarray(list(again.data)))
