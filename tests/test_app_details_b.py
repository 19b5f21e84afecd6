"""App-specific edge cases and algorithm properties: NW, ParticleFilter,
Raytracing, SRAD, Where, DWT2D."""

import numpy as np
import pytest

from repro.altis.base import Variant
from repro.altis.dwt2d import Dwt2D, _lift53_1d, _unlift53_1d, dwt53_forward
from repro.altis.nw import nw_reference
from repro.altis.particlefilter import (
    ParticleFilter,
    _find_index_single_task,
    _likelihood,
    _make_video,
    _systematic_u,
    particlefilter_reference,
)
from repro.altis.raytracing import make_scene, render
from repro.altis.srad import srad_reference, srad_step
from repro.altis.where import Where, where_reference
from repro.common.rng import LcgPark
from repro.sycl import Queue


class TestNwDetails:
    def _blosum(self, seed=0):
        rng = np.random.default_rng(seed)
        b = rng.integers(-4, 12, size=(24, 24)).astype(np.int32)
        return ((b + b.T) // 2).astype(np.int32)

    def test_identical_sequences_take_diagonal(self):
        """Aligning a sequence against itself scores the diagonal sum
        when matches beat the gap penalty."""
        rng = np.random.default_rng(1)
        seq = rng.integers(0, 24, 16)
        blosum = np.full((24, 24), -2, dtype=np.int32)
        np.fill_diagonal(blosum, 8)
        score = nw_reference(seq, seq, blosum, penalty=10)
        assert score[16, 16] == 8 * 16

    def test_first_row_and_column_are_gap_ladder(self):
        seq = np.zeros(8, dtype=np.int64)
        score = nw_reference(seq, seq, self._blosum(), penalty=7)
        np.testing.assert_array_equal(score[0], -7 * np.arange(9))
        np.testing.assert_array_equal(score[:, 0], -7 * np.arange(9))

    def test_swapping_sequences_transposes(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 24, 12)
        b = rng.integers(0, 24, 12)
        blosum = self._blosum(2)
        s_ab = nw_reference(a, b, blosum)
        s_ba = nw_reference(b, a, blosum)
        np.testing.assert_array_equal(s_ab, s_ba.T)

    def test_higher_penalty_never_raises_score(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 24, 10)
        b = rng.integers(0, 24, 10)
        blosum = self._blosum(3)
        low = nw_reference(a, b, blosum, penalty=5)
        high = nw_reference(a, b, blosum, penalty=15)
        assert high[10, 10] <= low[10, 10]


class TestParticleFilterDetails:
    def test_video_contains_moving_target(self):
        video, pos = _make_video(5, 64, seed=0)
        for t in range(5):
            y, x = int(pos[t][1]), int(pos[t][0])
            assert video[t, y, x] == 200  # bright disc at the truth

    def test_likelihood_peaks_at_target(self):
        video, pos = _make_video(1, 64, seed=1)
        on = _likelihood(video[0], np.array([pos[0][0]]),
                         np.array([pos[0][1]]))
        off = _likelihood(video[0], np.array([5.0]), np.array([60.0]))
        assert on[0] > off[0]

    def test_systematic_u_is_stratified(self):
        u = _systematic_u(16, LcgPark(3))
        assert (np.diff(u) > 0).all()
        np.testing.assert_allclose(np.diff(u), 1 / 16)
        assert 0 <= u[0] < 1 / 16

    def test_single_task_find_index_matches_searchsorted(self):
        rng = np.random.default_rng(4)
        n = 128
        w = rng.random(n)
        cdf = np.cumsum(w / w.sum())
        u = _systematic_u(n, LcgPark(9))
        got = np.zeros(n, dtype=np.int64)
        _find_index_single_task(cdf, u, got, n)
        want = np.clip(np.searchsorted(cdf, u), 0, n - 1)
        np.testing.assert_array_equal(got, want)

    def test_tracking_follows_truth(self):
        app = ParticleFilter()
        wl = app.generate(1, seed=5, scale=0.1)
        est = app.reference(wl)["estimates"]
        err = np.abs(est - wl["true_pos"][:len(est)]).mean()
        assert err < 3.0  # pixels

    def test_naive_and_float_share_estimates_semantics(self):
        naive = ParticleFilter(False).generate(1, seed=1, scale=0.05)
        fl = ParticleFilter(True).generate(1, seed=1, scale=0.05)
        np.testing.assert_array_equal(naive["video"], fl["video"])


def _nine_clip_likelihood(video_frame, px, py):
    """The likelihood with one ``np.clip`` pair per 3x3 tap, as it was
    before the six row/column indices were hoisted: the oracle."""
    img = video_frame.shape[0]
    lik = np.zeros(len(px), dtype=np.float64)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            ix = np.clip(np.round(px + dx).astype(int), 0, img - 1)
            iy = np.clip(np.round(py + dy).astype(int), 0, img - 1)
            sample = video_frame[iy, ix].astype(np.float64)
            lik += ((sample - 100.0) ** 2 - (sample - 228.0) ** 2) / 50.0
    return lik / 9.0


def _per_draw_filter(video, n_particles, seed):
    """``particlefilter_reference`` with one ``normal()`` call per draw
    and the nine-clip likelihood: the oracle for the fast forms."""
    frames, img, _ = video.shape
    rng = LcgPark(seed)
    px = np.full(n_particles, img / 4.0)
    py = np.full(n_particles, img / 4.0)
    weights = np.full(n_particles, 1.0 / n_particles)
    estimates = np.zeros((frames, 2))
    for t in range(frames):
        px = px + 1.0 + np.array([rng.normal() for _ in range(n_particles)]) * 0.5
        py = py + 1.5 + np.array([rng.normal() for _ in range(n_particles)]) * 0.5
        lik = _nine_clip_likelihood(video[t], px, py)
        weights = weights * np.exp(0.05 * (lik - lik.max()))
        weights /= weights.sum()
        estimates[t] = ((px * weights).sum(), (py * weights).sum())
        cdf = np.cumsum(weights)
        u = _systematic_u(n_particles, rng)
        idx = np.clip(np.searchsorted(cdf, u), 0, n_particles - 1)
        px, py = px[idx].copy(), py[idx].copy()
        weights = np.full(n_particles, 1.0 / n_particles)
    return estimates


class TestParticleFilterOracle:
    """The reference and ``run_sycl`` share ``_likelihood`` and
    ``LcgPark.normals``, so ``verify`` cannot catch a slip in them;
    these pin both byte for byte to the per-tap, per-draw forms."""

    @pytest.mark.parametrize("seed", range(4))
    def test_likelihood_matches_nine_clip_form(self, seed):
        video, _ = _make_video(3, 64, seed=seed)
        rng = np.random.default_rng(seed)
        # spans the frame edges, so every clip bound is exercised
        px = rng.uniform(-3.0, 67.0, size=97)
        py = rng.uniform(-3.0, 67.0, size=97)
        for frame in video:
            got = _likelihood(frame, px, py)
            assert got.tobytes() == _nine_clip_likelihood(frame, px, py).tobytes()

    @pytest.mark.parametrize("float_version", [False, True],
                             ids=["naive", "float"])
    @pytest.mark.parametrize("seed", range(4))
    def test_filter_matches_per_draw_form(self, seed, float_version):
        app = ParticleFilter(float_version)
        wl = app.generate(1, seed=seed, scale=0.05)
        p = wl.params
        want = _per_draw_filter(wl["video"], p["n_particles"], p["seed"])
        got = particlefilter_reference(wl["video"], p["n_particles"], p["seed"])
        assert got.tobytes() == want.tobytes()
        for variant in (Variant.SYCL_OPT, Variant.FPGA_OPT):
            out = app.run_sycl(Queue("rtx2080"), wl, variant)["estimates"]
            assert out.tobytes() == want.tobytes(), variant


class TestRaytracingDetails:
    def test_image_in_unit_range(self):
        scene = make_scene(4, seed=0)
        rng = np.random.Generator(np.random.Philox(1))
        img = render(16, 16, 2, scene, rng)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_deterministic_given_stream(self):
        scene = make_scene(4, seed=0)
        a = render(12, 12, 2, scene, np.random.Generator(np.random.Philox(7)))
        b = render(12, 12, 2, scene, np.random.Generator(np.random.Philox(7)))
        np.testing.assert_array_equal(a, b)

    def test_more_samples_reduce_noise(self):
        scene = make_scene(6, seed=2)
        imgs = []
        for spp, seed in ((2, 1), (16, 2)):
            imgs.append(render(16, 16, spp, scene,
                               np.random.Generator(np.random.Philox(seed))))
        ref = render(16, 16, 64, scene,
                     np.random.Generator(np.random.Philox(99)))
        err2 = np.abs(imgs[0] - ref).mean()
        err16 = np.abs(imgs[1] - ref).mean()
        assert err16 < err2

    def test_scene_has_ground_sphere(self):
        centers, radii, mats = make_scene(5, seed=1)
        assert radii[0] == 1000.0
        assert len(mats) == 6

    def test_sky_visible_from_empty_scene(self):
        centers, radii, mats = make_scene(0, seed=0)
        # remove the ground too: rays all hit the sky gradient
        img = render(8, 8, 2, (centers[:0], radii[:0], []),
                     np.random.Generator(np.random.Philox(3)))
        assert img.mean() > 0.5  # bright sky


class TestSradDetails:
    def test_smoothing_reduces_variance(self):
        rng = np.random.default_rng(0)
        img = np.exp(rng.normal(0, 0.3, (64, 64))).astype(np.float32)
        out = srad_reference(img, iterations=10)
        assert out.var() < img.var()

    def test_near_constant_image_barely_changes(self):
        """A nearly-flat image has nearly-zero gradients: the update is
        tiny.  (An exactly constant image is degenerate: q0sqr = 0.)"""
        rng = np.random.default_rng(7)
        img = (3.0 + 1e-4 * rng.normal(size=(32, 32))).astype(np.float32)
        out = srad_step(img)
        np.testing.assert_allclose(out, img, atol=1e-4)

    def test_positivity_preserved(self):
        rng = np.random.default_rng(1)
        img = np.exp(rng.normal(0, 0.3, (32, 32))).astype(np.float32)
        out = srad_reference(img, iterations=20)
        assert (out > 0).all()

    def test_mean_roughly_preserved(self):
        """Diffusion redistributes; it should not create/destroy much."""
        rng = np.random.default_rng(2)
        img = np.exp(rng.normal(0, 0.3, (64, 64))).astype(np.float32)
        out = srad_reference(img, iterations=5)
        assert abs(out.mean() - img.mean()) / img.mean() < 0.05


class TestWhereDetails:
    def test_all_or_nothing_thresholds(self):
        rng = np.random.default_rng(0)
        records = rng.integers(0, np.iinfo(np.int32).max, (64, 4),
                               dtype=np.int32)
        all_match, _ = where_reference(records, threshold=2.0)
        none_match, _ = where_reference(records, threshold=-1.0)
        assert len(all_match) == 64
        assert len(none_match) == 0

    def test_matched_rows_preserve_order(self):
        rng = np.random.default_rng(1)
        records = rng.integers(0, np.iinfo(np.int32).max, (128, 4),
                               dtype=np.int32)
        matched, _ = where_reference(records)
        keys = matched[:, 0]
        src_keys = records[:, 0][records[:, 0] / np.iinfo(np.int32).max < 0.35]
        np.testing.assert_array_equal(keys, src_keys)

    def test_match_fraction_near_threshold(self):
        app = Where()
        wl = app.generate(1, seed=2, scale=0.002)
        matched = app.reference(wl)["matched"]
        frac = len(matched) / wl.params["n"]
        assert abs(frac - 0.35) < 0.05


class TestDwtDetails:
    def test_lift_halves_length(self):
        x = np.arange(16, dtype=np.int64)
        low, high = _lift53_1d(x)
        assert low.shape[-1] == high.shape[-1] == 8

    def test_unlift_inverts_lift(self):
        rng = np.random.default_rng(0)
        x = rng.integers(-100, 100, 32).astype(np.int64)
        low, high = _lift53_1d(x)
        np.testing.assert_array_equal(_unlift53_1d(low, high), x)

    def test_constant_signal_has_zero_detail(self):
        x = np.full(16, 7, dtype=np.int64)
        _low, high = _lift53_1d(x)
        np.testing.assert_array_equal(high, 0)

    def test_ll_band_dominates_for_smooth_image(self):
        """For a smooth (low-frequency) image, the LL band carries the
        energy and the HH detail band is near zero."""
        y, x = np.mgrid[0:32, 0:32]
        img = (4 * y + 2 * x).astype(np.int64)  # smooth ramp
        coeffs = dwt53_forward(img, levels=1)
        ll = coeffs[:16, :16]
        hh = coeffs[16:, 16:]
        assert np.abs(ll).mean() > 20 * max(np.abs(hh).mean(), 1e-9)

    def test_levels_respected(self):
        app = Dwt2D()
        assert app.nominal_dims(1)["levels"] == 3
