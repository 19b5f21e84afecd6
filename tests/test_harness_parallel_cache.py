"""Cache hierarchy: the workload memo, the persistent figure cache, and
the cached-vs-uncached bit-identical guarantee."""

import json

import numpy as np
import pytest

from repro.harness import experiments
from repro.harness.resultdb import FigureCache, _decode, _encode, code_fingerprint
from repro.harness.runner import (
    clear_workload_cache,
    generate_workload,
    workload_cache_stats,
)


class TestWorkloadMemo:
    def test_hit_returns_equal_but_isolated_copy(self):
        clear_workload_cache()
        a = generate_workload("NW", 1, seed=0, scale=0.008)
        b = generate_workload("NW", 1, seed=0, scale=0.008)
        stats = workload_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 1
        np.testing.assert_array_equal(a["score"], b["score"])
        a["score"][:] = 7  # mutating one run must not poison the next
        c = generate_workload("NW", 1, seed=0, scale=0.008)
        assert not np.array_equal(a["score"], c["score"])
        np.testing.assert_array_equal(b["score"], c["score"])

    def test_different_keys_miss(self):
        clear_workload_cache()
        generate_workload("NW", 1, seed=0, scale=0.008)
        generate_workload("NW", 1, seed=1, scale=0.008)
        generate_workload("NW", 1, seed=0, scale=0.01)
        assert workload_cache_stats()["misses"] == 3


class TestFigureCacheCodec:
    @pytest.mark.parametrize("value", [
        {"NW": (1.0, 2.5, None)},
        {(1, "cuda"): (1.1, 0.4), (3, "sycl"): (393.4, 145.7)},
        {"a": {"b": (1, 2)}, "c": [None, True, "x"]},
        (),
        3.14159,
    ])
    def test_roundtrip_identity(self, value):
        assert _decode(json.loads(json.dumps(_encode(value)))) == value

    def test_unencodable_rejected(self):
        from repro.common.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError, match="cannot encode"):
            _encode({"arr": np.zeros(3)})


class TestFigureCache:
    def test_roundtrip_and_stats(self, tmp_path):
        cache = FigureCache(tmp_path)
        assert cache.get(figure="fig2", optimized=True) is None
        value = {"NW": (1.0, 2.0, 3.0)}
        cache.put(value, figure="fig2", optimized=True)
        assert cache.get(figure="fig2", optimized=True) == value
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1

    def test_disabled_cache_never_stores(self, tmp_path):
        cache = FigureCache(tmp_path, enabled=False)
        cache.put({"x": 1}, figure="f")
        assert cache.get(figure="f") is None
        assert list(tmp_path.iterdir()) == []

    def test_fingerprint_invalidates(self, tmp_path):
        old = FigureCache(tmp_path, fingerprint="aaaa")
        old.put({"x": (1.0,)}, figure="f")
        new = FigureCache(tmp_path, fingerprint="bbbb")
        assert new.get(figure="f") is None
        assert FigureCache(tmp_path, fingerprint="aaaa").get(figure="f") == {
            "x": (1.0,)}

    def test_corrupt_entry_treated_as_miss(self, tmp_path):
        cache = FigureCache(tmp_path)
        cache.put({"x": (1.0,)}, figure="f")
        victim = next(tmp_path.glob("*.json"))
        victim.write_text("GARBAGE{{{")
        assert cache.get(figure="f") is None  # dropped, not a crash
        assert not victim.exists()
        cache.put({"x": (1.0,)}, figure="f")
        assert cache.get(figure="f") == {"x": (1.0,)}

    def test_code_fingerprint_is_stable_hex(self):
        fp = code_fingerprint()
        assert fp == code_fingerprint()
        int(fp, 16)
        assert len(fp) == 16


class TestFiguresCachedVsUncached:
    def test_figure2_cold_warm_bit_identical(self, tmp_path):
        cache = FigureCache(tmp_path)
        cold = experiments.figure2(True, cache=cache)
        uncached = experiments.figure2(True)
        warm = experiments.figure2(True, cache=cache)
        assert cache.stats()["hits"] == 1
        assert cold == uncached == warm
        # bit-identical through the serialized representation too
        assert (json.dumps(_encode(cold), sort_keys=True)
                == json.dumps(_encode(warm), sort_keys=True))

    def test_figure4_and_5_cold_warm(self, tmp_path):
        cache = FigureCache(tmp_path)
        cold4 = experiments.figure4(cache=cache)
        cold5 = experiments.figure5(cache=cache)
        warm4 = experiments.figure4(cache=cache)
        warm5 = experiments.figure5(cache=cache)
        assert cold4 == warm4
        assert cold5 == warm5
        assert warm5["agilex"]["Where"][2] is None  # None survives the codec

    def test_figure1_tuple_keys_survive(self, tmp_path):
        cache = FigureCache(tmp_path)
        cold = experiments.figure1(cache=cache)
        warm = experiments.figure1(cache=cache)
        assert cold == warm
        assert (1, "cuda") in warm


class TestCliFlags:
    def test_figures_flags_parse_and_run(self, tmp_path, capsys):
        from repro.harness.cli import main

        rc = main(["figures", "table2", "--no-cache",
                   "--cache-dir", str(tmp_path)])
        assert rc == 0
        assert "device" in capsys.readouterr().out.lower()
        assert list(tmp_path.iterdir()) == []  # --no-cache kept it empty

    def test_figures_cache_dir_populated(self, tmp_path, capsys):
        from repro.harness.cli import main

        rc = main(["figures", "fig2", "--cache-dir", str(tmp_path)])
        assert rc == 0
        assert len(list(tmp_path.glob("*.json"))) == 1
        rc = main(["figures", "fig2", "--cache-dir", str(tmp_path)])
        assert rc == 0

    def test_suite_subcommand(self, capsys):
        from repro.harness.cli import main

        rc = main(["suite"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "NW" in out and "FAIL" not in out
