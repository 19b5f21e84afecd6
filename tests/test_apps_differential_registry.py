"""Registry-wide kernel-form agreement, as rows of the differential
oracle (``test_differential_oracle.py``): each test checks the rows its
name describes, which run once per session."""

import pytest

from tests.test_differential_oracle import _SEEDLESS, CONFIGS, check


@pytest.mark.parametrize("mode", ["item", "compiled"])
@pytest.mark.parametrize("config", CONFIGS)
def test_kernel_forms_agree(config, mode):
    """Every form gives the auto bytes and launches, on the paths the
    oracle pins."""
    check(config, "reduced" if mode == "item" else "golden", mode)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("config", sorted(set(CONFIGS) - _SEEDLESS))
def test_kernel_forms_agree_on_more_seeds(config, seed):
    check(config, "reduced", "item", seed)


@pytest.mark.parametrize("config", CONFIGS)
def test_decomposed_paths_match_reference(config):
    check(config, "reduced", "item")
