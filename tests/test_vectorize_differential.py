"""``mode="compiled"`` (the queue's spelling of auto) and auto, at the
golden geometry, as rows of the differential oracle
(``test_differential_oracle.py``)."""

import pytest

from tests.test_differential_oracle import CONFIGS, check


@pytest.mark.parametrize("config", CONFIGS)
def test_compiled_mode_byte_identical_on_off(config):
    check(config, "golden", "compiled")


@pytest.mark.parametrize("config", CONFIGS)
def test_auto_mode_matches_golden_with_vectorizer(config):
    check(config, "golden", "auto")


@pytest.mark.parametrize("config", CONFIGS)
def test_tier_assignment_pinned(config):
    check(config, "golden", "compiled")
    check(config, "reduced", "item")
