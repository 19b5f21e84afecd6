"""Docstring examples are executable documentation: run them.

CI additionally runs ``pytest --doctest-modules`` over these modules;
this file keeps the same guarantee inside the tier-1 suite, which must
pass in a bare environment.
"""

from __future__ import annotations

import doctest

import pytest

import repro.common.cache
import repro.common.rng
import repro.harness.runner
import repro.sycl.queue


@pytest.mark.parametrize("module", [
    repro.common.cache,
    repro.common.rng,
    repro.harness.runner,
    repro.sycl.queue,
], ids=lambda m: m.__name__)
def test_module_doctests(module):
    failures, tested = doctest.testmod(module, verbose=False)
    assert failures == 0
    assert tested > 0, f"{module.__name__} lost its doctest examples"
