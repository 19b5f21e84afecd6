"""Small shared utilities: geometric mean and time formatting."""

from __future__ import annotations

import math
from typing import Iterable

__all__ = ["geomean", "human_time"]


def geomean(values: Iterable[float]) -> float:
    """Geometric mean, as the paper uses for speedup summaries."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in vals):
        raise ValueError("geomean requires positive values")
    return float(math.exp(sum(math.log(v) for v in vals) / len(vals)))


def human_time(seconds: float) -> str:
    if seconds < 1e-6:
        return f"{seconds * 1e9:.1f} ns"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.3f} s"
