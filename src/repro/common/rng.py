"""The deterministic RNG of the benchmark suite.

Altis' ParticleFilter draws its particle-roughening noise from a
Park–Miller minimal-standard LCG (as did the Rodinia original);
:class:`LcgPark` reproduces it bit for bit.  Raytracing, whose cuRAND
XORWOW generator DPCT swaps for oneMKL's Philox4x32-10 (§3.3), draws
from numpy's ``Philox`` bit generator.
"""

from __future__ import annotations

from .._exports import lazy_module

np = lazy_module("numpy")

__all__ = ["LcgPark"]


class LcgPark:
    """Park–Miller minimal-standard LCG.

    Altis' ParticleFilter uses this simple LCG (as did the Rodinia
    original) for its particle-roughening noise.
    """

    A = 16807
    M = 2147483647

    def __init__(self, seed: int = 1):
        self.state = seed % self.M
        if self.state == 0:
            self.state = 1

    def next_int(self) -> int:
        self.state = (self.A * self.state) % self.M
        return self.state

    def uniform_float(self) -> float:
        return self.next_int() / self.M

    def normal(self) -> float:
        import math

        u1 = self.uniform_float()
        u2 = self.uniform_float()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def normals(self, n: int) -> np.ndarray:
        """``n`` draws of :meth:`normal` as a float64 array, in one loop.

        Returns the same values, and leaves the same ``state``, as ``n``
        calls to :meth:`normal`.

        >>> a, b = LcgPark(7), LcgPark(7)
        >>> a.normals(3).tolist() == [b.normal() for _ in range(3)]
        True
        >>> a.state == b.state
        True
        """
        from math import cos, log, pi, sqrt

        a, m, s = self.A, self.M, self.state
        two_pi = 2.0 * pi
        out = []
        for _ in range(n):
            s = (a * s) % m
            u1 = s / m
            s = (a * s) % m
            out.append(sqrt(-2.0 * log(u1)) * cos(two_pi * (s / m)))
        self.state = s
        return np.array(out, dtype=np.float64)
