"""Deterministic counter/state-based RNGs used by the benchmark suite.

The paper notes (§3.3) that DPCT replaced Raytracing's cuRAND **XORWOW**
generator with oneMKL's **Philox4x32-10**, which is one reason the CUDA
and SYCL Raytracing versions "are not directly comparable".  To make that
substitution explicit and testable, the reproduction implements both
generators bit-faithfully:

* :class:`Xorwow` — Marsaglia's xorwow as used by cuRAND (5-word xorshift
  state plus a Weyl counter).
* :class:`Philox4x32` — the counter-based Philox-4x32 with 10 rounds, as
  used by oneMKL / Random123.

Both expose ``next_uint32`` / ``uniform_float`` / ``fill_uniform`` so the
benchmark kernels can swap RNGs without changing structure.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Xorwow", "Philox4x32", "LcgPark", "make_rng"]

_U32 = 0xFFFFFFFF


class Xorwow:
    """The xorwow generator (cuRAND's default pseudo-random generator).

    State: five 32-bit xorshift words plus a 32-bit counter advanced by
    the Weyl constant 362437, per Marsaglia (2003).
    """

    WEYL = 362437

    def __init__(self, seed: int = 0):
        # cuRAND-style initialization: splitmix-like scramble of the seed
        # into the five state words (any nonzero fill works for xorshift;
        # this mirrors the common reference construction).
        s = seed & 0xFFFFFFFFFFFFFFFF
        words = []
        for _ in range(5):
            s = (s + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
            z = s
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
            words.append((z ^ (z >> 31)) & _U32)
        if all(w == 0 for w in words):
            words[0] = 1
        self.state = words
        self.counter = 0

    def next_uint32(self) -> int:
        x, y, z2, w, v = self.state
        t = (x ^ ((x >> 2) & _U32)) & _U32
        x, y, z2, w = y, z2, w, v
        v = (v ^ ((v << 4) & _U32)) & _U32
        v = (v ^ t ^ ((t << 1) & _U32)) & _U32
        self.state = [x, y, z2, w, v]
        self.counter = (self.counter + self.WEYL) & _U32
        return (v + self.counter) & _U32

    def uniform_float(self) -> float:
        """Uniform in (0, 1], matching curand_uniform's convention."""
        return (self.next_uint32() + 1) * (1.0 / 4294967296.0)

    def fill_uniform(self, n: int) -> np.ndarray:
        out = np.empty(n, dtype=np.float32)
        for i in range(n):
            out[i] = self.uniform_float()
        return out

    def normal(self) -> float:
        """Box-Muller transform on two uniforms (curand_normal style)."""
        import math

        u1 = self.uniform_float()
        u2 = self.uniform_float()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


_PHILOX_M0 = 0xD2511F53
_PHILOX_M1 = 0xCD9E8D57
_PHILOX_W0 = 0x9E3779B9
_PHILOX_W1 = 0xBB67AE85


def _mulhilo32(a: int, b: int) -> tuple[int, int]:
    p = a * b
    return (p >> 32) & _U32, p & _U32


class Philox4x32:
    """Philox-4x32 counter-based generator with ``rounds`` rounds.

    oneMKL's ``philox4x32x10`` uses 10 rounds; each ``next_block`` call
    produces four 32-bit outputs and increments the 128-bit counter.
    """

    def __init__(self, seed: int = 0, rounds: int = 10):
        self.key = [seed & _U32, (seed >> 32) & _U32]
        self.counter = [0, 0, 0, 0]
        self.rounds = rounds
        self._buf: list[int] = []

    def _bump_counter(self) -> None:
        for i in range(4):
            self.counter[i] = (self.counter[i] + 1) & _U32
            if self.counter[i] != 0:
                break

    def next_block(self) -> list[int]:
        c = list(self.counter)
        k0, k1 = self.key
        for _ in range(self.rounds):
            hi0, lo0 = _mulhilo32(_PHILOX_M0, c[0])
            hi1, lo1 = _mulhilo32(_PHILOX_M1, c[2])
            c = [
                (hi1 ^ c[1] ^ k0) & _U32,
                lo1,
                (hi0 ^ c[3] ^ k1) & _U32,
                lo0,
            ]
            k0 = (k0 + _PHILOX_W0) & _U32
            k1 = (k1 + _PHILOX_W1) & _U32
        self._bump_counter()
        return c

    def next_uint32(self) -> int:
        if not self._buf:
            self._buf = self.next_block()
        return self._buf.pop()

    def uniform_float(self) -> float:
        return (self.next_uint32() + 1) * (1.0 / 4294967296.0)

    def fill_uniform(self, n: int) -> np.ndarray:
        out = np.empty(n, dtype=np.float32)
        for i in range(n):
            out[i] = self.uniform_float()
        return out

    def skip_ahead(self, n_blocks: int) -> None:
        """Advance the 128-bit counter by ``n_blocks`` (stream splitting)."""
        carry = n_blocks
        for i in range(4):
            total = self.counter[i] + (carry & _U32)
            self.counter[i] = total & _U32
            carry = (carry >> 32) + (total >> 32)
            if carry == 0:
                break
        self._buf = []


class LcgPark:
    """Park–Miller minimal-standard LCG.

    Altis' ParticleFilter uses this simple LCG (as did the Rodinia
    original) for its particle-roughening noise; it is kept separate from
    the cuRAND-class generators above.
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


def make_rng(kind: str, seed: int = 0):
    """Factory keyed by the generator names the paper mentions."""
    kind = kind.lower()
    if kind in ("xorwow", "curand"):
        return Xorwow(seed)
    if kind in ("philox", "philox4x32x10", "onemkl"):
        return Philox4x32(seed)
    if kind in ("lcg", "park-miller"):
        return LcgPark(seed or 1)
    raise ValueError(f"unknown rng kind: {kind}")
