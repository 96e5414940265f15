"""Haar-measure bookkeeping on Q_p^n and the Monte Carlo's random streams.

The analytic machinery in this package only ever sees points through their
norm exponent j (meaning ``|x|_p = p^j``), so the primitives here are kept
at that radial resolution:

* sphere volumes ``vol{|x|_p = p^j} = p^{jn}(1 - p^{-n})`` under the Haar
  measure normalized so the unit ball Z_p^n has volume one, exact up to
  |j n| = 30 and in log space beyond;
* the norm tag ``ZERO_NORM`` of the origin (the Z_p^n coset);
* the counter-based random streams of the Monte Carlo (:func:`split_stream`).

The coset arithmetic of Q_p^n / Z_p^n and the exact character integrals
over spheres are test oracles and live in ``tests/oracles.py``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

#: Default cap on the coset norm exponent a run may reach (``sim.depth_cap``,
#: which bounds ``sim.j_max``). Jump norms decay double-exponentially, so
#: hitting this cap signals a misconfigured run rather than a legitimate state.
DEFAULT_DEPTH_CAP = 64

#: |j * n| up to which sphere volumes are computed in exact integer arithmetic.
EXACT_EXPONENT_LIMIT = 30


def is_prime(p: int) -> bool:
    """Trial-division primality check; adequate for desk-scale primes."""
    if p < 2:
        return False
    if p in (2, 3):
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


class _ZeroNorm:
    """Tag for the norm of the zero element (equivalently the Z_p^n coset).

    Compares below every finite norm exponent. Used instead of -inf so that
    arithmetic on sentinel values is impossible by construction.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "ZERO_NORM"

    def __eq__(self, other) -> bool:
        return isinstance(other, _ZeroNorm)

    def __hash__(self) -> int:
        return hash("ZERO_NORM")

    def __lt__(self, other) -> bool:
        return not isinstance(other, _ZeroNorm)

    def __le__(self, other) -> bool:
        return True

    def __gt__(self, other) -> bool:
        return False

    def __ge__(self, other) -> bool:
        return isinstance(other, _ZeroNorm)


#: Singleton norm tag for x = 0 / the trivial coset.
ZERO_NORM = _ZeroNorm()


class SpaceParams:
    """The ambient space Q_p^n: a prime p and a dimension n >= 1. Equal
    and hashed by (p, n)."""

    __slots__ = ("p", "n")

    def __init__(self, p: int, n: int):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"p must be a prime integer, got {p!r}")
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"n must be an integer >= 1, got {n!r}")
        self.p, self.n = p, n

    def __repr__(self) -> str:
        return f"SpaceParams(p={self.p}, n={self.n})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, SpaceParams):
            return NotImplemented
        return (self.p, self.n) == (other.p, other.n)

    def __hash__(self) -> int:
        return hash((self.p, self.n))

    @property
    def log_p(self) -> float:
        return math.log(self.p)

    @property
    def unit_sphere_volume(self) -> float:
        """vol{|x|_p = 1} = 1 - p^{-n}."""
        return 1.0 - float(self.p) ** (-self.n)


# ---------------------------------------------------------------------------
# Volumes
# ---------------------------------------------------------------------------


def sphere_volume(space: SpaceParams, j: int) -> float:
    """Volume of the sphere {|x|_p = p^j}; log-space for large |j*n|. Up
    to |j*n| = 30 it is the exact rational volume rounded once: int-to-float
    and int true division both round correctly."""
    if abs(j * space.n) <= EXACT_EXPONENT_LIMIT:
        pn = space.p**space.n
        return float(pn ** (j - 1) * (pn - 1)) if j >= 1 else (pn - 1) / pn ** (1 - j)
    return math.exp(log_sphere_volume(space, j))


def log_sphere_volume(space: SpaceParams, j: int) -> float:
    """log vol{|x|_p = p^j}; safe for exponents far beyond float range."""
    return j * space.n * space.log_p + math.log1p(-float(space.p) ** (-space.n))


# ---------------------------------------------------------------------------
# Random streams
# ---------------------------------------------------------------------------


@functools.cache
def _philox_key_type() -> type:
    """A seed sequence type whose state is a given 128-bit Philox key:
    Philox keys itself with ``generate_state(2, np.uint64)``, so
    ``Philox(key_type(seed))`` has key = seed and, unlike
    ``Philox(key=seed)``, builds no ``SeedSequence()`` from OS entropy
    first. Made on first use, so importing this module does not import
    ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        def __init__(self, key: int):
            if not 0 <= key < 2**128:
                raise ValueError(f"key must be in [0, 2**128), got {key}")
            self.words = np.array([key % 2**64, key >> 64], dtype=np.uint64)

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != 2 or np.dtype(dtype) != np.uint64:
                raise ValueError("a Philox key is two uint64 words")
            return self.words

    return PhiloxKey


def split_stream(seed: int, path_index: int) -> np.random.Generator:
    """Independent counter-based stream for one Monte Carlo path.

    Philox4x64 under key = seed, started at the 256-bit counter
    (0, 0, path_index mod 2^64, path_index >> 64): each path index owns a
    disjoint 2^128-step block, and identical (seed, path_index) always
    reproduces the identical stream, independent of execution order. The
    state equals ``Philox(key=seed).jumped(path_index)`` (pinned by test)
    and is built without the jump arithmetic or any OS entropy.
    """
    # a uint64 array: numpy reads a list holding an int past 2^63 as float64,
    # and builds it faster than from the int path_index << 128
    counter = np.array([0, 0, path_index % 2**64, path_index >> 64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_philox_key_type()(seed), counter=counter))
