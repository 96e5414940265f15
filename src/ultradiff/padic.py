"""Exact arithmetic and Haar-measure bookkeeping on Q_p^n.

The analytic machinery in this package only ever sees points through their
norm exponent j (meaning ``|x|_p = p^j``), so the primitives here are kept
at that radial resolution:

* sphere volumes ``vol{|x|_p = p^j} = p^{jn}(1 - p^{-n})`` under the Haar
  measure normalized so the unit ball Z_p^n has volume one;
* additive-character integrals over spheres, which collapse to a three-case
  closed form and turn every radial Fourier integral into a sphere sum;
* the quotient group Q_p^n / Z_p^n, stored as finite digit patterns at
  positions -1, -2, ..., the state space of the coset chain (jumps of norm
  <= 1 act trivially on it); the simulator walks only its lumped norm chain;
* the counter-based random streams of the Monte Carlo (:func:`split_stream`).

Small exponents can be computed in exact rational arithmetic (`Fraction`)
for use as test oracles; the float paths switch to log space when the
magnitudes leave the comfortable range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import DepthOverflow

#: Default cap on digit depth for coset points (positions -1 .. -DEPTH_CAP).
#: Jump norms decay double-exponentially, so hitting this cap signals a
#: misconfigured run rather than a legitimate state.
DEFAULT_DEPTH_CAP = 64

#: |j * n| up to which volumes and character sums stay in exact arithmetic.
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

NormExponent = Union[int, _ZeroNorm]


@dataclass(frozen=True)
class SpaceParams:
    """The ambient space Q_p^n: a prime p and a dimension n >= 1."""

    p: int
    n: int

    def __post_init__(self):
        if not isinstance(self.p, int) or not is_prime(self.p):
            raise ValueError(f"p must be a prime integer, got {self.p!r}")
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"n must be an integer >= 1, got {self.n!r}")

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


def sphere_volume_frac(space: SpaceParams, j: int) -> Fraction:
    """Exact sphere volume p^{jn}(1 - p^{-n}) as a Fraction (|j*n| <= 30)."""
    if abs(j * space.n) > EXACT_EXPONENT_LIMIT:
        raise ValueError("exponent too large for exact arithmetic; use sphere_volume")
    pn = Fraction(space.p) ** space.n
    return pn ** j * (1 - 1 / pn)


def sphere_volume(space: SpaceParams, j: int) -> float:
    """Volume of the sphere {|x|_p = p^j}; log-space for large |j*n|. Up
    to |j*n| = 30 it is float(sphere_volume_frac): int-to-float and int
    true division both round correctly, so no Fraction is needed."""
    if abs(j * space.n) <= EXACT_EXPONENT_LIMIT:
        pn = space.p**space.n
        return float(pn ** (j - 1) * (pn - 1)) if j >= 1 else (pn - 1) / pn ** (1 - j)
    return math.exp(log_sphere_volume(space, j))


def log_sphere_volume(space: SpaceParams, j: int) -> float:
    """log vol{|x|_p = p^j}; safe for exponents far beyond float range."""
    return j * space.n * space.log_p + math.log1p(-float(space.p) ** (-space.n))


# ---------------------------------------------------------------------------
# Character integrals over spheres
# ---------------------------------------------------------------------------


def character_sphere_integral_frac(
    space: SpaceParams, y_exp: NormExponent, sphere_exp: int
) -> Fraction:
    """Exact value of the character integral over a sphere.

    Computes ``int_{|xi|_p = p^sphere_exp} chi_p(-y . xi) d^n xi`` for any y
    with ``|y|_p = p^y_exp`` (the value depends on y only through its norm).
    Three cases, writing s = y_exp + sphere_exp:

    * s <= 0: the character is identically 1, giving the sphere volume;
    * s == 1: the sphere splits into cosets on which the character averages
      to zero except for a deficit of one sub-ball, giving -p^{(sphere_exp-1)n};
    * s >= 2: full cancellation, 0.
    """
    if isinstance(y_exp, _ZeroNorm):
        return sphere_volume_frac(space, sphere_exp)
    s = y_exp + sphere_exp
    if s <= 0:
        return sphere_volume_frac(space, sphere_exp)
    if s == 1:
        return -(Fraction(space.p) ** ((sphere_exp - 1) * space.n))
    return Fraction(0)


def character_sphere_integral(
    space: SpaceParams, y_exp: NormExponent, sphere_exp: int
) -> float:
    """Float version of :func:`character_sphere_integral_frac` (log-space safe)."""
    if isinstance(y_exp, _ZeroNorm):
        return sphere_volume(space, sphere_exp)
    s = y_exp + sphere_exp
    if s <= 0:
        return sphere_volume(space, sphere_exp)
    if s == 1:
        if abs((sphere_exp - 1) * space.n) <= EXACT_EXPONENT_LIMIT:
            return -float(Fraction(space.p) ** ((sphere_exp - 1) * space.n))
        return -math.exp((sphere_exp - 1) * space.n * space.log_p)
    return 0.0


# ---------------------------------------------------------------------------
# p-adic fractional part of rationals (used by tests and coset construction)
# ---------------------------------------------------------------------------


def padic_fractional_part(x: Fraction, p: int) -> Fraction:
    """The p-adic fractional part {x}_p of a rational x.

    Writes x = p^{-m} a/b with p coprime to a and b; for m <= 0 the result
    is 0, otherwise it is the unique rational in [0, 1) with denominator
    p^m congruent to x modulo Z_p.
    """
    x = Fraction(x)
    if x == 0:
        return Fraction(0)
    num, den = x.numerator, x.denominator
    m = 0
    while den % p == 0:
        den //= p
        m += 1
    if m == 0:
        return Fraction(0)
    mod = p**m
    return Fraction((num * pow(den, -1, mod)) % mod, mod)


# ---------------------------------------------------------------------------
# The quotient group Q_p^n / Z_p^n
# ---------------------------------------------------------------------------


def _trim(digits: Iterable[int]) -> tuple[int, ...]:
    out = list(digits)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@dataclass(frozen=True)
class CosetPoint:
    """An element of Q_p^n / Z_p^n as canonical fractional digit arrays.

    ``digits[c][k]`` is the base-p digit of coordinate c at position -(k+1),
    i.e. the coefficient of p^{-(k+1)} in the canonical representative.
    Trailing zeros are trimmed, so equality of digit tuples is equality of
    cosets and the identity coset is n empty tuples.
    """

    space: SpaceParams
    digits: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.digits) != self.space.n:
            raise ValueError("need one digit array per coordinate")
        trimmed = tuple(_trim(d) for d in self.digits)
        for d in trimmed:
            if any(not (0 <= a < self.space.p) for a in d):
                raise ValueError("digits must lie in {0, ..., p-1}")
        object.__setattr__(self, "digits", trimmed)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, space: SpaceParams) -> "CosetPoint":
        return cls(space, ((),) * space.n)

    @classmethod
    def from_digit_maps(
        cls,
        space: SpaceParams,
        maps: Sequence[dict[int, int]],
        depth_cap: int = DEFAULT_DEPTH_CAP,
    ) -> "CosetPoint":
        """Build from per-coordinate {position: digit} maps, positions < 0."""
        arrays = []
        for m in maps:
            depth = max((-pos for pos in m), default=0)
            if depth > depth_cap:
                raise DepthOverflow(
                    f"digit at position -{depth} is below the cap -{depth_cap}"
                )
            arr = [0] * depth
            for pos, dig in m.items():
                if pos >= 0:
                    raise ValueError("coset digits live at negative positions only")
                arr[-pos - 1] = dig
            arrays.append(tuple(arr))
        return cls(space, tuple(arrays))

    @classmethod
    def from_fractions(
        cls,
        space: SpaceParams,
        values: Sequence[Fraction],
        depth_cap: int = DEFAULT_DEPTH_CAP,
    ) -> "CosetPoint":
        """Project exact rational coordinates to their coset."""
        arrays = []
        for v in values:
            frac = padic_fractional_part(Fraction(v), space.p)
            den = frac.denominator
            depth = 0 if frac == 0 else round(math.log(den, space.p))
            if depth > depth_cap:
                raise DepthOverflow(
                    f"rational {v} needs depth {depth} > cap {depth_cap}"
                )
            num = frac.numerator * (space.p**depth // den) if frac else 0
            arr = []
            for k in range(depth):  # digit of p^{-(k+1)}
                arr.append((num // space.p ** (depth - 1 - k)) % space.p)
            arrays.append(tuple(arr))
        return cls(space, tuple(arrays))

    @classmethod
    def from_residues(
        cls, space: SpaceParams, residues: Sequence[int], depth: int
    ) -> "CosetPoint":
        """Inverse of :meth:`to_residues` at the given depth."""
        arrays = []
        for a in residues:
            a %= space.p**depth
            arr = [(a // space.p ** (depth - 1 - k)) % space.p for k in range(depth)]
            arrays.append(tuple(arr))
        return cls(space, tuple(arrays))

    # -- structure ---------------------------------------------------------

    @property
    def depth(self) -> int:
        return max((len(d) for d in self.digits), default=0)

    def is_zero(self) -> bool:
        return all(len(d) == 0 for d in self.digits)

    def norm_exponent(self) -> NormExponent:
        """j with coset norm p^j (always >= 1), or ZERO_NORM for the identity."""
        if self.is_zero():
            return ZERO_NORM
        return self.depth

    def to_residues(self, depth: int | None = None) -> tuple[int, ...]:
        """Encode each coordinate as an integer A < p^depth.

        The coset digit at position -(k+1) becomes the coefficient of
        p^{depth-1-k}, which turns coset addition into integer addition
        modulo p^depth (carries toward position -1, overflow dropped).
        """
        d = self.depth if depth is None else depth
        if d < self.depth:
            raise ValueError("requested residue depth discards digits")
        out = []
        for digs in self.digits:
            a = 0
            for k, dig in enumerate(digs):
                a += dig * self.space.p ** (d - 1 - k)
            out.append(a)
        return tuple(out)

    def to_fractions(self) -> tuple[Fraction, ...]:
        """Canonical representative in [0,1)^n as exact rationals."""
        out = []
        for digs in self.digits:
            out.append(
                sum(
                    (Fraction(dig, self.space.p ** (k + 1)) for k, dig in enumerate(digs)),
                    Fraction(0),
                )
            )
        return tuple(out)

    # -- group operations ----------------------------------------------------

    def __add__(self, other: "CosetPoint") -> "CosetPoint":
        return coset_add(self, other)

    def __neg__(self) -> "CosetPoint":
        return coset_neg(self)

    def __sub__(self, other: "CosetPoint") -> "CosetPoint":
        return coset_add(self, coset_neg(other))


def coset_add(a: CosetPoint, b: CosetPoint) -> CosetPoint:
    """Digitwise base-p addition with carries toward position -1.

    In the residue encoding of :meth:`CosetPoint.to_residues` this is
    integer addition modulo p^depth: carries leaving position -1 land in
    Z_p^n and are dropped, which is the quotient-group law. The result is
    never deeper than the deeper operand, so the depth cap can only be
    exceeded at construction time.
    """
    if a.space != b.space:
        raise ValueError("cosets live over different spaces")
    depth = max(a.depth, b.depth)
    sums = [x + y for x, y in zip(a.to_residues(depth), b.to_residues(depth))]
    return CosetPoint.from_residues(a.space, sums, depth)


def coset_neg(a: CosetPoint) -> CosetPoint:
    """Group inverse: the coset of -x, residue negation modulo p^depth."""
    return CosetPoint.from_residues(a.space, [-r for r in a.to_residues()], a.depth)


# ---------------------------------------------------------------------------
# Random streams
# ---------------------------------------------------------------------------


def split_stream(seed: int, path_index: int) -> np.random.Generator:
    """Independent counter-based stream for one Monte Carlo path.

    Philox4x64 under key = seed, started at the 256-bit counter
    (0, 0, path_index mod 2^64, path_index >> 64): each path index owns a
    disjoint 2^128-step block, and identical (seed, path_index) always
    reproduces the identical stream, independent of execution order. The
    state equals ``Philox(key=seed).jumped(path_index)`` (pinned by test)
    and is built without the jump arithmetic.
    """
    # a uint64 array: numpy reads a list holding an int past 2^63 as float64,
    # and builds it faster than from the int path_index << 128
    counter = np.array([0, 0, path_index % 2**64, path_index >> 64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=seed))
