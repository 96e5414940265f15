"""Test oracles that no CLI command needs, kept out of the package so its
import does not compile them.

* exact rational sphere volumes and character integrals over spheres
  (``Fraction``), against which the package's float volumes and its
  sphere-sum transform are checked;
* the p-adic fractional part of a rational and the quotient group
  Q_p^n / Z_p^n as canonical digit arrays (:class:`CosetPoint`), the state
  space whose lumped norm chain ``ultradiff.heat.norm_chain`` and
  ``ultradiff.sim`` walk;
* ball transition probabilities P(X_t in B) for balls around coset points
  (:func:`transition_prob`), one row of the package's heat series;
* the heat series at hundreds of digits (:class:`HeatOracle`): the sphere
  masses of Ztilde as the difference of the two sums that agree to many
  digits, the form the package's telescoped series replaced;
* the re-entry flux folded from the u rows' sphere series into one weight
  per spectral entry (:func:`inflow_weights`), the form the package's
  spectral measure replaced;
* the renewal equation g = g (*) f + f stepped by the trapezoid rule
  (:func:`stepper_solve`) and its residual (:func:`quadrature_residual`),
  the time-domain route to f that the package's closed-form mixture
  replaced;
* partial sums showing that e^{-c|x|}/|x| is not integrable over Z_p;
* verify's Binomial tail z score summed over the whole support
  (:func:`binomial_tail_z`), which the package's windowed sum equals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist
from typing import Iterable, Sequence, Union

import mpmath
import numpy as np

from ultradiff.cli import _log_factorials
from ultradiff.errors import UltradiffError
from ultradiff.heat import HeatState, _decay, _table, ztilde_table
from ultradiff.landscape import LandscapeParams, sphere_masses_above
from ultradiff.padic import (
    DEFAULT_DEPTH_CAP,
    EXACT_EXPONENT_LIMIT,
    SpaceParams,
    ZERO_NORM,
    _ZeroNorm,
    sphere_volume,
)

NormExponent = Union[int, _ZeroNorm]


# ---------------------------------------------------------------------------
# Exact volumes and character integrals over spheres
# ---------------------------------------------------------------------------


def sphere_volume_frac(space: SpaceParams, j: int) -> Fraction:
    """Exact sphere volume p^{jn}(1 - p^{-n}) as a Fraction (|j*n| <= 30)."""
    if abs(j * space.n) > EXACT_EXPONENT_LIMIT:
        raise ValueError("exponent too large for exact arithmetic; use sphere_volume")
    pn = Fraction(space.p) ** space.n
    return pn ** j * (1 - 1 / pn)


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
# p-adic fractional part of rationals
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


class DepthOverflow(UltradiffError):
    """A coset digit would fall below the configured depth cap."""


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
# Ball transition probabilities
# ---------------------------------------------------------------------------


def transition_prob(
    state: HeatState,
    x: CosetPoint,
    center: CosetPoint,
    radius_exp: int,
    t: float,
) -> float:
    """p_t(x, B) for a ball B of radius p^radius_exp around a canonical point.

    Balls with radius_exp >= 1 are unions of unit cosets; radius_exp <= 0
    means a sub-ball of a single coset (centered at the canonical
    representative of `center`). A displaced ball off the origin lies in
    one sphere, where the density is constant. For the ball B_r around it,
    1_{B_r} transforms to p^{rn} 1_{B_{-r}}, so by Plancherel
    P(X_t in B_r) = sum_{j>=0} vol(S_{-j}) e^{-lambda_{-j-r} t} for every
    integer r: one :func:`ultradiff.heat.sphere_series` row, atom e^{-t}
    included.
    """
    if x.space != center.space:
        raise ValueError("x and ball center live over different spaces")
    space = x.space
    delta = center - x
    d = delta.norm_exponent()
    if t == 0.0:
        inside = delta.is_zero() or (not isinstance(d, _ZeroNorm) and d <= radius_exp)
        return 1.0 if inside else 0.0
    if not delta.is_zero() and d > radius_exp:
        # every point of the displaced ball sits on the sphere of norm p^d
        z = float(ztilde_table(state, [d], t)[0, 0])
        return z * float(space.p) ** (radius_exp * space.n)
    return float(_table(state, [radius_exp], [t], _decay)[0, 0])


# ---------------------------------------------------------------------------
# The heat series at high precision
# ---------------------------------------------------------------------------


class HeatOracle:
    """The heat series of one landscape in mpmath.

    lambda_k = sum_{m >= 1-k} mass_m + mass_{1-k} / (p^n - 1), with mass_m =
    c p^{m gamma} e^{-C1 p^m} vol(S_m) (c the landscape's own normalizing
    constant), summed directly from p^-100 up to the first sphere 400
    digits below the largest, far below a double's range. :meth:`sphere_mass`
    forms the bracket of the heat series, A - correction, as the difference
    of its two sums. That spends about as many digits as the two agree in,
    so it works at 20 digits plus those it spends, raising the precision
    until it has them (120 digits lose the desk point's i = 8 at t = 0.1).
    """

    def __init__(self, params: LandscapeParams):
        self.params = params
        self._tables: dict[int, tuple] = {}

    def _spheres(self, dps: int) -> tuple:
        """(p^n, mass_m from m = -100, their suffix sums), at dps digits."""
        if dps not in self._tables:
            params = self.params
            p, n = mpmath.mpf(params.space.p), params.space.n
            pn, gamma, c1 = p**n, mpmath.mpf(params.gamma), mpmath.mpf(params.c1)
            masses, m = [], -100
            while m <= 0 or masses[-1] >= mpmath.mpf(10) ** -400 * max(masses):
                masses.append(
                    p ** (m * gamma) * mpmath.exp(-c1 * p**m) * pn**m * (1 - 1 / pn)
                    * mpmath.mpf(params.norm_const)
                )
                m += 1
            suffix = list(itertools.accumulate(reversed(masses)))[::-1]
            self._tables[dps] = pn, masses, suffix
        return self._tables[dps]

    def lam(self, k: int, dps: int):
        """lambda_k = 1 - Jhat(p^k) at dps digits (call inside workdps)."""
        pn, masses, suffix = self._spheres(dps)
        m = 1 - k + 100
        if m < 0:
            raise ValueError(f"lambda_{k} needs spheres below p^-100")
        return suffix[m] + masses[m] / (pn - 1) if m < len(masses) else 0

    def sphere_mass(self, i: int, t: float, slope: bool = False, dps: int = 50):
        """(vol(S_i) Ztilde(p^i, t), [vol(S_{-k}) chi_{i+k}(t) for k >= 0]) as
        mpf, or with slope the t-derivative and the parts of the slopes. The
        value is (1 - p^{-n}) (A - E_{1-i}) with A = sum_j vol(S_{-j}) E_{-j-i} and
        E_k = e^{-lambda_k t}; the terms past j = J, where lambda_{-j-i} is
        0 at this precision, sum to p^{-nJ} (1 - E_{1-i}). The list holds
        the terms the package sums, the telescoped differences chi_a =
        E_{-a} - E_{1-a}, the scale of its rounding; they are formed as
        -E_{-a} expm1(-delta_a t) with delta_a = (p^n mass_a - mass_{a+1}) /
        (p^n - 1), which no precision cancels to 0. Each slope chi'_a =
        -lambda_{-a} chi_a + delta_a E_{1-a} cancels in its own value (near
        lambda t = 1), so it enters the list as its two parts."""
        while True:
            with mpmath.workdps(dps):
                pn, masses, _ = self._spheres(dps)
                vol0, lam = 1 - 1 / pn, lambda k: self.lam(k, dps)  # noqa: E731
                e = lambda k: mpmath.exp(-lam(k) * t)  # noqa: E731
                term = (lambda k: -lam(k) * e(k)) if slope else e
                n_j = max(len(masses) - 100 - i, 1)
                corr = term(1 - i)
                parts = [vol0 * pn**-j * term(-j - i) for j in range(n_j)]
                parts += [pn**-n_j * (0 if slope else 1) - corr]
                value = vol0 * mpmath.fsum(parts)
                terms = []
                for a in range(i, i + n_j):
                    mass = [masses[m + 100] if m + 100 < len(masses) else 0 for m in (a, a + 1)]
                    gap = (pn * mass[0] - mass[1]) / (pn - 1)
                    chi = [-e(-a) * mpmath.expm1(-gap * t)]
                    if slope:
                        chi = [-lam(-a) * chi[0], gap * e(1 - a)]
                    terms += [vol0 * pn ** (i - a) * x for x in chi]
                if mpmath.fsum(map(abs, terms)) < mpmath.mpf(10) ** -330:
                    # below every double, where no digit of the bracket is wanted
                    return mpmath.fsum(terms), terms
                # every digit is spent when the parts cancel to 0 at this precision
                spent = mpmath.log10(max(map(abs, parts)) / abs(value)) if value else dps
                if dps - spent >= 20:
                    return value, terms
            if dps > 2000:
                raise ValueError(f"the bracket at i={i}, t={t} needs over 2000 digits")
            dps = 100 * (int(spent) // 100 + 1) + 50

    def rounding_bound(self, terms) -> float:
        """16 eps sum_k |x_k| (1 + |ln |x_k|| + |ln c|) + 2^-1022: what a
        double sum of the terms x_k may be off by. Each term is an
        exponential of a sum of logs (c, p^{a(n+gamma)}, e^{-C1 p^a},
        e^{-lambda t}), which rounds by eps times that sum's size, about
        |ln x| plus what ln c cancels in it; below the smallest normal
        double, rounding is absolute."""
        log_c = abs(math.log(self.params.norm_const))
        with mpmath.workdps(30):
            scale = mpmath.fsum(abs(x) * (1 + abs(mpmath.log(abs(x))) + log_c) for x in terms if x)
        return 16 * float(np.finfo(float).eps * scale) + 2.0**-1022

    def survival_slope(self, t: float, dps: int = 50):
        """(dS/dt, its terms): -sum_j vol(S_{-j}) lambda_{-j} E_{-j}."""
        with mpmath.workdps(dps):
            pn, masses, _ = self._spheres(dps)
            terms = [
                -(1 - 1 / pn) * pn**-j * self.lam(-j, dps) * mpmath.exp(-self.lam(-j, dps) * t)
                for j in range(len(masses) - 100)
            ]
            return mpmath.fsum(terms), terms


# ---------------------------------------------------------------------------
# The re-entry flux as one convolution
# ---------------------------------------------------------------------------


def inflow_weights(state: HeatState, n_terms: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights c and rates lambda with sum_k c_k e^{-lambda_k t} the
    re-entry flux g(t) = sum_{m >= 1} J(p^m) vol(S_m) u(p^m, t), each row's
    sphere series cut at n_terms.

    With s_m = J(p^m) vol(S_m) p^{-nm} over the R listed spheres m = 1 .. R,
    the u rows' sphere series fold into one weight per spectral entry:

        c_k = sum_m s_m (vol(S_{k+m}) [0 <= -(k+m) < N] - [m = 1 - k]),

    for k = -R-N+1 .. 0, N = n_terms. Row a = R-m of the band holds s_m
    times (vol(S_{1-N}), ..., vol(S_0), -1) from column a on, so c is one
    convolution.
    """
    space = state.space
    w = sphere_masses_above(state.landscape, 0)
    pn = float(space.p) ** space.n
    s = (w * pn ** -np.arange(1.0, 1 + w.size))[::-1]
    band = np.append(space.unit_sphere_volume * pn ** -np.arange(n_terms - 1.0, -1, -1), -1.0)
    return np.convolve(s, band), state.cache.window(-w.size - n_terms + 1, 0)


# ---------------------------------------------------------------------------
# The renewal equation stepped in time
# ---------------------------------------------------------------------------


def stepper_solve(g: np.ndarray, h: float) -> np.ndarray:
    """f from the renewal equation g = g (*) f + f (g(t) = int_0^t g(t -
    tau) f(tau) dtau + f(t)) on a uniform grid of step h, the trapezoid
    rule stepped forward in time, O(m^2). f_k appears in its own
    quadrature only through the diagonal weight (h/2) g_0, so each step is
    explicit."""
    diag = 0.5 * h * g[0]
    f = np.zeros(len(g))
    f[0] = g[0]
    for k in range(1, len(g)):
        conv = 0.5 * g[k] * f[0]
        if k > 1:
            conv += float(np.dot(g[k - 1 : 0 : -1], f[1:k]))
        f[k] = (g[k] - h * conv) / (1.0 + diag)
    return f


def quadrature_residual(g: np.ndarray, f: np.ndarray, h: float) -> np.ndarray:
    """The renewal equation's trapezoid residual step by step, as
    :func:`stepper_solve` applies its quadrature: g_k - h (g_k f_0 / 2 +
    sum_{0<i<k} g_{k-i} f_i + g_0 f_k / 2) - f_k. For the exact f it is
    the trapezoid's error, O(h^2)."""
    res = np.empty(len(g))
    res[0] = g[0] - f[0]
    for k in range(1, len(g)):
        conv = 0.5 * g[k] * f[0] + 0.5 * g[0] * f[k]
        conv += float(np.dot(g[k - 1 : 0 : -1], f[1:k]))
        res[k] = g[k] - h * conv - f[k]
    return res


# ---------------------------------------------------------------------------
# A non-integrable profile
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NonIntegrableDemo:
    """Partial sums showing e^{-c|x|}/|x| has no integral over Z_p (n = 1)."""

    partial_sums: tuple[float, ...]
    increments: tuple[float, ...]
    limit_increment: float


def nonintegrable_demo(p: int, rate: float, m_terms: int) -> NonIntegrableDemo:
    """Sphere-by-sphere partial sums of int_{Z_p} e^{-c|x|}/|x| dx.

    The j-th sphere (norm p^{-j}) contributes e^{-c p^{-j}} (1 - 1/p),
    which tends to the constant 1 - 1/p: the partial sums grow linearly in
    the number of spheres, i.e. the integral is infinite. One-dimensional
    by construction.
    """
    space = SpaceParams(p=p, n=1)
    incs, partials = [], []
    total = 0.0
    for j in range(m_terms + 1):
        inc = math.exp(-rate * float(p) ** (-j)) * space.unit_sphere_volume
        incs.append(inc)
        total += inc
        partials.append(total)
    return NonIntegrableDemo(
        partial_sums=tuple(partials),
        increments=tuple(incs),
        limit_increment=space.unit_sphere_volume,
    )


# ---------------------------------------------------------------------------
# Binomial tails over the whole support
# ---------------------------------------------------------------------------


def binomial_tail_z(k: int, n: int, q: float) -> float:
    """-Phi^{-1}(min(P(K <= k), P(K >= k), 1/2)) under Binomial(n, q), inf
    when it underflows, each tail the ``math.fsum`` of every nonzero pmf
    term: the value ``ultradiff.cli.binomial_tail_z`` must equal bit for
    bit from a window of the terms."""
    i = np.arange(n + 1)
    log_fact = _log_factorials(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_qs = np.where(i > 0, i * np.log(q), 0.0)
        log_qs += np.where(i < n, (n - i) * np.log1p(-q), 0.0)
    pmf = np.exp(log_fact[n] - log_fact - log_fact[::-1] + log_qs)
    # only the nonzero terms: the rest underflowed to exact zeros
    tail = min(*(math.fsum(x[x != 0.0]) for x in (pmf[: k + 1], pmf[k:])), 0.5)
    return math.inf if tail == 0.0 else abs(NormalDist().inv_cdf(tail))
