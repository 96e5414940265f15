"""The exponential-type jump kernel and its radial Fourier transform.

The kernel family is ``J(|x|_p) = c |x|_p^gamma exp(-C1 |x|_p)`` with the
constant c fixed by ``int J(|x|_p) d^n x = 1``; integrability requires
gamma > -n. Every series over the kernel is built from one log-space term,
the J-mass of a sphere ``log J(p^m) + log vol(S_m)`` (:func:`log_sphere_mass`):
the mass normalization, the tail masses, the jump-norm table and the radial
transform, computed via the sphere-sum identity

    1 - Jhat(p^k) = p^{-kn} J(p^{1-k}) + sum_{m >= 1-k} J(p^m) vol(S_m),

which follows from evaluating the character integral sphere by sphere; the
lone first term is the mass of S_{1-k} over p^n - 1. In log space no term
forms J = inf times vol = 0 or overflows p^{nm}. Everything downstream
(heat kernels, survival, Laplace transforms) consumes ``1 - Jhat``
directly, so that quantity is what gets cached; it is nonnegative and at
most 2 for any normalized kernel.

For gamma in (-n, 0) the reciprocal ``1/(1 - Jhat(p^{-j}))`` grows double
exponentially in j, which is the mechanism behind recurrence; the
divergence diagnostics below therefore work in log space throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .errors import GammaOutOfRange, NonPositiveRate, SeriesDiverged
from .padic import SpaceParams, log_sphere_volume, sphere_volume

#: Default exponent window for prebuilt spectral caches.
DEFAULT_SPECTRAL_WINDOW = (-40, 40)

_MAX_SERIES_TERMS = 10_000
_TINY = 2.0**-1022  # the smallest normal double


class RadialKernel(Protocol):
    """A radial jump density: value J(p^j) for each norm exponent j."""

    space: SpaceParams

    def value_at(self, j: int) -> float: ...

    def log_value_at(self, j): ...


@dataclass(frozen=True)
class UnitBallKernel:
    """Indicator of Z_p^n: the self-dual test profile.

    Normalized for every (p, n) since vol(Z_p^n) = 1, and its radial
    transform is known in closed form (1 for k <= 0, 0 for k >= 1), which
    makes it the sharpest available oracle for the spectral code paths.
    Test-only profile; not an exponential-type landscape.
    """

    space: SpaceParams

    def value_at(self, j: int) -> float:
        return 1.0 if j <= 0 else 0.0

    def log_value_at(self, j):
        return np.where(np.asarray(j) <= 0, 0.0, -np.inf)


@dataclass(frozen=True)
class LandscapeParams:
    """A normalized exponential-type landscape c |x|^gamma e^{-C1 |x|}."""

    space: SpaceParams
    gamma: float
    c1: float
    norm_const: float

    def value_at(self, j: int) -> float:
        """J(p^j), evaluated through the log to dodge overflow at large |j|."""
        return next(_values_from(self, j, block=1))

    def log_value_at(self, j):
        """log J(p^j) for an integer or an integer array j."""
        with np.errstate(over="ignore"):
            decay = self.c1 * np.power(float(self.space.p), j)  # inf is fine
        return math.log(self.norm_const) + j * self.gamma * self.space.log_p - decay


def _values_from(kernel: RadialKernel, m: int, step: int = 1, block: int = 32):
    """J(p^m), J(p^(m + step)), ... through the log, inf above e^700 and 0
    below e^-745, from one log_value_at call per block of m."""
    while True:
        for log_val in kernel.log_value_at(np.arange(m, m + step * block, step)).tolist():
            yield math.inf if log_val > 700.0 else math.exp(log_val) if log_val > -745.0 else 0.0
        m += step * block


# ---------------------------------------------------------------------------
# Sphere masses, all from one log-space term
# ---------------------------------------------------------------------------


def log_sphere_mass(kernel: RadialKernel, m):
    """log(J(p^m) vol(S_m)), the J-mass of the sphere of norm p^m, for an
    integer or an integer array m."""
    return kernel.log_value_at(m) + log_sphere_volume(kernel.space, m)


def log_sphere_masses_from(kernel: RadialKernel, m_lo: int) -> np.ndarray:
    """log_sphere_mass for m = m_lo, m_lo + 1, ... up to and including the
    first term 80 e-folds below the largest one so far.

    Past its peak the sphere mass collapses double-exponentially, so the
    terms after that one are negligible against every sum they enter.
    """
    parts, best, m, size = [], -math.inf, m_lo, 16
    while True:
        lt = log_sphere_mass(kernel, np.arange(m, m + size))
        run = np.maximum.accumulate(np.maximum(lt, best))
        stop = np.flatnonzero((lt < run - 80.0) | (lt == -math.inf))
        if stop.size:
            parts.append(lt[: stop[0] + 1])
            return np.concatenate(parts)
        parts.append(lt)
        best, m, size = run[-1], m + size, 2 * size
        if m - m_lo > _MAX_SERIES_TERMS:
            raise SeriesDiverged(f"sphere masses from p^{m_lo} failed to settle")


def sphere_masses_above(kernel: RadialKernel, r: int) -> np.ndarray:
    """J(p^m) vol(S_m) for m = r+1, r+2, ...: the J-mass outside B_r by sphere."""
    return np.exp(log_sphere_masses_from(kernel, r + 1))


def _mass_and_tail_below(params: LandscapeParams, m):
    """(mass(S_m), a bound on the J-mass below S_m) for an integer array m.

    No ratio mass(S_{k-1}) / mass(S_k) with k <= m exceeds
    rho_m = p^{-(gamma+n)} e^{C1 (p-1) p^{m-1}}, so the bound is
    mass(S_m) rho_m / (1 - rho_m), or inf where rho_m >= 1.
    """
    p, n = float(params.space.p), params.space.n
    log_rho = params.c1 * (p - 1.0) * p ** (m - 1.0) - (params.gamma + n) * math.log(p)
    rho, lt = np.exp(np.minimum(log_rho, 0.0)), log_sphere_mass(params, m)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.exp(lt), np.exp(lt - np.log1p(-rho)) * rho


def sphere_masses_below(
    params: LandscapeParams, m_hi: int, rel_tol: float, head: float = 0.0
) -> np.ndarray:
    """J(p^m) vol(S_m) for m = m_hi, m_hi - 1, ... (in that order).

    The descent stops at the first term whose geometric tail bound
    (:func:`_mass_and_tail_below`) is below rel_tol times the running sum,
    head included.
    """
    parts, total, m, size = [], head, m_hi, 64
    while True:
        t, tail = _mass_and_tail_below(params, np.arange(m, m - size, -1))
        run = total + np.cumsum(t)
        done = np.flatnonzero(tail < rel_tol * run)
        if done.size:
            parts.append(t[: done[0] + 1])
            return np.concatenate(parts)
        parts.append(t)
        total, m, size = run[-1], m - size, 2 * size
        if m_hi - m > 100_000:
            raise SeriesDiverged(f"sphere masses below p^{m_hi} failed to settle")


def unnormalized_mass(space: SpaceParams, gamma: float, c1: float) -> float:
    """The series sum_j p^{j gamma} e^{-C1 p^j} vol(S_j), truncated adaptively.

    Upper tail: terms collapse double-exponentially past the mode. Lower
    tail: summed until its geometric remainder bound is below 1e-15 of the
    total.
    """
    if c1 <= 0:
        raise NonPositiveRate(f"decay rate c1 must be > 0, got {c1}")
    if gamma <= -space.n:
        raise GammaOutOfRange(
            f"gamma must exceed -n = {-space.n} for an integrable kernel, got {gamma}"
        )
    raw = LandscapeParams(space=space, gamma=gamma, c1=c1, norm_const=1.0)
    upper = sphere_masses_above(raw, -1)
    lower = sphere_masses_below(raw, -1, 1e-15, head=math.fsum(upper))
    return math.fsum(np.concatenate((upper, lower)))


def normalize(space: SpaceParams, gamma: float, c1: float) -> LandscapeParams:
    """Fix the constant c so the kernel integrates to one."""
    mass = unnormalized_mass(space, gamma, c1)
    return LandscapeParams(space=space, gamma=gamma, c1=c1, norm_const=1.0 / mass)


# ---------------------------------------------------------------------------
# Radial Fourier transform
# ---------------------------------------------------------------------------


def _spectral_log_terms(kernel: RadialKernel, k: int) -> np.ndarray:
    """Log terms of the sphere-sum series of 1 - Jhat(p^k): the J-mass of
    S_{1-k} over p^n - 1 (that is p^{-kn} J(p^{1-k})), then the J-mass of
    every sphere S_m with m >= 1-k."""
    logs = log_sphere_masses_from(kernel, 1 - k)
    first = logs[0] - math.log(float(kernel.space.p) ** kernel.space.n - 1.0)
    return np.concatenate(([first], logs))


def spectral_one_minus(kernel: RadialKernel, k: int) -> float:
    """1 - Jhat(p^k) via the sphere-sum series; nonnegative by construction.

    The terms die double-exponentially for the landscape family and
    terminate exactly for compactly supported test profiles.
    """
    return math.fsum(np.exp(_spectral_log_terms(kernel, k)))


def spectral(kernel: RadialKernel, k: int) -> float:
    """Jhat(p^k) in [-1, 1]; values drifting past the boundary by more than
    1e-10 indicate a broken series and raise instead of being clamped."""
    jhat = 1.0 - spectral_one_minus(kernel, k)  # <= 1: 1 - Jhat is a sum of exps
    if jhat < -1.0:
        if -1.0 - jhat > 1e-10:
            raise SeriesDiverged(f"Jhat(p^{k}) = {jhat} below -1 beyond tolerance")
        return -1.0
    return jhat


def spectral_by_quadrature(
    kernel: RadialKernel, k: int, rel_tol: float = 1e-12
) -> float:
    """Independent oracle: Jhat(p^k) summed directly over spheres of x.

    Uses only the closed-form character integral per sphere, i.e. the
    definition of the transform, with no rearrangement shared with
    :func:`spectral_one_minus`. Spheres above m = 1-k contribute nothing,
    the sphere at m = 1-k contributes its cancellation term, and the ones
    below contribute kernel value times volume. The kernel is normalized,
    so the un-summed lower tail is exactly 1 minus the volume-weighted
    mass seen so far; the descent stops when that remainder is negligible.
    """
    space = kernel.space
    pn = float(space.p) ** space.n
    # mass sitting above the cancellation sphere (never enters the sum)
    upper_mass = 0.0
    m = 2 - k
    zeros = 0
    values = _values_from(kernel, m)
    while zeros < 2:
        t = next(values) * sphere_volume(space, m)
        upper_mass += t
        zeros = zeros + 1 if t == 0.0 else 0
        m += 1
        if m - (2 - k) > _MAX_SERIES_TERMS:
            raise SeriesDiverged("quadrature upper tail failed to settle")
    m = 1 - k
    values = _values_from(kernel, m, -1)
    j_m = next(values)
    total = -j_m * pn ** (m - 1)  # the lone negative sphere
    mass_seen = j_m * sphere_volume(space, m)
    scale = max(abs(total), 1.0)
    while True:
        m -= 1
        # near gamma = -n, J overflows where J vol(S_m) is still in range
        j_m, vol = next(values), sphere_volume(space, m)
        normal = _TINY <= j_m < math.inf and vol >= _TINY
        term = j_m * vol if normal else math.exp(log_sphere_mass(kernel, m))
        total += term
        mass_seen += term
        scale = max(scale, abs(total))
        remaining = 1.0 - upper_mass - mass_seen  # the entire lower tail
        if remaining < rel_tol * scale:
            break
        if 1 - k - m > _MAX_SERIES_TERMS:
            raise SeriesDiverged("quadrature series failed to settle")
    return total


@dataclass
class SpectralCache:
    """Values of 1 - Jhat(p^k) for k in [k_min, k_max], held as one array
    (``values[k - k_min]``) and grown on demand.

    Each value is computed from k alone, so the array does not depend on
    the order in which windows grew. Growing rebinds ``values``, ``k_min``
    and ``k_max``, which is not safe from several threads at once: grow
    the window a computation needs before sharing the cache.
    """

    kernel: RadialKernel
    k_min: int
    k_max: int
    values: np.ndarray = None  # type: ignore[assignment]
    left_tail_reaches_one: bool = False
    right_tail_decayed: bool = False

    def __post_init__(self):
        # every sum starts at the first m past the mode whose mass underflows
        self._top = log_sphere_masses_from(self.kernel, 0).size - 1
        while math.exp(log_sphere_mass(self.kernel, self._top)) > 0.0:
            self._top += 1
        if self.values is None:
            self.values = self._compute(self.k_min, self.k_max)

    @classmethod
    def build(
        cls,
        kernel: RadialKernel,
        window: tuple[int, int] = DEFAULT_SPECTRAL_WINDOW,
    ) -> "SpectralCache":
        cache = cls(kernel=kernel, k_min=window[0], k_max=window[1])
        cache.left_tail_reaches_one = cache.one_minus(window[0]) < 1e-6
        cache.right_tail_decayed = abs(cache.jhat(window[1])) < 1e-3
        return cache

    def _compute(self, lo: int, hi: int) -> np.ndarray:
        """The series of :func:`spectral_one_minus` for k = lo..hi as one reverse
        cumulative sum of sphere masses, smallest first (0 from S_top up)."""
        space = self.kernel.space
        m = np.arange(min(1 - hi, self._top), max(1 - lo, self._top) + 1)
        mass = np.exp(log_sphere_mass(self.kernel, m))
        series = np.cumsum(mass[::-1])[::-1] + mass / (float(space.p) ** space.n - 1.0)
        v = series[1 - np.arange(lo, hi + 1) - m[0]]
        bad = np.flatnonzero(~((v >= -1e-10) & (v <= 2.0 + 1e-10)))
        if bad.size:
            k = lo + int(bad[0])
            raise SeriesDiverged(f"1 - Jhat(p^{k}) = {v[bad[0]]} outside [0, 2]")
        return np.clip(v, 0.0, 2.0)

    def window(self, lo: int, hi: int) -> np.ndarray:
        """1 - Jhat(p^k) for k = lo..hi, growing the cached window to cover it."""
        if lo < self.k_min:
            self.values = np.concatenate((self._compute(lo, self.k_min - 1), self.values))
            self.k_min = lo
        if hi > self.k_max:
            self.values = np.concatenate((self.values, self._compute(self.k_max + 1, hi)))
            self.k_max = hi
        return self.values[lo - self.k_min : hi - self.k_min + 1]

    def one_minus(self, k: int) -> float:
        return float(self.window(k, k)[0])

    def jhat(self, k: int) -> float:
        return 1.0 - self.one_minus(k)


# ---------------------------------------------------------------------------
# Masses and the spectral gap at |xi| = 1
# ---------------------------------------------------------------------------


def jmass_tail(params: LandscapeParams, r: int) -> float:
    """J-mass outside the ball of radius p^r: sum_{m > r} J(p^m) vol(S_m)."""
    return math.fsum(sphere_masses_above(params, r))


def exterior_mass(params: LandscapeParams) -> float:
    """C = int_{Q_p^n \\ Z_p^n} J, the total rate of coset-moving jumps."""
    return jmass_tail(params, 0)


def jmass_ball(params: LandscapeParams, r: int) -> float:
    """J-mass of the ball of radius p^r (uses normalization: 1 - tail)."""
    return 1.0 - jmass_tail(params, r)


def ball_jmass_bound(params: LandscapeParams, q) -> np.ndarray:
    """M(q): a bound on the J-mass of every ball of radius p^q, for an
    integer or an integer array q.

    The ball around 0 is B_q, of mass at most mass(S_q) plus the bound of
    :func:`_mass_and_tail_below`. Any other ball lies in one sphere S_m with
    m > q, so its mass is at most p^{qn} sup_{m > q} J(p^m); over real s,
    J(p^s) falls everywhere for gamma <= 0 and peaks at s = log_p(gamma/C1)
    otherwise. J is normalized, so 1 bounds both.
    """
    q = np.asarray(q)
    ball = sum(_mass_and_tail_below(params, q))
    s = q + 1.0
    if params.gamma > 0:
        s = np.maximum(s, math.log(params.gamma / params.c1) / params.space.log_p)
    off = np.exp(q * params.space.n * params.space.log_p + params.log_value_at(s))
    return np.minimum(np.maximum(ball, off), 1.0)


def spectral_gap_at_one(params: LandscapeParams) -> float:
    """1 - Jhat(1) by its closed form J(p) + int_{Q_p^n \\ Z_p^n} J.

    Strictly positive for every exponential-type landscape (the kernel has
    full support, so mass outside the unit ball never vanishes). Summed
    independently of the spectral series as a cross-check anchor.
    """
    return params.value_at(1) + exterior_mass(params)


# ---------------------------------------------------------------------------
# Explicit decay bound on 1 - Jhat for gamma in (-n, 0)
# ---------------------------------------------------------------------------


def spectral_bound_constants(params: LandscapeParams) -> tuple[float, float]:
    """Admissible (B1, B2) with
    1 - Jhat(|xi|) <= (B1 |xi|^{-n-gamma} + B2 |xi|^{-gamma}) e^{-C1 p / |xi|}.

    Derived by majorizing the sphere-sum series with the kernel's sandwich
    (upper constant B = c here) and bounding the exponential tail sum with
    int e^{-tau |y|} d^n y <= n! tau^{-n}, whose explicit constant comes
    from comparing sphere sums against the real-variable integral.
    """
    if not (-params.space.n < params.gamma < 0):
        raise GammaOutOfRange(
            f"decay bound requires -n < gamma < 0, got gamma={params.gamma}"
        )
    p, n = float(params.space.p), params.space.n
    b = params.norm_const
    b1 = b * (p**params.gamma + p**n)
    b2 = (
        b
        * p**n
        * math.factorial(n)
        / (params.space.unit_sphere_volume * params.c1**n)
    )
    return b1, b2


def spectral_decay_bound(params: LandscapeParams, k: int) -> float:
    """The explicit upper bound on 1 - Jhat(p^k) for gamma in (-n, 0)."""
    b1, b2 = spectral_bound_constants(params)
    p, n = float(params.space.p), params.space.n
    expo = -params.c1 * p ** (1 - k)
    damp = math.exp(expo) if expo > -745.0 else 0.0
    return (b1 * p ** (-k * (n + params.gamma)) + b2 * p ** (-k * params.gamma)) * damp


@dataclass(frozen=True)
class SpectralBoundReport:
    ks: tuple[int, ...]
    margins: tuple[float, ...]
    bounds: tuple[float, ...]
    one_minus: tuple[float, ...]
    b1: float
    b2: float

    @property
    def all_nonnegative(self) -> bool:
        return all(m >= 0.0 for m in self.margins)


def spectral_bound_check(
    params: LandscapeParams, ks: Sequence[int], cache: SpectralCache | None = None
) -> SpectralBoundReport:
    """Verify the explicit decay bound pointwise; returns per-k margins.

    Inequality-only contract: the bound need not be tight, so only the sign
    of the margins is meaningful.
    """
    b1, b2 = spectral_bound_constants(params)
    cache = cache or SpectralCache(kernel=params, k_min=0, k_max=0)
    bounds, oms, margins = [], [], []
    for k in ks:
        bd = spectral_decay_bound(params, k)
        om = cache.one_minus(k)
        bounds.append(bd)
        oms.append(om)
        margins.append(bd - om)
    return SpectralBoundReport(
        ks=tuple(ks),
        margins=tuple(margins),
        bounds=tuple(bounds),
        one_minus=tuple(oms),
        b1=b1,
        b2=b2,
    )


# ---------------------------------------------------------------------------
# Divergence diagnostics (all in log space)
# ---------------------------------------------------------------------------


def log_one_minus_jhat(params: LandscapeParams, k: int) -> float:
    """log(1 - Jhat(p^k)): the terms of :func:`spectral_one_minus`, summed
    by logaddexp.

    Needed for k << 0, where 1 - Jhat underflows double precision (it
    decays like e^{-C1 p^{1-k}}).
    """
    return float(np.logaddexp.reduce(_spectral_log_terms(params, k)))


@dataclass(frozen=True)
class DivergenceReport:
    """Log-scale evidence that a positive series has no finite sum."""

    term_logs: tuple[float, ...]
    partial_log_sums: tuple[float, ...]
    verdict: str  # "diverges" | "inconclusive"
    growth_floor: float


def divergence_diagnostic(params: LandscapeParams, m_terms: int) -> DivergenceReport:
    """Partial sums of sum_j vol(S_{-j}) / (1 - Jhat(p^{-j})) in log scale.

    For gamma in (-n, 0) the term logs grow like C1 p^{j+1}, which
    overflows doubles almost immediately, hence the log-space contract.
    Verdict "diverges" when the last five term-log increments each clear
    the conservative growth floor ceil(|gamma|) * log p.
    """
    if not (-params.space.n < params.gamma < 0):
        raise GammaOutOfRange(
            f"divergence diagnostic requires -n < gamma < 0, got {params.gamma}"
        )
    space = params.space
    term_logs = []
    partials = []
    running = -math.inf
    for j in range(m_terms + 1):
        lt = log_sphere_volume(space, -j) - log_one_minus_jhat(params, -j)
        term_logs.append(lt)
        running = float(np.logaddexp(running, lt))
        partials.append(running)
    floor = math.ceil(abs(params.gamma)) * space.log_p
    increments = [b - a for a, b in zip(term_logs, term_logs[1:])]
    tail = increments[-5:]
    verdict = "diverges" if len(tail) == 5 and all(d >= floor for d in tail) else "inconclusive"
    return DivergenceReport(
        term_logs=tuple(term_logs),
        partial_log_sums=tuple(partials),
        verdict=verdict,
        growth_floor=floor,
    )


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
