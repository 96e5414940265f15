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
directly, so that quantity is what gets cached: :class:`SpectralCache`
holds the one linear evaluation of the series; it is nonnegative and at
most 2 for any normalized kernel. :func:`spectral_by_quadrature` is its
independent oracle, a direct sum over the spheres below S_{1-k}.

For gamma in (-n, 0) the reciprocal ``1/(1 - Jhat(p^{-j}))`` grows double
exponentially in j, which is the mechanism behind recurrence; the
divergence diagnostic therefore sums the same series in log space.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Protocol, Sequence

import numpy as np

from .errors import GammaOutOfRange, NonPositiveRate, SeriesDiverged
from .padic import EXACT_EXPONENT_LIMIT, SpaceParams, log_sphere_volume, sphere_volume

#: Default exponent window for prebuilt spectral caches.
DEFAULT_SPECTRAL_WINDOW = (-40, 40)

_MAX_SERIES_TERMS = 10_000
_TINY = 2.0**-1022  # the smallest normal double


class RadialKernel(Protocol):
    """A radial jump density: log J(p^j) for each norm exponent j."""

    space: SpaceParams

    def log_value_at(self, j): ...


class UnitBallKernel(NamedTuple):
    """Indicator of Z_p^n: the self-dual test profile.

    Normalized for every (p, n) since vol(Z_p^n) = 1, and its radial
    transform is known in closed form (1 for k <= 0, 0 for k >= 1), which
    makes it the sharpest available oracle for the spectral cache
    (``verify``'s ``indicator_self_dual`` check). Not an exponential-type
    landscape.
    """

    space: SpaceParams

    def log_value_at(self, j):
        return np.where(np.asarray(j) <= 0, 0.0, -np.inf)


class LandscapeParams(NamedTuple):
    """A normalized exponential-type landscape c |x|^gamma e^{-C1 |x|}."""

    space: SpaceParams
    gamma: float
    c1: float
    norm_const: float

    def value_at(self, j: int) -> float:
        """J(p^j), evaluated through the log: inf above e^700, 0 below e^-745."""
        log_val = float(self.log_value_at(j))
        return math.inf if log_val > 700.0 else math.exp(log_val) if log_val > -745.0 else 0.0

    def log_value_at(self, j):
        """log J(p^j) for an integer or an integer array j."""
        with np.errstate(over="ignore"):
            decay = self.c1 * np.power(float(self.space.p), j)  # inf is fine
        return math.log(self.norm_const) + j * self.gamma * self.space.log_p - decay


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


def _sphere_terms(kernel: RadialKernel, m: np.ndarray) -> np.ndarray:
    """J(p^m) vol(S_m) for an integer array m: the product of the two factors
    where both are normal doubles, else from log_sphere_mass (near
    gamma = -n, J overflows where J vol(S_m) is still in range)."""
    space = kernel.space
    log_j, log_vol = kernel.log_value_at(m), log_sphere_volume(space, m)
    with np.errstate(over="ignore"):
        j = np.exp(log_j)
    vol = np.exp(log_vol)
    near = np.abs(m * space.n) <= EXACT_EXPONENT_LIMIT  # sphere_volume is exact there
    vol[near] = [sphere_volume(space, i) for i in m[near].tolist()]
    normal = (j >= _TINY) & (j < math.inf) & (vol >= _TINY)
    return np.multiply(j, vol, out=np.exp(log_j + log_vol), where=normal)


def spectral_by_quadrature(
    kernel: RadialKernel, k: int, rel_tol: float = 1e-12
) -> float:
    """Independent oracle: Jhat(p^k) summed directly over spheres of x.

    Uses only the closed-form character integral per sphere, i.e. the
    definition of the transform, with no rearrangement shared with
    :class:`SpectralCache`. Spheres above m = 1-k contribute nothing, the
    sphere at m = 1-k contributes its cancellation term, and the ones below
    contribute kernel value times volume, walked downward in doubling
    blocks. The kernel is normalized, so the un-summed lower tail is exactly
    1 minus the volume-weighted mass seen so far; the descent stops at the
    first sphere where that remainder is negligible.
    """
    pn = float(kernel.space.p) ** kernel.space.n
    # mass sitting above the cancellation sphere (never enters the sum)
    upper_mass = math.fsum(np.exp(log_sphere_masses_from(kernel, 2 - k)))
    m = 1 - k
    mass_seen = float(_sphere_terms(kernel, np.array([m]))[0])
    total = -mass_seen / (pn - 1.0)  # the lone negative sphere
    scale, size = max(abs(total), 1.0), 128
    while True:
        t = _sphere_terms(kernel, np.arange(m - 1, m - 1 - size, -1))
        # the total and the mass seen are two sequential sums from sphere 1-k
        run = np.cumsum(np.concatenate(([total], t)))[1:]
        seen = np.cumsum(np.concatenate(([mass_seen], t)))[1:]
        scales = np.maximum.accumulate(np.maximum(np.abs(run), scale))
        remaining = 1.0 - upper_mass - seen  # the entire lower tail
        done = np.flatnonzero(remaining < rel_tol * scales)
        if done.size:
            return float(run[done[0]])
        total, mass_seen, scale = run[-1], seen[-1], scales[-1]
        m, size = m - size, 2 * size
        if 1 - k - m > 100_000:
            raise SeriesDiverged("quadrature series failed to settle")


class SpectralCache:
    """Values of 1 - Jhat(p^k) for k in [k_min, k_max], held as one array
    (``values[k - k_min]``) and grown on demand.

    Each value is computed from k alone, so the array does not depend on
    the order in which windows grew. Growing rebinds ``values``, ``k_min``
    and ``k_max``, which is not safe from several threads at once: grow
    the window a computation needs before sharing the cache. ``top`` is the
    first sphere past the mode whose mass underflows: 1 - Jhat(p^k) = 0.0 at k <= 1 - top.
    """

    __slots__ = (
        "kernel", "k_min", "k_max", "values", "left_tail_reaches_one",
        "right_tail_decayed", "top",
    )

    def __init__(self, kernel: RadialKernel, k_min: int, k_max: int):
        self.kernel, self.k_min, self.k_max = kernel, k_min, k_max
        self.left_tail_reaches_one = self.right_tail_decayed = False  # set by build
        self.top = log_sphere_masses_from(kernel, 0).size - 1
        while math.exp(log_sphere_mass(kernel, self.top)) > 0.0:
            self.top += 1
        self.values = self._compute(k_min, k_max)

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
        """The sphere-sum series of 1 - Jhat(p^k) for k = lo..hi as one reverse
        cumulative sum of sphere masses, smallest first (0 from S_top up)."""
        space = self.kernel.space
        m = np.arange(min(1 - hi, self.top), max(1 - lo, self.top) + 1)
        mass = np.exp(log_sphere_mass(self.kernel, m))
        series = np.cumsum(mass[::-1])[::-1] + mass / (float(space.p) ** space.n - 1.0)
        v = series[1 - np.arange(lo, hi + 1) - m[0]]
        bad = np.flatnonzero(~((v >= -1e-10) & (v <= 2.0 + 1e-10)))
        if bad.size:
            k = lo + int(bad[0])
            raise SeriesDiverged(f"1 - Jhat(p^{k}) = {v[bad[0]]} outside [0, 2]")
        return np.clip(v, 0.0, 2.0)

    def window(self, lo: int, hi: int) -> np.ndarray:
        """1 - Jhat(p^k) for k = lo..hi, growing the cached window to cover it;
        lo = hi + 1 is the empty window."""
        if lo > hi + 1:
            raise ValueError(f"window ({lo}, {hi}): lo must be at most hi + 1")
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


class SpectralBoundReport(NamedTuple):
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


class DivergenceReport(NamedTuple):
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
    space, j = params.space, np.arange(m_terms + 1)
    # log J-masses of S_m for m = 1, 2, ..., as far as the last head m_terms + 1 needs
    logs = np.concatenate((
        log_sphere_mass(params, j[1:]), log_sphere_masses_from(params, m_terms + 1)
    ))
    suffix = np.logaddexp.accumulate(logs[::-1])[::-1]  # log sum_{m >= 1+j}
    first = logs[j] - math.log(float(space.p) ** space.n - 1.0)
    # log(1 - Jhat(p^{-j})) by the sphere-sum series, the lone S_{1+j} term last
    term_logs = log_sphere_volume(space, -j) - np.logaddexp(first, suffix[j])
    floor = math.ceil(abs(params.gamma)) * space.log_p
    tail = np.diff(term_logs)[-5:]
    verdict = "diverges" if tail.size == 5 and (tail >= floor).all() else "inconclusive"
    return DivergenceReport(
        term_logs=tuple(term_logs.tolist()),
        partial_log_sums=tuple(np.logaddexp.accumulate(term_logs).tolist()),
        verdict=verdict,
        growth_floor=floor,
    )
