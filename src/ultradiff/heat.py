"""Heat-kernel series for the nonlocal generator A u = J*u - u.

The semigroup measure factors as ``Z_t = e^{-t} delta_0 + Ztilde(.,t) d^n x``:
the atom is the probability of zero jumps up to time t, and the radial
density away from the origin is given by the sphere series

    Ztilde(x,t) = |x|^{-n} [ (1-p^{-n}) sum_{j>=0} p^{-nj} E(p^{-j}/|x|, t)
                             - E(p/|x|, t) ],
    E(p^k, t) = exp( (Jhat(p^k) - 1) t ).

Consequently the density integrates to 1 - e^{-t} and total probability is
conserved only once the atom is counted; `conservation_audits` reports both
pieces. The solution of the Cauchy problem started from the indicator of
Z_p^n is radial, constant on Z_p^n, and coincides with Ztilde on every
sphere of norm >= p (both are the transition probability into the
corresponding unit coset), which this module exploits and the tests check.

Every quantity here is one sphere series sum_j vol(S_{-j}) phi(lambda_j),
with lambda_j = 1 - Jhat(p^{-j}) read from the spectral cache, evaluated by
:func:`sphere_series`; the quantities differ only in phi and in how the
series is scaled and corrected; the heat series at norm exponent r is
P(X_t in B_r) itself (:func:`transition_prob`). The coset chain lumps onto
coset norms (:func:`norm_chain`), where Chapman-Kolmogorov is checked at the
depth that also caps the conservation window (:func:`escape_depths`). The
results are pure functions of the landscape, but a series that reaches past
the cache window grows the cache in place, so concurrent evaluation on one
state needs the window grown first.

Each quantity has one table API: :func:`u_table`, :func:`ztilde_table`,
:func:`du_dt`, :func:`j_convolve_u` and :func:`pde_residual` return tables
with rows i and columns t, `survival` of a time vector is row 0 of the u
table, :func:`conservation_audits` sums one sphere-mass table over the union
of its certified windows, and :func:`decay_bound_check` takes its deficits
from one call. A value at one point is an entry of a one-point table, which
has the same roundings as that entry in any larger table.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GammaOutOfRange, SeriesDiverged, ZeroPoint
from .landscape import (
    LandscapeParams,
    SpectralCache,
    ball_jmass_bound,
    jmass_ball,
    spectral_bound_constants,
    sphere_masses_above,
)
from .padic import (
    CosetPoint,
    SpaceParams,
    _ZeroNorm,
    sphere_volume,
)


#: Largest density mass either side of the conservation window may hold.
AUDIT_TAIL = 1e-16
#: Times per evaluation of the heat series; bounds its (K, T) exp table.
_TIME_BLOCK = 4096


def _machine_tail_len(space: SpaceParams) -> int:
    """Terms needed for a p^{-nj}-weighted series to reach machine tail."""
    return int(math.ceil(17.0 * math.log(10.0) / (space.n * space.log_p))) + 3


@dataclass
class HeatState:
    """A landscape and its spectral cache (which grows on demand)."""

    landscape: LandscapeParams
    cache: SpectralCache = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.cache is None:
            self.cache = SpectralCache.build(self.landscape)

    @property
    def space(self) -> SpaceParams:
        return self.landscape.space


def sphere_series(
    cache: SpectralCache, i_exps, phi, n_terms: int
) -> tuple[np.ndarray, np.ndarray]:
    """The sphere series behind every heat, flux and Laplace quantity.

    For each norm exponent i returns

        A[i] = sum_{0 <= j < n_terms} vol(S_{-j}) phi(lambda_{-j-i})

    and the correction phi(lambda_{1-i}), where lambda_k = 1 - Jhat(p^k).
    phi maps the contiguous slice of lambda the series needs to values of
    shape (K,) or (K, T) (one time, or a grid of them). The banded sum runs
    one diagonal j at a time, smallest terms first, so each entry is the
    same sequence of roundings whatever other rows share the call (a BLAS
    matrix product is not: its blocking depends on the batch shape).
    """
    i = np.asarray(i_exps, dtype=np.int64)
    space = cache.kernel.space
    top, bottom = int(i.max()), int(i.min())
    vals = phi(cache.window(-top - n_terms + 1, 1 - bottom))
    # acc[r] accumulates A at norm exponent top - r, one diagonal j at a time
    width = top - bottom + 1
    acc = np.zeros((width,) + vals.shape[1:], dtype=vals.dtype)
    vol = space.unit_sphere_volume * (float(space.p) ** space.n) ** -np.arange(
        n_terms, dtype=float
    )
    for j in range(n_terms - 1, -1, -1):
        start = n_terms - 1 - j
        acc += vol[j] * vals[start : start + width]
    return acc[top - i], vals[n_terms + top - i]


def _series(state: HeatState, i_exps, phi):
    """sphere_series at the machine-tail length every heat quantity uses."""
    return sphere_series(state.cache, i_exps, phi, _machine_tail_len(state.space) + 1)


def _decay(ts):
    """phi = e^{-lambda t} over the times ts, as a (K, T) table."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if np.any(ts < 0):
        raise ValueError("time must be nonnegative")

    def phi(lam):
        # in place: a second (K, T) array would double the table's memory
        x = np.multiply.outer(-lam, ts)
        return np.exp(x, out=x)

    return phi


def _clamp(v: np.ndarray) -> np.ndarray:
    """Series roundoff within 1e-12 below zero is clamped to zero."""
    return np.where((v < 0.0) & (v >= -1e-12), 0.0, v)


def _exps(i) -> np.ndarray:
    """One norm exponent or a sequence of them, as int64; ZERO_NORM is 0."""
    seq = [i] if np.ndim(i) == 0 else i
    return np.array([0 if isinstance(k, _ZeroNorm) else k for k in seq], np.int64)


def _view(table: np.ndarray, i, t):
    """A (rows i, columns t) table at a scalar i or t: a float at one
    point, one row or column when only one of the two is a scalar."""
    v = table[0 if np.ndim(i) == 0 else slice(None), 0 if np.ndim(t) == 0 else slice(None)]
    return float(v) if v.ndim == 0 else v


def _bracket(state: HeatState, i_exps, ts) -> tuple[np.ndarray, np.ndarray]:
    """(A, A - correction) of the heat series; rows i, columns t. The series
    runs over blocks of _TIME_BLOCK times; no column's roundings depend on
    another's, so the blocks change no bit."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    a, bracket = np.empty((2, len(i_exps), ts.size))
    for k in range(0, ts.size, _TIME_BLOCK):
        block = slice(k, k + _TIME_BLOCK)
        a[:, block], corr = _series(state, i_exps, _decay(ts[block]))
        bracket[:, block] = a[:, block] - corr
    return a, bracket


def _on_spheres(state: HeatState, i: np.ndarray, bracket: np.ndarray) -> np.ndarray:
    """p^{-ni} times the bracket, clamped: Ztilde(p^i, t), and u(p^i, t) for i >= 1."""
    pn = float(state.space.p) ** state.space.n
    return _clamp((pn ** -i.astype(float))[:, None] * bracket)


def ztilde_table(state: HeatState, x_exps: Sequence[int], ts) -> np.ndarray:
    """Ztilde(p^i, t) for x_exps i (x != 0) and times ts; rows i, columns t.

    Nonnegative up to series roundoff; values within 1e-12 of zero are
    clamped to zero (at t = 0 the series telescopes to exactly that).
    """
    if any(isinstance(k, _ZeroNorm) for k in x_exps):
        raise ZeroPoint("Ztilde is defined for x != 0 only")
    i = np.asarray(x_exps, dtype=np.int64)
    return _on_spheres(state, i, _bracket(state, i, ts)[1])


def _sphere_masses(state: HeatState, i_exps, ts) -> np.ndarray:
    """Ztilde(p^i, t) vol(S_i), computed without the cancelling p^{+-ni};
    rows i, columns t."""
    return _clamp(state.space.unit_sphere_volume * _bracket(state, i_exps, ts)[1])


def u_table(state: HeatState, x_exps: Sequence[int], ts) -> np.ndarray:
    """u(p^i, t), the solution from the unit-ball indicator, for x_exps i
    and times ts; rows i, columns t. Every i <= 0 (or ZERO_NORM) means
    Z_p^n, where u = S; for i >= 1 u = Ztilde (one unit coset's probability)."""
    i = np.maximum(_exps(x_exps), 0)
    a, bracket = _bracket(state, i, ts)
    return np.where((i == 0)[:, None], a, _on_spheres(state, i, bracket))


def survival(state: HeatState, t):
    """S(t): probability of sitting in Z_p^n at time t, started there.

    Equals the constant value of u on Z_p^n since vol(Z_p^n) = 1, so it is
    row 0 of :func:`u_table`: a float for a scalar t, an array over the
    times for a sequence. Not monotone in general: paths return.
    """
    return _view(u_table(state, [0], t), 0, t)


def du_dt(state: HeatState, i, t):
    """du/dt, each sphere term times (Jhat - 1): a table over norm exponents
    i (rows) and times t (columns), viewed at a scalar i or t (:func:`_view`)."""
    idx = np.maximum(_exps(i), 0)
    a, corr = _series(state, idx, lambda lam: lam[:, None] * _decay(t)(lam))
    scale = (float(state.space.p) ** state.space.n) ** -idx.astype(float)
    return _view(np.where((idx == 0)[:, None], -a, scale[:, None] * (corr - a)), i, t)


def inflow(state: HeatState, r: int, ts) -> np.ndarray:
    """sum_{m > r} J(p^m) vol(S_m) u(p^m, t) over the times ts, for r >= 0:
    the rate at which mass outside the ball B_r jumps into it."""
    w = sphere_masses_above(state.landscape, r)
    return w @ u_table(state, np.arange(r + 1, r + 1 + w.size), ts)


# ---------------------------------------------------------------------------
# Conservation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConservationAudit:
    """Mass accounting for the kernel measure at one time.

    total = atom + density_mass should be 1; the density alone carries
    1 - e^{-t} (the atom is the zero-jump probability at the origin).
    density_mass sums the spheres S_lo .. S_hi of ``window``, and
    ``tail_bound`` bounds the density mass outside it.
    """

    t: float
    density_mass: float
    atom: float
    window: tuple[int, int]
    tail_bound: float

    @property
    def total(self) -> float:
        return self.density_mass + self.atom

    @property
    def defect(self) -> float:
        return abs(self.total - 1.0)


def escape_depths(
    params: LandscapeParams, ts: Sequence[float]
) -> list[tuple[int, float]]:
    """For each t, the smallest r >= 0 with 1 - exp(-t jmass_tail(r)) <=
    AUDIT_TAIL, and that bound on the mass that has left B_r by time t: a
    path leaves B_r only by a jump of norm > p^r (ultrametric inequality)."""
    # jmass_tail(h) for h = 0, 1, ..., ending in 0 past the last listed sphere
    tails = np.append(np.cumsum(sphere_masses_above(params, 0)[::-1])[::-1], 0.0)
    depths = []
    for t in ts:
        escape = -np.expm1(-t * tails)
        r = int(np.flatnonzero(escape <= AUDIT_TAIL)[0])
        depths.append((r, float(escape[r])))
    return depths


def _audit_windows(
    params: LandscapeParams, ts: Sequence[float]
) -> list[tuple[int, int, float]]:
    """(lo, hi, tail_bound) of the conservation window at each time; see
    :func:`conservation_audits`. Times with the same hi share the M(q)
    blocks of the search for lo."""

    @functools.cache
    def ball_bounds(top: int, size: int) -> np.ndarray:
        return ball_jmass_bound(params, np.arange(top, top - size, -1))

    windows = []
    for t, (hi, above) in zip(ts, escape_depths(params, ts)):
        top, size = hi - 1, 64
        while True:
            if top <= hi - 100_000:
                raise SeriesDiverged(
                    f"conservation window at t={t} not certified in 1e5 spheres"
                )
            below = -math.expm1(-t) * ball_bounds(top, size)
            ok = np.flatnonzero(below <= AUDIT_TAIL)
            if ok.size:
                windows.append((top - int(ok[0]) + 1, hi, float(above + below[ok[0]])))
                break
            top, size = top - size, 2 * size
    return windows


def conservation_audits(
    state: HeatState, ts: Sequence[float]
) -> list[ConservationAudit]:
    """One :class:`ConservationAudit` per time: Ztilde summed over spheres
    plus the atom, on a window certified by two bounds from the landscape,
    each at most AUDIT_TAIL:

    * above S_hi: hi is the :func:`escape_depths` entry of t, so the mass outside
      B_hi is at most 1 - exp(-t jmass_tail(hi));
    * below S_lo: a path in B_{lo-1} minus 0 has jumped, and its last jump
      landed in a translate of B_{lo-1}, so that mass is at most
      (1 - e^{-t}) M(lo - 1) (:func:`ball_jmass_bound`).

    The sphere masses come from one table over the union of the windows;
    each time sums its own slice. Raises SeriesDiverged when no lo within
    100 000 spheres qualifies.
    """
    windows = _audit_windows(state.landscape, ts)
    if not windows:
        return []
    bottom = min(lo for lo, _, _ in windows)
    top = max(hi for _, hi, _ in windows)
    masses = _sphere_masses(state, np.arange(bottom, top + 1), ts)
    return [
        ConservationAudit(
            t=t,
            density_mass=math.fsum(masses[lo - bottom : hi - bottom + 1, col]),
            atom=math.exp(-t),
            window=(lo, hi),
            tail_bound=tail,
        )
        for col, (t, (lo, hi, tail)) in enumerate(zip(ts, windows))
    ]


# ---------------------------------------------------------------------------
# Radial convolution and the evolution-equation residual
# ---------------------------------------------------------------------------


def j_convolve_u(state: HeatState, i, t):
    """(J * u(., t))(x) for |x| = p^i, via ultrametric ball geometry; a
    table over norm exponents i and times t, or a view as in :func:`du_dt`.

    The convolution collapses to a finite weighted sum: spheres of y
    strictly larger than |x| contribute J(|y|) u(|y|) vol directly (the
    :func:`inflow` into B_i, as one single-time product per column),
    smaller ones see u(|x|) weighted by the interior J-mass, and the
    same-norm sphere contributes J(|x|) times the u-mass of the ball B_i
    minus the sub-ball around x. All of it reads one u table.
    """
    params, space = state.landscape, state.space
    idx = np.maximum(_exps(i), 0).tolist()
    ws = [sphere_masses_above(params, r) for r in idx]
    u = u_table(state, np.arange(max(r + w.size for r, w in zip(idx, ws)) + 1), t)
    table = np.empty((len(idx), u.shape[1]))
    for row, (r, w) in enumerate(zip(idx, ws)):
        outer = np.concatenate([w @ u[r + 1 : r + 1 + w.size, [c]] for c in range(u.shape[1])])
        if r == 0:
            table[row] = u[0] * jmass_ball(params, 0) + outer
            continue
        # strictly smaller norms leave the displaced norm at p^r
        inner = u[r] * jmass_ball(params, r - 1)
        # same norm: integrate u over B_r(x) = B_r minus the ball B_{r-1}(x) in S_r
        vols = np.array([sphere_volume(space, m) for m in range(1, r + 1)])
        ball_u = u[0] + np.array([math.fsum(col) for col in (u[1 : r + 1] * vols[:, None]).T])
        same = params.value_at(r) * (ball_u - u[r] * float(space.p) ** ((r - 1) * space.n))
        table[row] = outer + inner + same
    return _view(table, i, t)


def pde_residual(state: HeatState, i, t):
    """Residual of du/dt = J*u - u: a table over i and t, as :func:`du_dt`."""
    idx, ts = _exps(i), np.atleast_1d(t)
    table = du_dt(state, idx, ts) - (j_convolve_u(state, idx, ts) - u_table(state, idx, ts))
    return _view(table, i, t)


# ---------------------------------------------------------------------------
# Transition probabilities and the lumped norm chain
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
    integer r: one :func:`sphere_series` row, atom e^{-t} included.
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
    return float(_series(state, [radius_exp], _decay(t))[0][0, 0])


def norm_chain(state: HeatState, t: float, depth: int) -> np.ndarray:
    """The coset chain on B_depth / Z_p^n lumped onto coset norm exponents:
    P[a, b] = P(from a coset x of norm p^a, in a coset of norm p^b at t),
    the same for every such x since the jump law is radial. With q[b] =
    u(p^b, t), the probability of one unit coset of norm p^b (q[0] = S(t)),
    and vol(S_b) cosets of norm p^b (1 for b = 0):
    P[a, 0] = q[a]; P[a, b] = vol(S_b) q[max(a, b)] for b != a; and P[a, a]
    sums q over x itself, the spheres of B_{a-1}(x) and S_a minus
    B_{a-1}(x), which has p^{n(a-1)} (p^n - 2) cosets. Rows fall short of 1
    by the mass that has left B_depth.
    """
    q = u_table(state, np.arange(depth + 1), t)[:, 0]
    pn = float(state.space.p) ** state.space.n
    b = np.arange(depth + 1)
    count = np.where(b == 0, 1.0, pn**b - pn ** (b - 1.0))
    chain = count * q[np.maximum.outer(b, b)]
    a = b[1:]
    chain[a, a] = np.cumsum(count * q)[:-1] + pn ** (a - 1.0) * (pn - 2.0) * q[a]
    return chain


def chapman_kolmogorov_defect(state: HeatState, t: float, s: float) -> float:
    """max |P(t+s) - P(t) P(s)| over the :func:`norm_chain` at the escape
    depth of t + s (:func:`escape_depths`): P(t) P(s) misses only paths that
    left B_depth by time t, at most AUDIT_TAIL of the mass."""
    [(depth, _)] = escape_depths(state.landscape, [t + s])
    pt, ps, pts = (norm_chain(state, u, depth) for u in (t, s, t + s))
    return float(np.max(np.abs(pts - pt @ ps)))


# ---------------------------------------------------------------------------
# Decay-bound checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayBoundReport:
    """Pointwise margins for the two heat-kernel decay estimates."""

    points: tuple[tuple[int, float], ...]  # (norm exponent, t)
    uniform_margins: tuple[float, ...]  # 2 t |x|^{-n} - Ztilde
    claim_margins: tuple[float, ...]  # t |x|^{-n} (1 - Jhat(p/|x|)) - Ztilde
    decay_margins: tuple[float, ...]  # C0 t |x|^gamma e^{-C1 |x|} - Ztilde
    c0: float

    @property
    def all_nonnegative(self) -> bool:
        return all(
            m >= 0.0
            for ms in (self.uniform_margins, self.claim_margins, self.decay_margins)
            for m in ms
        )


def decay_bound_check(
    state: HeatState,
    x_exps: Sequence[int],
    ts: Sequence[float],
    l: int = 1,
) -> DecayBoundReport:
    """Check Ztilde against its uniform and exponential decay bounds.

    The exponential bound holds for gamma in (-n, 0) and |x| > p^l with the
    constant C0 assembled from the spectral decay constants:
    C0(l) = B1 p^{-n-gamma} + B2 p^{-gamma - (l+1) n}.
    """
    params = state.landscape
    if not (-params.space.n < params.gamma < 0):
        raise GammaOutOfRange(
            f"decay bound requires -n < gamma < 0, got {params.gamma}"
        )
    if any(i <= l for i in x_exps):
        raise ValueError(f"decay bound applies to norm exponents > l = {l}")
    b1, b2 = spectral_bound_constants(params)
    p, n = float(params.space.p), params.space.n
    c0 = b1 * p ** (-n - params.gamma) + b2 * p ** (-params.gamma - (l + 1) * n)
    t_grid = np.asarray(ts, dtype=float)
    deficits = _series(
        state, x_exps, lambda lam: -np.expm1(np.multiply.outer(-lam, t_grid))
    )[0]
    points, uni, claim, decay = [], [], [], []
    for i, row in zip(x_exps, deficits.tolist()):
        # The first bound is tight to within roundoff when 1 - Jhat is
        # tiny, so the margins are assembled from manifestly nonnegative
        # pieces instead of subtracting two nearly equal numbers:
        #   t d - (1 - e^{-dt})            with d = 1 - Jhat(p^{1-i}),
        #   sum_j vol(S_{-j}) (1 - E_j)    the deficit of the sphere sum.
        d = state.cache.one_minus(1 - i)
        xm_n = p ** (-i * n)
        ex = -params.c1 * p**i
        damp = math.exp(ex) if ex > -745.0 else 0.0
        slope = c0 * p ** (i * params.gamma) * damp - xm_n * d
        for t, deficit in zip(ts, row):
            core = d * t + math.expm1(-d * t)
            claim_margin = xm_n * (core + deficit)
            points.append((i, t))
            uni.append(xm_n * t * (2.0 - d) + claim_margin)
            claim.append(claim_margin)
            decay.append(t * slope + claim_margin)
    return DecayBoundReport(
        points=tuple(points),
        uniform_margins=tuple(uni),
        claim_margins=tuple(claim),
        decay_margins=tuple(decay),
        c0=c0,
    )
