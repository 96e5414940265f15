"""Heat-kernel series for the nonlocal generator A u = J*u - u.

The semigroup measure factors as ``Z_t = e^{-t} delta_0 + Ztilde(.,t) d^n x``:
the atom is the probability of zero jumps up to time t, so the density
integrates to 1 - e^{-t} and total probability is conserved only once the
atom is counted; :func:`conservation_audits` reports both pieces. The
solution of the Cauchy problem started from the indicator of Z_p^n is
radial, constant on Z_p^n, and coincides with Ztilde on every sphere of
norm >= p (both are the transition probability into the corresponding
unit coset), which this module exploits and the tests check.

With lambda_k = 1 - Jhat(p^k) from the spectral cache and E_k =
e^{-lambda_k t}, every quantity on a sphere or ball of norm p^i is a
series sum_{k>=0} vol(S_{-k}) phi_{i+k}, and they differ in phi:

* phi_a = E_{-a} gives P(X_t in B_i), at i = 0 the survival S(t), which is
  u on Z_p^n. These terms (and their slopes and deficits) share one sign,
  so :func:`sphere_series` stops them where the weights p^{-nk} alone
  reach machine tail.
* phi_a = chi_a = E_{-a} - E_{1-a} gives the sphere mass vol(S_i)
  Ztilde(p^i, t) (:func:`sphere_masses`); Ztilde is p^{-ni} / vol(S_0)
  times it. This is the heat series minus its correction E_{1-i},
  telescoped, so two sums that agree to many digits are never subtracted
  and nothing needs clamping. Each chi_a is formed from delta_a =
  lambda_{1-a} - lambda_{-a} = p^{na} (J(p^a) - J(p^{a+1})), read from the
  landscape, never as a difference of two E or two cached lambda (:func:`_chi`).
  The chi terms fall like J(p^a), not like p^{-nk}, so the rows are summed
  from SpectralCache.top, where every term is 0.0, down to the lowest i.

The u-mass of a ball B_r, r >= 0, is a finite measure over the lambda_{r+j}
(:func:`spectral_measure`), from which the flux into B_r (:func:`inflow`)
and, at r = 0, the re-entry flux g and its transform G are read. The coset
chain lumps onto coset norms (:func:`norm_chain`), where Chapman-Kolmogorov
is checked at the depth that also caps the conservation window
(:func:`escape_depths`). The results are pure functions of the landscape,
but a series that reaches past the cache window grows the cache in place,
so concurrent evaluation on one state needs the window grown first.

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
import itertools
import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import GammaOutOfRange, SeriesDiverged, ZeroPoint
from .landscape import (
    LandscapeParams,
    SpectralCache,
    ball_jmass_bound,
    jmass_ball,
    jmass_tail,
    log_sphere_mass,
    spectral_bound_constants,
    sphere_masses_above,
)
from .padic import SpaceParams, _ZeroNorm, sphere_volume


#: Largest density mass either side of the conservation window may hold.
AUDIT_TAIL = 1e-16
#: Times per evaluation of the heat series; bounds its (K, T) exp table.
_TIME_BLOCK = 4096


class HeatState:
    """A landscape and its spectral cache (which grows on demand)."""

    __slots__ = ("landscape", "cache")

    def __init__(self, landscape: LandscapeParams, cache: SpectralCache | None = None):
        self.landscape = landscape
        self.cache = SpectralCache.build(landscape) if cache is None else cache

    @property
    def space(self) -> SpaceParams:
        return self.landscape.space


def sphere_series(cache: SpectralCache, i_exps, phi, n_terms: int) -> np.ndarray:
    """The sphere series behind the one-sign heat quantities.

    For each norm exponent i returns

        row[i] = sum_{0 <= j < n_terms} vol(S_{-j}) phi(lambda_{-j-i}),

    where lambda_k = 1 - Jhat(p^k). phi maps the contiguous slice of lambda
    the series needs to values of shape (K,) or (K, T) (one time, or a grid
    of them). The banded sum runs one diagonal j at a time, smallest terms
    first, so each entry is the same sequence of roundings whatever other
    rows share the call (a BLAS matrix product is not: its blocking depends
    on the batch shape).
    """
    i = np.asarray(i_exps, dtype=np.int64)
    space = cache.kernel.space
    top, bottom = int(i.max()), int(i.min())
    vals = phi(cache.window(-top - n_terms + 1, -bottom))
    # acc[r] accumulates the row at norm exponent top - r, one diagonal j at a time
    width = top - bottom + 1
    acc = np.zeros((width,) + vals.shape[1:], dtype=vals.dtype)
    vol = space.unit_sphere_volume * (float(space.p) ** space.n) ** -np.arange(
        n_terms, dtype=float
    )
    for j in range(n_terms - 1, -1, -1):
        start = n_terms - 1 - j
        acc += vol[j] * vals[start : start + width]
    return acc[top - i]


def _decay(ts, f=np.exp):
    """phi = f(-lambda t) over the times ts, as a (K, T) table; f a ufunc."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if np.any(ts < 0):
        raise ValueError("time must be nonnegative")

    def phi(lam):
        # in place: a second (K, T) array would double the table's memory
        x = np.multiply.outer(-lam, ts)
        return f(x, out=x)

    return phi


def _table(state: HeatState, i_exps, ts, phi) -> np.ndarray:
    """sphere_series of phi(ts) over blocks of _TIME_BLOCK times, which
    change no bit; rows i, columns t. It runs until the weights p^{-nj}
    alone reach machine tail, as terms of one sign and size <= 2 do."""
    space = state.space
    n_terms = math.ceil(17.0 * math.log(10.0) / (space.n * space.log_p)) + 4
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    out = np.empty((len(i_exps), ts.size))
    for k in range(0, ts.size, _TIME_BLOCK):
        block = slice(k, k + _TIME_BLOCK)
        out[:, block] = sphere_series(state.cache, i_exps, phi(ts[block]), n_terms)
    return out


def decay_sum(c: np.ndarray, lam: np.ndarray, ts, f=np.exp) -> np.ndarray:
    """sum_k c_k f(-lambda_k t) over the times ts, in blocks of _TIME_BLOCK:
    each column adds its terms one k at a time (no matrix product), so it
    is the same bits in any grid that contains its time."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    out = np.zeros(ts.size)
    for k in range(0, ts.size, _TIME_BLOCK):
        block = slice(k, k + _TIME_BLOCK)
        terms = _decay(ts[block], f)(lam)
        terms *= c[:, None]
        for row in terms:
            out[block] += row
    return out


def _exps(i) -> np.ndarray:
    """One norm exponent or a sequence of them, as int64; ZERO_NORM is 0."""
    seq = [i] if np.ndim(i) == 0 else i
    return np.array([0 if isinstance(k, _ZeroNorm) else k for k in seq], np.int64)


def _view(table: np.ndarray, i, t):
    """A (rows i, columns t) table at a scalar i or t: a float at one
    point, one row or column when only one of the two is a scalar."""
    v = table[0 if np.ndim(i) == 0 else slice(None), 0 if np.ndim(t) == 0 else slice(None)]
    return float(v) if v.ndim == 0 else v


def _gaps(state: HeatState, a: np.ndarray) -> np.ndarray:
    """delta_a = p^{na} (J(p^a) - J(p^{a+1})) for a below cache.top: c
    p^{a(n+gamma)} e^{-C1 p^a} (n + gamma is exact near -n) times -expm1 of
    J's log-drop, not a difference of lambdas. Negative where J rises."""
    params, space = state.landscape, state.space
    decay = params.c1 * np.power(float(space.p), a)
    log_head = a * (space.n + params.gamma) * space.log_p + math.log(params.norm_const)
    gap = -np.expm1(params.gamma * space.log_p - (space.p - 1.0) * decay)
    return gap * np.exp(log_head - decay)


def _chi(lam: np.ndarray, gap: np.ndarray, ts: np.ndarray, slope: bool) -> np.ndarray:
    """chi_a(t) = E_{-a} - E_{1-a}, E_k = e^{-lambda_k t}, rows a, columns
    ts, from lam = lambda_{-a} over a = a_0 - 1 .. a_K and gap = delta_a over
    a_0 .. a_K; with slope, its t-derivative -lambda_{-a} chi_a + delta_a
    E_{1-a}. chi_a is the E of the smaller lambda times -expm1(-|delta_a| t),
    signed as delta_a: neither factor can overflow, as e^{|delta_a| t} would
    where J rises (delta_a < 0) and |delta_a| t passes 709, and no two E
    are subtracted."""
    lam_out, lam_in = lam[1:], lam[:-1]  # lambda_{-a}, lambda_{1-a}
    chi = _decay(ts)(np.where(gap >= 0.0, lam_out, lam_in))
    chi *= np.copysign(_decay(ts, np.expm1)(np.abs(gap)), gap[:, None])
    return gap[:, None] * _decay(ts)(lam_in) - lam_out[:, None] * chi if slope else chi


def sphere_masses(state: HeatState, i_exps, ts, slope: bool = False) -> np.ndarray:
    """vol(S_i) Ztilde(p^i, t), or with slope its t-derivative; rows i,
    columns t. Row i is the heat series minus its correction, telescoped:
    sum_{k>=0} vol(S_{-k}) chi_{i+k} (:func:`_chi`). Both lambdas, and so
    every chi_a, are 0.0 from a = SpectralCache.top on, and the terms fall
    like J(p^a), not like p^{-nk}, so the rows are summed from there down
    by row_a = vol(S_0) chi_a + row_{a+1} / p^n: one step per sphere, and
    each row the same roundings whatever rows share the call."""
    i = np.asarray(i_exps, dtype=np.int64)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    space, top = state.space, state.cache.top
    bottom = min(int(i.min()), top)
    # lambda_{-a} for a = bottom - 1 .. top - 1
    lam = state.cache.window(1 - top, 1 - bottom)[::-1]
    gap = _gaps(state, np.arange(bottom, top))
    pn = float(space.p) ** space.n
    out = np.zeros((i.size, ts.size))
    live = i < top
    for k in range(0, ts.size, _TIME_BLOCK):
        block = slice(k, k + _TIME_BLOCK)
        rows = _chi(lam, gap, ts[block], slope)
        rows *= space.unit_sphere_volume
        for a in range(len(rows) - 2, -1, -1):
            rows[a] += rows[a + 1] / pn
        out[live, block] = rows[i[live] - bottom]
    return out


def _density(state: HeatState, i: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Sphere masses over the sphere volumes, p^{-ni} / vol(S_0) per row i."""
    pn = float(state.space.p) ** state.space.n
    return (pn ** -i.astype(float) / state.space.unit_sphere_volume)[:, None] * masses


def ztilde_table(state: HeatState, x_exps: Sequence[int], ts) -> np.ndarray:
    """Ztilde(p^i, t) for x_exps i (x != 0) and times ts; rows i, columns t:
    the :func:`sphere_masses` over the sphere volumes, exactly 0 at t = 0."""
    if any(isinstance(k, _ZeroNorm) for k in x_exps):
        raise ZeroPoint("Ztilde is defined for x != 0 only")
    i = np.asarray(x_exps, dtype=np.int64)
    return _density(state, i, sphere_masses(state, i, ts))


def _profile(state: HeatState, i, ts, inside, slope: bool) -> np.ndarray:
    """A table over u's norm exponents i: the series of phi = inside(ts) on
    Z_p^n (every i <= 0, where u = S) and Ztilde, or its slope, elsewhere."""
    idx = np.maximum(_exps(i), 0)
    out, outer = np.empty((idx.size, np.size(ts))), idx >= 1
    if not outer.all():
        out[~outer] = _table(state, [0], ts, inside)
    if outer.any():
        out[outer] = _density(state, idx[outer], sphere_masses(state, idx[outer], ts, slope))
    return out


def u_table(state: HeatState, x_exps: Sequence[int], ts) -> np.ndarray:
    """u(p^i, t), the solution from the unit-ball indicator, for x_exps i
    and times ts; rows i, columns t. Every i <= 0 (or ZERO_NORM) means
    Z_p^n, where u = S; for i >= 1 u = Ztilde (one unit coset's probability)."""
    return _profile(state, x_exps, ts, _decay, False)


def survival(state: HeatState, t):
    """S(t): probability of sitting in Z_p^n at time t, started there.

    Equals the constant value of u on Z_p^n since vol(Z_p^n) = 1, so it is
    row 0 of :func:`u_table`: a float for a scalar t, an array over the
    times for a sequence. Not monotone in general: paths return.
    """
    return _view(u_table(state, [0], t), 0, t)


def du_dt(state: HeatState, i, t):
    """du/dt: sum_j vol(S_{-j}) (-lambda_{-j}) E_{-j} on Z_p^n and the slope
    of :func:`sphere_masses` elsewhere; a table over norm exponents i (rows)
    and times t (columns), viewed at a scalar i or t (:func:`_view`)."""

    def inside(ts):
        return lambda lam: -lam[:, None] * _decay(ts)(lam)

    return _view(_profile(state, i, t, inside, True), i, t)


def spectral_measure(
    state: HeatState, r: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(v, d, lam, kappa) of the u-mass of the ball B_r, r >= 0:
    S_r(t) = sum_{j<J} v_j e^{-lambda_j t} + p^{-nJ}, with v_j = vol(S_{-j});
    lambda_j = 1 - Jhat(p^{-r-j}) from the cache, J the number that are not
    0.0 (none past SpectralCache.top is); kappa = jmass_tail(r), the rate at
    which mass leaves B_r; d_j = kappa - lambda_j (p^{nr} inflow = S_r' +
    kappa S_r) as the band sum sum_{r<m<=r+j} mass(S_m) - mass(S_{r+j+1})
    / (p^n - 1). S_0 = S is the survival."""
    if r < 0:
        raise ValueError(f"ball exponent r must be >= 0, got {r}")
    space, cache = state.space, state.cache
    # lambda_j for j = 0 .. top - 2 - r; the window is empty past top
    lam = cache.window(min(2 - cache.top, 1 - r), -r)[::-1]
    lam = lam[: np.count_nonzero(lam)]
    mass = np.exp(log_sphere_mass(state.landscape, np.arange(r + 1, r + lam.size + 1)))
    pn = float(space.p) ** space.n
    d = np.cumsum(np.append(0.0, mass))[: lam.size] - mass / (pn - 1.0)
    v = space.unit_sphere_volume * pn ** -np.arange(lam.size, dtype=float)
    return v, d, lam, jmass_tail(state.landscape, r)


def inflow(state: HeatState, r: int, ts) -> np.ndarray:
    """sum_{m > r} J(p^m) vol(S_m) u(p^m, t) over the times ts, for r >= 0:
    the rate at which mass outside B_r jumps to each point of it, p^{-nr}
    (S_r' + kappa S_r) over the :func:`spectral_measure` of B_r. u starts
    on Z_p^n, so sum_j v_j d_j + p^{-nJ} kappa = 0 and the atom folds into
    p^{-nr} sum_j v_j d_j expm1(-lambda_j t), exactly 0 at t = 0.
    """
    v, d, lam, _ = spectral_measure(state, r)
    pn = float(state.space.p) ** state.space.n
    return pn**-r * decay_sum(v * d, lam, ts, np.expm1)


# ---------------------------------------------------------------------------
# Conservation
# ---------------------------------------------------------------------------


class ConservationAudit(NamedTuple):
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
    escape = -np.expm1(np.multiply.outer(-np.asarray(ts, dtype=float), tails))
    rs = np.argmax(escape <= AUDIT_TAIL, axis=1)  # the first r: escape[-1] is 0
    return list(zip(rs.tolist(), escape[np.arange(len(rs)), rs].tolist()))


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
    masses = sphere_masses(state, np.arange(bottom, top + 1), ts)
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
    :func:`inflow` into B_i, one call per row), smaller ones see u(|x|)
    weighted by the interior J-mass, and the same-norm sphere contributes
    J(|x|) times the u-mass of the ball B_i minus the sub-ball around x.
    Everything but the inflow reads one u table over 0..max i.
    """
    params, space = state.landscape, state.space
    idx = np.maximum(_exps(i), 0).tolist()
    u = u_table(state, np.arange(max(idx) + 1), t)
    table = np.empty((len(idx), u.shape[1]))
    for row, r in enumerate(idx):
        outer = inflow(state, r, t)
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
# The lumped norm chain
# ---------------------------------------------------------------------------


def norm_chain(state: HeatState, t: float | Sequence[float], depth: int) -> np.ndarray:
    """The coset chain on B_depth / Z_p^n lumped onto coset norm exponents:
    P[a, b] = P(from a coset x of norm p^a, in a coset of norm p^b at t),
    the same for every such x since the jump law is radial. With q[b] =
    u(p^b, t), the probability of one unit coset of norm p^b (q[0] = S(t)),
    and vol(S_b) cosets of norm p^b (1 for b = 0):
    P[a, 0] = q[a]; P[a, b] = vol(S_b) q[max(a, b)] for b != a; and P[a, a]
    sums q over x itself, the spheres of B_{a-1}(x) and S_a minus
    B_{a-1}(x), which has p^{n(a-1)} (p^n - 2) cosets. Rows fall short of 1
    by the mass that has left B_depth. For a sequence of times, one chain
    per time along a leading axis, each the same bits as its own call.
    """
    q = u_table(state, np.arange(depth + 1), np.atleast_1d(t)).T  # rows t
    pn = float(state.space.p) ** state.space.n
    b = np.arange(depth + 1)
    count = np.where(b == 0, 1.0, pn**b - pn ** (b - 1.0))
    chain = count * q[:, np.maximum.outer(b, b)]
    a = b[1:]
    inside = np.cumsum(count * q, axis=1)[:, :-1]
    chain[:, a, a] = inside + pn ** (a - 1.0) * (pn - 2.0) * q[:, a]
    return chain[0] if np.ndim(t) == 0 else chain


def chapman_kolmogorov_defect(state: HeatState, t: float, s: float) -> float:
    """max |P(t+s) - P(t) P(s)| over the :func:`norm_chain` at the escape
    depth of t + s (:func:`escape_depths`): P(t) P(s) misses only paths that
    left B_depth by time t, at most AUDIT_TAIL of the mass."""
    [(depth, _)] = escape_depths(state.landscape, [t + s])
    pt, ps, pts = norm_chain(state, [t, s, t + s], depth)
    return float(np.max(np.abs(pts - pt @ ps)))


# ---------------------------------------------------------------------------
# Decay-bound checks
# ---------------------------------------------------------------------------


class DecayBoundReport(NamedTuple):
    """Pointwise margins for the two heat-kernel decay estimates, as
    read-only arrays in the order of ``points``. ``all_nonnegative`` is
    false when any margin is below zero or nan."""

    points: tuple[tuple[int, float], ...]  # (norm exponent, t)
    uniform_margins: np.ndarray  # 2 t |x|^{-n} - Ztilde
    claim_margins: np.ndarray  # t |x|^{-n} (1 - Jhat(p/|x|)) - Ztilde
    decay_margins: np.ndarray  # C0 t |x|^gamma e^{-C1 |x|} - Ztilde
    c0: float
    all_nonnegative: bool


def _read_only(table: np.ndarray) -> np.ndarray:
    flat = table.ravel()
    flat.flags.writeable = False
    return flat


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
    deficits = -_table(state, x_exps, t_grid, functools.partial(_decay, f=np.expm1))
    # The first bound is tight to within roundoff when 1 - Jhat is tiny, so
    # the margins are assembled from manifestly nonnegative pieces instead
    # of subtracting two nearly equal numbers:
    #   t d - (1 - e^{-dt})            with d = 1 - Jhat(p^{1-i}),
    #   sum_j vol(S_{-j}) (1 - E_j)    the deficit of the sphere sum.
    # Each row's constants are scalar arithmetic; the (i, t) tables are
    # elementwise in the order of the scalar formulas, with math.expm1,
    # since np.expm1 may differ from it in the last bit.
    rows = []
    for i in x_exps:
        d = state.cache.one_minus(1 - i)
        xm_n = p ** (-i * n)
        ex = -params.c1 * p**i
        damp = math.exp(ex) if ex > -745.0 else 0.0
        rows.append((d, xm_n, c0 * p ** (i * params.gamma) * damp - xm_n * d))
    d, xm_n, slope = np.array(rows).T[:, :, None]
    neg_dt = (-d * t_grid).ravel().tolist()
    core = d * t_grid + np.array(list(map(math.expm1, neg_dt))).reshape(deficits.shape)
    claim = xm_n * (core + deficits)
    uniform = xm_n * t_grid * (2.0 - d) + claim
    decay = t_grid * slope + claim
    return DecayBoundReport(
        points=tuple(itertools.product(x_exps, ts)),
        uniform_margins=_read_only(uniform),
        claim_margins=_read_only(claim),
        decay_margins=_read_only(decay),
        c0=c0,
        all_nonnegative=all(bool(np.all(m >= 0.0)) for m in (uniform, claim, decay)),
    )
