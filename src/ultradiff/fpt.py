"""First-passage analysis for the return to Z_p^n.

Three linked objects:

* the re-entry flux ``g(t) = sum_{i>=1} J(p^i) vol(S_i) u(p^i, t)`` — the
  probability per unit time that a path outside Z_p^n jumps back in — over
  a time grid (:func:`g_grid`, the :func:`ultradiff.heat.inflow` into
  B_0), by S' = g - kappa S one finite sum over the spectral measure of S
  (:func:`ultradiff.heat.spectral_measure`);
* the first-passage density f in closed form
  (:func:`first_passage_mixture`): the measure makes S-hat(s) = sum_j v_j
  / (s + lambda_j) rational, so F(s) = 1 - 1/((s + kappa) S-hat(s)) is
  too, and f is a finite exponential mixture whose poles are -kappa and
  the zeros of S-hat, one between each pair of adjacent poles of S-hat
  (the positive-weight secular equation: Golub, SIAM Rev. 15 (1973) 318;
  solved as in R.-C. Li, LAPACK Working Note 89, the method of LAPACK's
  dlaed4); P(tau <= T) is a sum over the same poles, with no grid;
* the Laplace transform ``G(s)`` of g over the same measure, a sum of
  nonnegative terms for any s in (0, +inf] (G(+inf) = 0).
  Since ``F(s) = G(s) / (1 + G(s))`` for the transform F of f (the renewal
  identity ``g = g (*) f + f``), recurrence (return probability one) is
  equivalent to G blowing up as s -> 0+; the diagnostic walks a descending
  s-ladder and reports a verdict, never a proof — finite evaluation cannot
  certify divergence. ``verify`` holds the mixture to the same identity
  (:meth:`FirstPassageMixture.transform`).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NonPositiveS, SeriesDiverged
from .heat import HeatState, decay_sum, inflow, spectral_measure


def _trapezoid(y: np.ndarray, dx: float) -> float:
    if hasattr(np, "trapezoid"):
        return float(np.trapezoid(y, dx=dx))
    return float(np.trapz(y, dx=dx))  # numpy < 2


def g_grid(state: HeatState, ts: np.ndarray) -> np.ndarray:
    """The re-entry flux into Z_p^n over the times ts: the
    :func:`ultradiff.heat.inflow` into B_0, sum_j v_j d_j expm1(-lambda_j t)
    over the spectral measure of S, exactly 0 at t = 0."""
    return inflow(state, 0, ts)


# ---------------------------------------------------------------------------
# First passage in closed form
# ---------------------------------------------------------------------------

#: How ``fpt`` computes f and P(tau <= T); the fpt manifest names it.
FPT_PROTOCOL = "spectral-mixture-v1"
#: Measure entries with lambda_j T below this join the atom at lambda = 0.
LUMP_RATE_TIME = 1e-18
_EPS = float(np.finfo(float).eps)


class FirstPassageMixture(NamedTuple):
    """The first-passage density on [0, horizon] as a finite mixture:
    mu[0] = -kappa, mu[1 + k] is the zero of S-hat in (poles[k], poles[k
    + 1]) (poles: those of S-hat, ascending), and

        f(t) = sum_{k != pair} rho_k expm1(mu_k t)
               + rho_pair e^{mu_0 t} expm1(delta t) / delta,

    delta = mu_pair - mu_0, where pair indexes the zero in the interval
    that holds -kappa. That is sum_k r_k e^{mu_k t} over the residues r of
    F, with rho_0 = r_0 + r_pair, rho_pair = r_pair delta and rho_k = r_k
    otherwise (sum_k r_k = f(0) = 0 drops out), written so that no
    closeness of that zero to -kappa cancels: there r_0 and r_pair grow
    like 1/delta with opposite signs. ``bound`` holds for every value of
    :meth:`density` on [0, horizon] and for :meth:`cdf`."""

    mu: np.ndarray
    rho: np.ndarray
    poles: np.ndarray
    pair: int  # 0 when there is no zero (every entry lumped)
    horizon: float
    lumping_bound: float
    roundoff_bound: float

    @property
    def bound(self) -> float:
        return self.lumping_bound + self.roundoff_bound

    def _floor(self, values, what: str):
        """values with those below 0 by at most ``bound`` set to 0; one
        further below raises SeriesDiverged."""
        low = np.flatnonzero(values < -self.bound)
        if low.size:
            raise SeriesDiverged(
                f"first-passage {what} {np.ravel(values)[low[0]]} < -{self.bound}, "
                f"its error bound (at index {low[0]})"
            )
        return np.maximum(values, 0.0)

    def _split(self) -> tuple[np.ndarray, float]:
        """(the rho of the expm1 terms, the pair's coefficient)."""
        rho = self.rho.copy()
        if not self.pair:
            return rho, 0.0
        rho[self.pair] = 0.0
        return rho, float(self.rho[self.pair])

    def density(self, ts) -> np.ndarray:
        """f over the times ts in [0, horizon] (:meth:`_floor`ed), exactly 0
        at t = 0 and free of cancellation at small t; the pair's term is
        e^{mt} (1 - e^{-|delta| t}) / |delta|, m = max(mu_0, mu_pair), which
        cannot overflow."""
        rho, slope = self._split()
        f = decay_sum(rho, -self.mu, ts, np.expm1)
        if slope:
            ts = np.asarray(ts, dtype=float)
            a, b = self.mu[0], self.mu[self.pair]
            gap = abs(b - a)
            f += slope * np.exp(max(a, b) * ts) * (-np.expm1(-gap * ts) / gap if gap else ts)
        return self._floor(f, "density")

    def cdf(self) -> float:
        """P(tau <= horizon) = int_0^T f (:meth:`_floor`ed): sum_k rho_k
        expm1(mu_k T) / mu_k over the expm1 terms, and the pair's rho T^2
        exp[0, mu_0 T, mu_pair T] (:func:`_exp_dd2`)."""
        rho, slope = self._split()
        T = self.horizon
        value = float(np.sum(rho * np.expm1(self.mu * T) / self.mu))
        if slope:
            value += slope * T * T * _exp_dd2(self.mu[0] * T, self.mu[self.pair] * T)
        return float(self._floor(value, "probability"))

    def transform(self, s) -> tuple[np.ndarray, np.ndarray]:
        """The Laplace transform of f at each s > 0, sum_{k != pair} rho_k
        mu_k / (s (s - mu_k)) + rho_pair / ((s - mu_pair) (s - mu_0)) (the
        transform of expm1(mu t) is 1/(s - mu) - 1/s), not :meth:`_floor`ed,
        and the sum of its terms' absolute values, the scale of its
        rounding error."""
        s = np.asarray(s, dtype=float)[..., None]
        rho, slope = self._split()
        terms = rho * self.mu / (s * (s - self.mu))
        if slope:
            a, b = self.mu[0], self.mu[self.pair]
            terms[..., self.pair] = slope / ((s[..., 0] - a) * (s[..., 0] - b))
        return terms.sum(-1), np.abs(terms).sum(-1)


def _phi(x: float) -> float:
    return math.expm1(x) / x if x else 1.0


def _exp_dd2(x: float, y: float) -> float:
    """The divided difference exp[0, x, y] = (phi(y) - phi(x)) / (y - x),
    phi(x) = expm1(x) / x, for x, y <= 0, without that form's cancellation
    as y -> x: with |x| <= |y|, (e^x phi(y - x) - phi(x)) / y, and near 0,
    where that cancels, the series sum_n h_n(x, y) / (n + 2)! over the
    complete homogeneous polynomials h_n = sum_{i<=n} x^i y^{n-i}."""
    if abs(x) > abs(y):
        x, y = y, x
    if abs(y) >= 0.5:
        return (math.exp(x) * _phi(y - x) - _phi(x)) / y
    total, h, xn, fact = 0.5, 1.0, 1.0, 2.0
    for n in range(1, 24):  # past n = 16 the terms are below 2^-53 of the sum
        xn *= x
        h = y * h + xn
        fact *= n + 2
        total += h / fact
    return total


def _root_in(c, a, b, lo, hi):
    """The root of c x^2 - a x + b = 0 in (lo, hi), each from the stable
    pair b / q, q / c; the midpoint of (lo, hi) where rounding puts
    neither there."""
    q = 0.5 * (a + np.copysign(np.sqrt(np.abs(a * a - 4.0 * b * c)), a))
    x = b / q
    x = np.where((x > lo) & (x < hi), x, q / c)
    return np.where((x > lo) & (x < hi), x, 0.5 * (lo + hi))


def _secular_zeros(gaps: np.ndarray, w: np.ndarray):
    """The zeros of S-hat(s) = sum_i w_i / (s + lam_i), w > 0, lam
    descending and distinct, given as the offsets gaps[i, j] = lam_i -
    lam_j: one in each (-lam[k], -lam[k + 1]), where S-hat falls from +inf
    to -inf.

    Each zero is held as an offset tau from its nearer pole, -lam[o] (the
    sign of S-hat at the midpoint tells which), so it keeps relative
    accuracy however close the poles. In those coordinates the function
    phi(tau) = -S-hat = sum_i w_i / (D_i - tau), D_i = gaps[o, i], rises; a
    two-pole model with the rest frozen at the midpoint gives the start,
    and Li's middle-way step (LAPACK Working Note 89; dlaed4) fits c +
    s/(D_k - tau) + S/(D_{k+1} - tau) to phi and phi' at the iterate and
    steps to its zero, or bisects where that leaves the bracket the signs
    of phi have shown. It stops at dlaed4's test |phi| <= eps (8 sum_i |w_i
    / (D_i - tau)| + |tau| phi'). All intervals step together.

    Returns (o, tau, phi'(tau)); phi' = -S-hat' at the zero."""
    k = np.arange(w.size - 1)
    width = gaps.diagonal(1)
    mid = (w / (gaps[:-1] - 0.5 * width[:, None])).sum(1)  # phi there
    o = k + (mid < 0.0)
    dist = gaps[o]  # D, one row per interval
    lo, hi = dist.diagonal().copy(), dist.diagonal(1).copy()
    wl, wr = w[:-1], w[1:]
    c = mid + 2.0 * (wl - wr) / width  # phi at the midpoint less the two poles
    with np.errstate(divide="ignore", invalid="ignore"):  # a model with c = 0
        tau = _root_in(c, c * (lo + hi) + wl + wr, wl * hi + wr * lo, lo, hi)
        for _ in range(64):
            delta = dist - tau[:, None]
            t = w / delta
            sums, slopes = t.cumsum(1), (t / delta).cumsum(1)
            phi, psi = sums[:, -1], sums.diagonal()  # psi: the poles left of the zero
            dphi, dpsi = slopes[:, -1], slopes.diagonal()
            if (abs(phi) <= _EPS * (8.0 * (phi - 2.0 * psi) + abs(tau) * dphi)).all():
                return o, tau, dphi
            np.copyto(lo, tau, where=phi < 0.0)
            np.copyto(hi, tau, where=phi > 0.0)
            dk, dk1 = delta.diagonal(), delta.diagonal(1)
            prod = dk * dk1
            c = phi - dk * dpsi - dk1 * (dphi - dpsi)
            tau = tau + _root_in(c, (dk + dk1) * phi - prod * dphi, prod * phi, lo - tau, hi - tau)
    raise SeriesDiverged(f"the zeros of S-hat did not converge in {w.size - 1} intervals")


def first_passage_mixture(state: HeatState, T: float) -> FirstPassageMixture:
    """The first-passage density f and P(tau <= T) in closed form.

    Over the spectral measure of S (:func:`ultradiff.heat.spectral_measure`)
    with its entries j >= N lumped into the atom at 0, N the first index
    after which every lambda_j T < LUMP_RATE_TIME, S-hat(s) = sum_{j<N} v_j
    / (s + lambda_j) + p^{-nN} / s, and F(s) = 1 - 1/((s + kappa)
    S-hat(s)) has simple poles at -kappa, residue -1/S-hat(-kappa), and at
    each zero z of S-hat (:func:`_secular_zeros`), residue -1/((z + kappa)
    S-hat'(z)). With Delta_i = -lambda_i - z and d_i = kappa - lambda_i =
    Delta_i + delta (the measure's band sums), z the zero paired with
    -kappa and delta = z + kappa: S-hat(-kappa) = delta B_a, B_a = sum_i
    v_i / (d_i Delta_i), S-hat'(z) = -B_z, B_z = sum_i v_i / Delta_i^2,
    both sums of positive terms (d_i and Delta_i share their sign), so
    r_pair delta = 1/B_z and r_0 + r_pair = -sum_i v_i / (d_i Delta_i^2)
    / (B_a B_z) carry no 1/delta. With N = 0 S-hat = 1/s has no zero, f is
    within the lumping error of 0 on [0, T], and the mixture is empty.

    The bound is the lumping error plus roundoff, for f on [0, T] and for
    P alike. Lumping: each lumped lambda_j is at most l = lambda_N p^n /
    (p^n - 1) (lambda_{J-1} p^n / (p^n - 1) past the cache's last nonzero
    entry), so S moves by e = p^{-nN} l per unit time and g = S' + kappa S
    by at most e (1 + kappa T); the resolvents delta - f of the two
    problems carry that into f with gain at most 2 (1 + A), A >= int_0^T
    |f| summed term by term, and f(0) = e is dropped; P takes T times
    that. Roundoff: 4 (K + 2) eps sum_k |rho_k| c_k w_k over the K terms,
    with w_k the term's largest size in f or in P per unit rho (max(1,
    min(T, 1/|mu_k|)), and r max(1, r) for the pair, r = min(T, 1 /
    min(|mu_0|, |mu_pair|))) and c_k = 1 but at -kappa, where the sum of v_i
    / (d_i Delta_i^2) cancels: its sum of absolute values over its value."""
    v, d, lam, kappa = spectral_measure(state)
    pn = float(state.space.p) ** state.space.n
    kept = np.flatnonzero(lam * T >= LUMP_RATE_TIME)
    n = int(kept[-1]) + 1 if kept.size else 0
    lumped = pn**-n * lam[min(n, lam.size - 1)] * pn / (pn - 1.0) if lam.size else 0.0

    def lumping(area: float) -> float:
        return lumped * (2.0 * (1.0 + area) * (1.0 + kappa * T) + 1.0) * max(1.0, T)

    if n == 0:
        empty = np.zeros(0)
        return FirstPassageMixture(empty, empty, np.zeros(1), 0, T, lumping(0.0), 0.0)
    order = np.argsort(-lam[:n], kind="stable")
    lam = np.concatenate((lam[:n][order], [0.0]))
    w = np.concatenate((v[:n][order], [pn**-n]))
    d = np.concatenate((d[:n][order], [kappa]))
    # lambda_i - lambda_j, as d_j - d_i where the d are the smaller: near
    # -kappa the lambda_i are close to kappa, and their differences cancel
    small_d = np.maximum.outer(abs(d), abs(d)) < np.maximum.outer(lam, lam)
    gaps = np.where(small_d, d - d[:, None], lam[:, None] - lam)
    o, tau, dphi = _secular_zeros(gaps, w)
    mu = np.concatenate(([-kappa], tau - lam[o]))
    rho = np.concatenate(([0.0], 1.0 / ((d[o] + tau) * dphi)))
    # the zero between the poles either side of -kappa
    k = np.count_nonzero(lam > kappa) - 1
    gap = gaps[o[k]] - tau[k]  # Delta
    b_a, b_z = float(np.sum(w / (d * gap))), float(dphi[k])
    lead = w / (d * gap * gap)
    rho[0] = -float(np.sum(lead)) / (b_a * b_z)
    rho[1 + k] = 1.0 / b_z
    size = np.abs(rho)
    size[1 + k] = 0.0  # the pair's term is at most rho_pair r, its integral rho_pair r^2
    reach = np.minimum(T, 1.0 / np.abs(mu))
    r = min(T, 1.0 / min(kappa, abs(mu[1 + k])))
    area = float(np.sum(size * reach)) + rho[1 + k] * r * r
    size[0] = float(np.sum(np.abs(lead))) / (b_a * b_z)  # |rho_0| times its condition
    size = float(np.sum(size * np.maximum(1.0, reach))) + rho[1 + k] * r * max(1.0, r)
    roundoff = 4.0 * (mu.size + 2) * _EPS * size
    return FirstPassageMixture(mu, rho, -lam, 1 + k, T, lumping(area), roundoff)


# ---------------------------------------------------------------------------
# Laplace side
# ---------------------------------------------------------------------------


class LaplaceEval(NamedTuple):
    """G(s) with truncation diagnostics; for a sequence of s, ``s``,
    ``value`` and ``tail_bound`` are arrays over it."""

    s: float | np.ndarray
    value: float | np.ndarray
    inner_terms_max: int
    tail_bound: float | np.ndarray


def laplace_G(state: HeatState, s: float | Sequence[float]) -> LaplaceEval:
    """G(s) = sum_j v_j d_j / (s + lambda_j) over the spectral measure
    (:func:`ultradiff.heat.spectral_measure`) less the zero sum sum_j v_j d_j
    / (s + kappa): (sum_{j<J} v_j d_j^2 / (s + lambda_j) + p^{-nJ} kappa^2 / s)
    / (s + kappa), nonnegative terms, 0 at s = +inf. inner_terms_max is J. The
    atom takes each lambda_j, j >= J, as 0.0; each is at most l = lambda_{J-1}
    p^n / (p^n - 1), so the atom overstates G by at most tail_bound =
    2 p^{-nJ} kappa l / s^2 (l = 0 at J = 0, where kappa is 0 too).

    A sequence of s reads the measure once and sums one (S, J) table along
    J; each row sum is the one a single s gives."""
    s_values = np.atleast_1d(np.asarray(s, dtype=float))
    bad = ~(s_values > 0)  # NaN is bad too
    if bad.any():
        raise NonPositiveS(f"Laplace evaluation needs s > 0, got {s_values[bad][0]}")
    v, d, lam, kappa = spectral_measure(state)
    pn = float(state.space.p) ** state.space.n
    atom, past = pn**-lam.size, float(lam[-1:].sum()) * pn / (pn - 1.0)
    series = np.sum(v * d * d / (s_values[:, None] + lam), axis=1)
    value = (series + atom * kappa * kappa / s_values) / (s_values + kappa)
    tail = 2.0 * atom * kappa * past / s_values / s_values
    if np.ndim(s) == 0:
        return LaplaceEval(s, float(value[0]), lam.size, float(tail[0]))
    return LaplaceEval(s_values, value, lam.size, tail)


def laplace_g_quadrature(state: HeatState, s, horizon: float = 50.0, h: float = 1e-2):
    """Direct numerical Laplace transform of g (trapezoid on [0, horizon]):
    a float for one s, an array for a sequence, all from one g grid. At
    s = +inf it is the trapezoid's limit (h/2) g(0)."""
    s_values = np.atleast_1d(np.asarray(s, dtype=float))
    bad = ~(s_values > 0)  # NaN is bad too
    if bad.any():
        raise NonPositiveS(f"Laplace evaluation needs s > 0, got {s_values[bad][0]}")
    ts = np.arange(0.0, horizon + h / 2, h)
    gv = g_grid(state, ts)
    # e^{-s t} at t = 0 is 1 for every s: -s * 0 is nan at s = inf
    out = np.array(
        [_trapezoid(np.append(1.0, np.exp(-sv * ts[1:])) * gv, h) for sv in s_values]
    )
    return float(out[0]) if np.ndim(s) == 0 else out


class RecurrenceReport(NamedTuple):
    """Numerically supported recurrence verdict along a descending s-ladder."""

    s_values: tuple[float, ...]
    g_values: tuple[float, ...]
    threshold: float
    hypothesis_met: bool  # gamma in (-n, 0), the regime the theory covers
    strictly_increasing: bool
    exceeded_threshold: bool
    f0_proxy: float  # G/(1+G) at the smallest s
    verdict: str  # "recurrent (numerically supported)" | "inconclusive"
    note: str = ""


def recurrence_diagnostic(
    state: HeatState, s_ladder: Sequence[float], threshold: float = 1e3
) -> RecurrenceReport:
    """Evaluate G down the ladder and report whether it blows up.

    Divergence of G(0+) implies every path returns to Z_p^n; the verdict is
    "recurrent (numerically supported)" when G increases strictly along the
    descending ladder and clears the threshold. Outside gamma in (-n, 0)
    the numbers are still reported but flagged as outside the supported
    hypothesis.
    """
    ladder = list(s_ladder)
    if not all(s > 0 for s in ladder):  # NaN fails this too
        raise NonPositiveS("the s-ladder must be strictly positive")
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("the s-ladder must be strictly decreasing")
    values = laplace_G(state, ladder).value.tolist()
    increasing = all(b > a for a, b in zip(values, values[1:]))
    exceeded = any(v > threshold for v in values)
    params = state.landscape
    hypothesis = -params.space.n < params.gamma < 0
    g_last = values[-1]
    verdict = (
        "recurrent (numerically supported)"
        if increasing and exceeded
        else "inconclusive"
    )
    note = ""
    if not hypothesis:
        note = (
            f"gamma = {params.gamma} is outside (-n, 0) = ({-params.space.n}, 0); "
            "the recurrence theory does not cover these parameters and the "
            "numbers below carry no verdict weight"
        )
    return RecurrenceReport(
        s_values=tuple(ladder),
        g_values=tuple(values),
        threshold=threshold,
        hypothesis_met=hypothesis,
        strictly_increasing=increasing,
        exceeded_threshold=exceeded,
        f0_proxy=g_last / (1.0 + g_last),
        verdict=verdict,
        note=note,
    )
