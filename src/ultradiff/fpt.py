"""First-passage analysis for the return to Z_p^n.

Three linked objects:

* the re-entry flux ``g(t) = sum_{i>=1} J(p^i) vol(S_i) u(p^i, t)`` — the
  probability per unit time that a path outside Z_p^n jumps back in —
  tabulated over a time grid by :func:`g_grid`;
* the first-passage density f, tied to g by the renewal identity
  ``g(t) = int_0^t g(t - tau) f(tau) dtau + f(t)`` (a second-kind Volterra
  equation; g vanishes for negative arguments), discretised by the
  trapezoid rule and solved as one power-series division, O(m log m); its
  integral (:meth:`VolterraGrid.integral_f`) is the censored return
  probability;
* the Laplace transform ``G(s)`` of g, evaluated as the same sphere series
  with phi(lambda) = 1/(s + lambda) in place of e^{-lambda t}, for any
  s in (0, +inf] (G(+inf) = 0).
  Since ``F(s) = G(s) / (1 + G(s))`` for the transform F of f, recurrence
  (return probability one) is equivalent to G blowing up as s -> 0+; the
  diagnostic walks a descending s-ladder and reports a verdict, never a
  proof — finite evaluation cannot certify divergence.

The Volterra solve is a handful of FFTs over the whole grid; Laplace
evaluations at distinct s are independent, but a small s grows the spectral
cache in place, so threads sharing a cache need its window grown first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NonPositiveS, StepTooCoarse
from .heat import HeatState, inflow, sphere_series
from .landscape import LandscapeParams, SpectralCache, sphere_masses_above


def _trapezoid(y: np.ndarray, dx: float) -> float:
    if hasattr(np, "trapezoid"):
        return float(np.trapezoid(y, dx=dx))
    return float(np.trapz(y, dx=dx))  # numpy < 2


def g_grid(state: HeatState, ts: np.ndarray) -> np.ndarray:
    """The re-entry flux g over the times ts, one engine call; g(0) = 0
    since u starts supported on Z_p^n."""
    return inflow(state, 0, ts)


# ---------------------------------------------------------------------------
# The renewal (Volterra) equation
# ---------------------------------------------------------------------------


@dataclass
class VolterraGrid:
    """Uniform time grid carrying the flux g and the solved density f."""

    h: float
    g: np.ndarray
    f: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.g)) * self.h

    @property
    def horizon(self) -> float:
        return (len(self.g) - 1) * self.h

    def residual(self) -> np.ndarray:
        """g - (g (*) f + f) under the trapezoid rule, applied directly and
        not through solve_volterra's series division: the trapezoid sum at
        t_k is sum_{i<=k} g_{k-i} f_i (one FFT product) less its end halves."""
        g, f = self.g, self.f
        trap = _product(g, f, len(g)) - 0.5 * (g * f[0] + g[0] * f)
        return g - self.h * trap - f

    def f_for_export(self) -> np.ndarray:
        """f with quadrature overshoot below zero (within 1e-8) clamped."""
        out = self.f.copy()
        mask = (out < 0.0) & (out > -1e-8)
        out[mask] = 0.0
        return out

    def integral_f(self, upto: float | None = None) -> float:
        """Trapezoidal integral of f: the return probability censored at
        the horizon, a lower proxy for the s -> 0 limit of G/(1+G)."""
        if upto is None:
            return _trapezoid(self.f, self.h)
        k = int(round(upto / self.h))
        return _trapezoid(self.f[: k + 1], self.h)


def _product(x: np.ndarray, y: np.ndarray, m: int) -> np.ndarray:
    """The first m coefficients of the series product x y (zero-padded FFT)."""
    size = 1 << (len(x) + len(y) - 2).bit_length()
    return np.fft.irfft(np.fft.rfft(x, size) * np.fft.rfft(y, size), size)[:m]


def _series_inverse(a: np.ndarray) -> np.ndarray:
    """1/a mod z^len(a) by Newton iteration x <- x (2 - a x) = x - x (a x - 1),
    doubling the terms of x per step (Brent & Kung, J. ACM 25 (1978) 581)."""
    x = np.array([1.0 / a[0]])
    while len(x) < len(a):
        k, n = len(x), min(2 * len(x), len(a))
        e = _product(a[:n], x, n)[k:]
        x = np.concatenate([x, -_product(x, e, n - k)])
    return x


def solve_volterra(g: np.ndarray, h: float) -> VolterraGrid:
    """Trapezoidal solve of g = g (*) f + f on a uniform grid, in O(m log m).

    The trapezoid rule (second order) gives a lower-triangular Toeplitz
    system: with a_0 = 1 + h g_0 / 2 and a_k = h g_k (k >= 1) it reads
    A(z) F(z) = a_0 G(z) mod z^m, so f = a_0 g (*) (1/a), one series division.
    """
    g = np.asarray(g, dtype=float)
    if h <= 0:
        raise ValueError("step h must be positive")
    bad = np.flatnonzero(~np.isfinite(g))
    if bad.size:
        raise ValueError(f"g is not finite at index {bad[0]}: {g[bad[0]]}")
    diag = 0.5 * h * g[0]
    if diag >= 1.0:
        raise StepTooCoarse(
            f"(h/2) g(0) = {diag} >= 1; the implicit diagonal is unstable"
        )
    a = h * g
    a[0] = 1.0 + diag
    f = a[0] * _product(g, _series_inverse(a), len(g))
    return VolterraGrid(h=h, g=g, f=f)


# ---------------------------------------------------------------------------
# Laplace side
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LaplaceEval:
    """G(s) with truncation diagnostics."""

    s: float
    value: float
    outer_terms: int
    inner_terms_max: int
    tail_bound: float


def laplace_G(
    params: LandscapeParams, cache: SpectralCache, s: float
) -> LaplaceEval:
    """Laplace transform of the re-entry flux as a double sphere series.

    Termwise Laplace transform of the sphere series of u(p^i, .) gives

        G(s) = sum_{i>=1} J(p^i) vol(S_i) [ sum_{j>=i} vol(S_{-j}) /
               (s + 1 - Jhat(p^{-j}))  -  p^{-ni} / (s + 1 - Jhat(p^{1-i})) ].

    The inner tail is bounded by a geometric series with all denominators
    >= s, giving a hard remainder bound; spectral values beyond the cache
    window are filled in on demand. At s = +inf every term is 0, and so are
    G and the bound (the limit G(s) -> 0).
    """
    if not s > 0:  # NaN fails this too
        raise NonPositiveS(f"Laplace evaluation needs s > 0, got {s}")
    space = params.space
    pn = float(space.p) ** space.n
    w = sphere_masses_above(params, 0)
    i = np.arange(1, w.size + 1)
    # Past n_terms spheres the inner series has at most p^{-n(i+n_terms)}/s
    # left, below 1e-15 of its first term vol(S_{-i}) / (s + 2).
    n_terms = math.ceil(
        (math.log1p(2.0 / s) - math.log(1e-15 * space.unit_sphere_volume)) / math.log(pn)
    )
    a, corr = sphere_series(cache, i, lambda lam: 1.0 / (s + lam), n_terms)
    scale = pn ** -i.astype(float)
    return LaplaceEval(
        s=s, value=float(w @ (scale * (a - corr))), outer_terms=int(w.size),
        inner_terms_max=n_terms, tail_bound=float(np.max(w * scale)) * pn**-n_terms / s,
    )


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


@dataclass(frozen=True)
class RecurrenceReport:
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
    params: LandscapeParams,
    cache: SpectralCache,
    s_ladder: Sequence[float],
    threshold: float = 1e3,
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
    values = [laplace_G(params, cache, s).value for s in ladder]
    increasing = all(b > a for a, b in zip(values, values[1:]))
    exceeded = any(v > threshold for v in values)
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
