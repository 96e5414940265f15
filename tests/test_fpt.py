"""First-passage pipeline: flux, Volterra solve, Laplace series, recurrence.

The Volterra solve is validated against the closed-form renewal pair
g = a e^{-bt}  <->  f = a e^{-(a+b)t} (Laplace algebra: G = a/(s+b) gives
F = G/(1+G) = a/(s+a+b)), including the h^2 convergence order; against the
O(m^2) trapezoidal time-stepper; and, on the real flux, against
P(tau <= T) from a numerical inverse Laplace transform of F(s)/s.
"""

import math

import mpmath
import numpy as np
import pytest

from ultradiff.errors import NonPositiveS, StepTooCoarse
from ultradiff.fpt import (
    g_grid,
    laplace_G,
    laplace_g_quadrature,
    recurrence_diagnostic,
    solve_volterra,
    VolterraGrid,
)
from ultradiff.heat import sphere_series, u_table
from ultradiff.landscape import (
    SpectralCache,
    exterior_mass,
    normalize,
    sphere_masses_above,
)


def synthetic_grid(a, b, h, horizon):
    ts = np.arange(0.0, horizon + h / 2, h)
    return ts, a * np.exp(-b * ts)


# ---------------------------------------------------------------------------
# the flux g
# ---------------------------------------------------------------------------


def test_flux_vanishes_at_zero(desk_state):
    assert g_grid(desk_state, np.array([0.0]))[0] == 0.0
    assert g_grid(desk_state, np.array([0.0, 1.0]))[0] == 0.0


def test_flux_bounded_by_exterior_mass(desk_state):
    c_ext = exterior_mass(desk_state.landscape)
    ts = np.linspace(0.0, 20.0, 101)
    # u <= 1 on every sphere, hence g <= C
    assert np.all(u_table(desk_state, (1, 2, 4), (0.5, 2.0, 10.0)) <= 1.0 + 1e-12)
    assert np.all(g_grid(desk_state, ts) <= c_ext + 1e-12)


def test_flux_grid_matches_scalar(desk_state):
    ts = np.array([0.0, 0.1, 0.7, 1.3, 5.0, 17.0])
    grid = g_grid(desk_state, ts)
    for k, t in enumerate(ts):
        one = g_grid(desk_state, np.array([t]))[0]
        assert grid[k] == pytest.approx(one, rel=1e-12, abs=1e-15)


def test_flux_other_space(state_p3n2):
    g0, g1 = g_grid(state_p3n2, np.array([0.0, 1.0]))
    assert g0 == 0.0
    assert 0.0 < g1 <= exterior_mass(state_p3n2.landscape)


# ---------------------------------------------------------------------------
# Volterra solver
# ---------------------------------------------------------------------------


def stepper_solve(g, h):
    """The trapezoidal scheme stepped forward in time, O(m^2): the oracle for
    solve_volterra's series division. f_k appears in its own quadrature only
    through the diagonal weight (h/2) g_0, so each step is explicit."""
    diag = 0.5 * h * g[0]
    f = np.zeros(len(g))
    f[0] = g[0]
    for k in range(1, len(g)):
        conv = 0.5 * g[k] * f[0]
        if k > 1:
            conv += float(np.dot(g[k - 1 : 0 : -1], f[1:k]))
        f[k] = (g[k] - h * conv) / (1.0 + diag)
    return f


def test_fft_solve_matches_stepper(desk_state):
    h = 0.01
    ts = np.arange(0.0, 100.0 + h / 2, h)  # m = 10 001
    rng = np.random.default_rng(20151126)
    heavy = rng.random(1001) * np.exp(-ts[:1001])
    heavy[0] = 1.8 / h  # (h/2) g_0 = 0.9, near the StepTooCoarse limit
    for g in (g_grid(desk_state, ts), synthetic_grid(0.5, 1.0, h, 10.0)[1], heavy):
        diff = np.max(np.abs(solve_volterra(g, h).f - stepper_solve(g, h)))
        assert diff <= 1e-14 * max(1.0, float(np.max(np.abs(g))))


def test_non_finite_flux_rejected():
    g = np.ones(101)
    g[5] = np.nan
    with pytest.raises(ValueError, match="index 5"):
        solve_volterra(g, 0.01)


def test_zero_flux_gives_zero_density():
    grid = solve_volterra(np.zeros(101), 0.05)
    assert np.all(grid.f == 0.0)
    assert grid.integral_f() == 0.0


def test_synthetic_renewal_pair_closed_form():
    a, b, h = 0.5, 1.0, 0.01
    ts, g = synthetic_grid(a, b, h, 10.0)
    grid = solve_volterra(g, h)
    exact = a * np.exp(-(a + b) * ts)
    err = float(np.max(np.abs(grid.f - exact)))
    assert err <= 5.0 * h * h  # second-order scheme, mild constant


def quadrature_residual(grid):
    """The residual step by step, as the stepper applies its quadrature:
    g_k - h (g_k f_0 / 2 + sum_{0<i<k} g_{k-i} f_i + g_0 f_k / 2) - f_k."""
    g, f = grid.g, grid.f
    res = np.empty(len(g))
    res[0] = g[0] - f[0]
    for k in range(1, len(g)):
        conv = 0.5 * g[k] * f[0] + 0.5 * g[0] * f[k]
        conv += float(np.dot(g[k - 1 : 0 : -1], f[1:k]))
        res[k] = g[k] - grid.h * conv - f[k]
    return res


def test_residual_matches_quadrature_loop():
    # a grid whose f is not the solution, so the residual is far from 0
    h = 0.01
    ts, g = synthetic_grid(0.5, 1.0, h, 10.0)
    grid = VolterraGrid(h=h, g=g, f=np.cos(ts) * g)
    oracle = quadrature_residual(grid)
    assert np.max(np.abs(oracle)) > 0.01
    assert np.max(np.abs(grid.residual() - oracle)) <= 1e-14


def roundoff_bound(g):
    """What the residual of an exact solve of the trapezoid equations can
    read: roundoff in the FFT products, far below any discretisation error."""
    return 1e-12 * max(1.0, float(np.max(np.abs(g))))


@pytest.mark.parametrize("h", [0.04, 0.02, 0.01])
def test_synthetic_residual_bound(h):
    ts, g = synthetic_grid(0.5, 1.0, h, 10.0)
    grid = solve_volterra(g, h)
    assert float(np.max(np.abs(grid.residual()))) <= roundoff_bound(g)


def test_h_refinement_order():
    a, b = 0.5, 1.0
    errs = []
    for h in (0.04, 0.02, 0.01):
        ts, g = synthetic_grid(a, b, h, 10.0)
        grid = solve_volterra(g, h)
        errs.append(float(np.max(np.abs(grid.f - a * np.exp(-(a + b) * ts)))))
    orders = [math.log2(e1 / e2) for e1, e2 in zip(errs, errs[1:])]
    assert all(o >= 1.8 for o in orders), orders


def test_step_too_coarse_guard():
    g = np.full(10, 300.0)  # g(0) huge relative to h
    with pytest.raises(StepTooCoarse):
        solve_volterra(g, h=0.01)


def test_solver_on_real_flux(desk_state):
    h = 0.01
    ts = np.arange(0.0, 10.0 + h / 2, h)
    grid = solve_volterra(g_grid(desk_state, ts), h)
    assert float(np.max(np.abs(grid.residual()))) <= roundoff_bound(grid.g)
    assert float(grid.f.min()) >= -1e-8
    assert np.all(grid.f_for_export() >= 0.0)
    assert 0.0 <= grid.integral_f() <= 1.0


def test_return_probability_synthetic_limit():
    a, b, h, T = 0.5, 1.0, 0.01, 10.0
    ts, g = synthetic_grid(a, b, h, T)
    grid = solve_volterra(g, h)
    target = a / (a + b)
    assert abs(grid.integral_f() - target) <= h * h + math.exp(-(a + b) * T)


def test_return_probability_grows_with_horizon(desk_state):
    h = 0.05
    vals = []
    for T in (10.0, 50.0, 200.0):
        ts = np.arange(0.0, T + h / 2, h)
        grid = solve_volterra(g_grid(desk_state, ts), h)
        vals.append(grid.integral_f())
    assert vals[0] < vals[1] < vals[2] <= 1.0 + 1e-6


# ---------------------------------------------------------------------------
# Laplace series
# ---------------------------------------------------------------------------


def test_laplace_positive_s_required(desk_params, desk_state):
    with pytest.raises(NonPositiveS):
        laplace_G(desk_params, desk_state.cache, 0.0)
    with pytest.raises(NonPositiveS):
        laplace_g_quadrature(desk_state, -1.0)


def test_laplace_G_rejects_nan_s(desk_params, desk_state):
    with pytest.raises(NonPositiveS):
        laplace_G(desk_params, desk_state.cache, math.nan)


def test_laplace_quadrature_rejects_nan_s(desk_state):
    for bad in (math.nan, [1.0, math.nan]):
        with pytest.raises(NonPositiveS):
            laplace_g_quadrature(desk_state, bad, horizon=5.0)


def test_recurrence_diagnostic_rejects_nan_in_the_ladder(desk_params, desk_state):
    with pytest.raises(NonPositiveS):
        recurrence_diagnostic(desk_params, desk_state.cache, [0.1, math.nan, 0.001])


def test_laplace_G_at_infinite_s(desk_params, desk_state):
    # the limit G(s) -> 0, with a finite term count and a zero tail bound
    ev = laplace_G(desk_params, desk_state.cache, math.inf)
    assert ev.value == 0.0 and ev.tail_bound == 0.0
    far = laplace_G(desk_params, desk_state.cache, 1e300)
    assert ev.inner_terms_max == far.inner_terms_max


def test_laplace_quadrature_at_infinite_s(desk_state):
    # the trapezoid's limit (h/2) g(0), with no RuntimeWarning
    h = 1e-2
    limit = 0.5 * h * g_grid(desk_state, np.array([0.0]))[0]
    assert laplace_g_quadrature(desk_state, math.inf, horizon=5.0, h=h) == limit
    quad = laplace_g_quadrature(desk_state, [1.0, math.inf], horizon=5.0, h=h)
    assert quad.tolist() == [
        laplace_g_quadrature(desk_state, 1.0, horizon=5.0, h=h), limit
    ]


def test_recurrence_diagnostic_with_infinite_s(desk_params, desk_state):
    ladder = [math.inf, 0.1, 0.001]
    rep = recurrence_diagnostic(desk_params, desk_state.cache, ladder)
    assert rep.g_values == tuple(
        laplace_G(desk_params, desk_state.cache, s).value for s in ladder
    )
    assert rep.g_values[0] == 0.0 and rep.strictly_increasing


def test_laplace_quadrature_over_an_s_vector(desk_state):
    s_values = [2.0, 0.5, 1.0, 0.5, 7.25]
    horizon, h = 5.0, 1e-2
    quad = laplace_g_quadrature(desk_state, s_values, horizon=horizon, h=h)
    # the trapezoid of each s over one g grid, as one s at a time computes it
    ts = np.arange(0.0, horizon + h / 2, h)
    gv = g_grid(desk_state, ts)
    assert quad.tolist() == [float(np.trapezoid(np.exp(-s * ts) * gv, dx=h)) for s in s_values]
    assert quad.tolist() == [
        laplace_g_quadrature(desk_state, s, horizon=horizon, h=h) for s in s_values
    ]
    assert isinstance(laplace_g_quadrature(desk_state, 1.0, horizon=horizon, h=h), float)
    for bad in ([1.0, 0.0], [-1.0], (0.5, -2.0, 1.0)):
        with pytest.raises(NonPositiveS):
            laplace_g_quadrature(desk_state, bad, horizon=horizon, h=h)


def test_laplace_bounded_by_exterior_mass_over_s(desk_params, desk_state):
    c_ext = exterior_mass(desk_params)
    for s in (1.0, 10.0):
        assert laplace_G(desk_params, desk_state.cache, s).value <= c_ext / s


def test_laplace_series_vs_quadrature(desk_params, desk_state):
    c_ext = exterior_mass(desk_params)
    T = 50.0
    for s in (0.5, 1.0, 2.0):
        series = laplace_G(desk_params, desk_state.cache, s).value
        quad = laplace_g_quadrature(desk_state, s, horizon=T, h=1e-2)
        assert abs(series - quad) <= 1e-4 + c_ext * math.exp(-s * T) / s


def test_laplace_strictly_decreasing_in_s(desk_params, desk_state):
    ladder = [10.0 ** (-k) for k in range(-1, 4)]  # 10, 1, 0.1, 0.01, 0.001
    vals = [laplace_G(desk_params, desk_state.cache, s).value for s in ladder]
    assert all(a < b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# recurrence diagnostic
# ---------------------------------------------------------------------------


def test_recurrence_verdict_desk(desk_params, desk_state):
    ladder = [10.0 ** (-k) for k in range(1, 7)]
    rep = recurrence_diagnostic(desk_params, desk_state.cache, ladder)
    assert rep.verdict == "recurrent (numerically supported)"
    assert rep.hypothesis_met and rep.strictly_increasing and rep.exceeded_threshold
    assert rep.g_values[-1] > rep.g_values[2] > rep.g_values[0]
    assert rep.f0_proxy > 0.999


def test_recurrence_outside_hypothesis(desk_space):
    params = normalize(desk_space, gamma=0.5, c1=1.0)
    cache = SpectralCache.build(params, window=(-10, 10))
    rep = recurrence_diagnostic(params, cache, [0.1, 0.01, 1e-4])
    assert not rep.hypothesis_met
    assert "outside" in rep.note


def test_recurrence_ladder_validation(desk_params, desk_state):
    with pytest.raises(ValueError):
        recurrence_diagnostic(desk_params, desk_state.cache, [0.1, 0.2])
    with pytest.raises(NonPositiveS):
        recurrence_diagnostic(desk_params, desk_state.cache, [0.1, -0.01])


# ---------------------------------------------------------------------------
# cross-check: Laplace of the solved f approximates G/(1+G)
# ---------------------------------------------------------------------------


def test_solved_density_transform_matches_renewal_algebra(desk_state, desk_params):
    h, T, s = 0.01, 40.0, 1.0
    ts = np.arange(0.0, T + h / 2, h)
    grid = solve_volterra(g_grid(desk_state, ts), h)
    f_hat = float(np.trapezoid(np.exp(-s * ts) * grid.f, dx=h)) if hasattr(
        np, "trapezoid"
    ) else float(np.trapz(np.exp(-s * ts) * grid.f, dx=h))
    g_hat = laplace_G(desk_params, desk_state.cache, s).value
    assert f_hat == pytest.approx(g_hat / (1.0 + g_hat), abs=1e-4)


# ---------------------------------------------------------------------------
# cross-check: P(tau <= T) by numerical inverse Laplace transform
# ---------------------------------------------------------------------------


def laplace_G_complex(params, cache, s):
    """G(s) at complex s: laplace_G's double sphere series and outer weights
    with phi = 1/(s + lambda). Every lambda is >= 0, so |s + lambda| is at
    least the distance d from s to the negative real axis, and the inner
    tail past n_terms spheres is below 1e-17 of its first term."""
    space = params.space
    pn = float(space.p) ** space.n
    w = sphere_masses_above(params, 0)
    i = np.arange(1, w.size + 1)
    d = abs(s) if s.real >= 0 else abs(s.imag)
    n_terms = math.ceil(
        math.log((abs(s) + 2.0) / (1e-17 * d * space.unit_sphere_volume)) / math.log(pn)
    )
    a, corr = sphere_series(cache, i, lambda lam: 1.0 / (s + lam), n_terms)
    return complex(w @ (pn ** -i.astype(float) * (a - corr)))


def test_complex_laplace_matches_real_series(desk_params, desk_state):
    for s in (0.01, 0.3, 5.0):
        value = laplace_G_complex(desk_params, desk_state.cache, complex(s))
        assert value.imag == 0.0
        assert value.real == pytest.approx(
            laplace_G(desk_params, desk_state.cache, s).value, rel=1e-14
        )


@pytest.mark.parametrize("T", [10.0, 400.0])
def test_fpt_cdf_matches_inverse_laplace(desk_params, desk_state, T):
    """F(s)/s = G / (s (1 + G)) is the transform of P(tau <= t); Talbot's
    contour and de Hoog's Bromwich line (Abate & Whitt, INFORMS J. Comput.
    18 (2006) 408) invert it independently of the time-domain solve."""

    def cdf_transform(s):
        s = complex(s)
        G = laplace_G_complex(desk_params, desk_state.cache, s)
        return mpmath.mpc(G / (s * (1.0 + G)))

    talbot = float(mpmath.invertlaplace(cdf_transform, T, method="talbot"))
    dehoog = float(mpmath.invertlaplace(cdf_transform, T, method="dehoog"))
    assert abs(talbot - dehoog) <= 1e-10
    h = 0.01
    ts = np.arange(0.0, T + h / 2, h)
    grid = solve_volterra(g_grid(desk_state, ts), h)
    assert abs(grid.integral_f() - talbot) <= 1e-6
