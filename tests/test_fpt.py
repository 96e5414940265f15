"""First-passage pipeline: flux, closed-form mixture, Laplace series,
recurrence.

The closed-form mixture is held to three independent routes: its
transform to G/(1+G) from laplace_G at every s; its density to the
renewal equation stepped by the trapezoid rule on the real flux
(``oracles.stepper_solve``, itself validated against the closed-form pair
g = a e^{-bt}  <->  f = a e^{-(a+b)t}, since G = a/(s+b) gives F = G/(1+G)
= a/(s+a+b), at its h^2 order); and its P(tau <= T) to a numerical inverse
Laplace transform of F(s)/s, to 1e-10.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest

from oracles import inflow_weights, quadrature_residual, stepper_solve
from ultradiff import fpt
from ultradiff.errors import NonPositiveS
from ultradiff.fpt import (
    first_passage_mixture,
    g_grid,
    laplace_G,
    laplace_g_quadrature,
    recurrence_diagnostic,
)
from ultradiff.heat import HeatState, inflow, spectral_measure, u_table
from ultradiff.landscape import (
    SpectralCache,
    exterior_mass,
    jmass_tail,
    log_sphere_mass,
    normalize,
    sphere_masses_above,
)
from ultradiff.padic import SpaceParams


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
        assert grid[k] == g_grid(desk_state, np.array([t]))[0], t


def test_flux_other_space(state_p3n2):
    g0, g1 = g_grid(state_p3n2, np.array([0.0, 1.0]))
    assert g0 == 0.0
    assert 0.0 < g1 <= exterior_mass(state_p3n2.landscape)


def test_flux_rejects_negative_time(desk_state):
    with pytest.raises(ValueError):
        g_grid(desk_state, np.array([1.0, -0.5]))


def test_flux_and_laplace_vanish_when_the_exterior_mass_underflows():
    """At C1 = 1e3 every sphere mass outside Z_p^n underflows: kappa is 0,
    so is every lambda_j, the measure has no row (J = 0), and g and G are 0
    with no RuntimeWarning (no 0/0, no inf - inf)."""
    state = HeatState(normalize(SpaceParams(p=2, n=1), -0.5, 1e3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v, d, lam, kappa = spectral_measure(state)
        assert (v.size, d.size, lam.size, kappa) == (0, 0, 0, 0.0)
        assert g_grid(state, np.array([0.0, 1.0, 400.0])).tolist() == [0.0, 0.0, 0.0]
        for s in (math.inf, 2.0, 1e-10):
            ev = laplace_G(state, s)
            assert (ev.value, ev.inner_terms_max, ev.tail_bound) == (0.0, 0, 0.0)


#: desk, the point where small-t cancellation is worst, and two more of the
#: verify grid, one with gamma > 0
ORACLE_POINTS = [(2, 1, -0.5, 1.0), (5, 1, -0.5, 5.0), (3, 2, -1.0, 1.0), (2, 2, 0.5, 0.2)]
ORACLE_TIMES = (1e-3, 0.1, 1.0, 10.0, 400.0)
ORACLE_S = (2.0, 0.1, 1e-3, 1e-6, 1e-10)


#: the ORACLE_POINTS at the balls B_0 .. B_3; B_0's ids are the points' own
FLUX_BALL_CASES = [
    pytest.param(*point, r, id="-".join(map(str, point)) + (f"-r{r}" if r else ""))
    for r in range(4)
    for point in ORACLE_POINTS
]


@pytest.mark.parametrize("p, n, gamma, c1, r", FLUX_BALL_CASES)
def test_flux_matches_high_precision_row_series(p, n, gamma, c1, r):
    """inflow into B_r against sum_{m>r} J(p^m) vol(S_m) u(p^m, t), each u
    its own sphere series run until p^{-nj} < 1e-30, summed at 40 digits on
    the same double lambda and sphere masses: within 2 eps kappa_r p^{-nr}.
    At r = 0 that is g."""
    state = HeatState(normalize(SpaceParams(p=p, n=n), gamma, c1))
    w = sphere_masses_above(state.landscape, r)
    terms = math.ceil(30.0 * math.log(10.0) / (n * math.log(p)))
    lo = -r - w.size - terms + 1
    lam = state.cache.window(lo, 0)
    flux = inflow(state, r, np.array(ORACLE_TIMES))
    if r == 0:
        assert np.array_equal(flux, g_grid(state, np.array(ORACLE_TIMES)))
    bound = 2.0 * np.finfo(float).eps * jmass_tail(state.landscape, r) * float(p) ** (-n * r)
    with mpmath.workdps(40):
        pn = mpmath.mpf(p) ** n
        vol = [(1 - 1 / pn) / pn**j for j in range(terms)]
        for col, t in enumerate(ORACLE_TIMES):
            decay = [mpmath.exp(-mpmath.mpf(float(x)) * t) for x in lam]  # at k - lo
            u = [
                (mpmath.fsum(v * decay[-j - m - lo] for j, v in enumerate(vol))
                 - decay[1 - m - lo]) / pn**m
                for m in range(r + 1, r + w.size + 1)
            ]
            ref = mpmath.fsum(mpmath.mpf(float(wm)) * um for wm, um in zip(w, u))
            assert abs(flux[col] - ref) <= bound, (t, float(ref), flux[col])


def test_ball_measure_rejects_a_negative_radius(desk_state):
    with pytest.raises(ValueError):
        spectral_measure(desk_state, -1)
    with pytest.raises(ValueError):
        inflow(desk_state, -1, np.array([1.0]))


def test_ball_measure_past_the_underflow_is_empty(desk_state):
    """Past SpectralCache.top every lambda of B_r is 0.0: the measure has
    no row, and the inflow is 0."""
    r = desk_state.cache.top
    v, d, lam, kappa = spectral_measure(desk_state, r)
    assert (v.size, d.size, lam.size, kappa) == (0, 0, 0, 0.0)
    assert inflow(desk_state, r, np.array([0.0, 1.0])).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("p, n, gamma, c1", ORACLE_POINTS)
def test_laplace_matches_high_precision_double_series(p, n, gamma, c1):
    """G against the double sphere series sum_i J(p^i) vol(S_i) p^{-ni}
    [sum_{j<N} vol(S_{-j}) / (s + lambda_{-j-i}) - 1 / (s + lambda_{1-i})],
    each row cut where at most 1e-15 of its first term vol(S_{-i}) / (s + 2)
    is left (N grows as s falls), summed at 40 digits on the same double
    lambda and sphere masses: within 4 eps sum_k |c_k| / (s + lambda_k), a
    roundoff bound that does not cancel as sum_k c_k ~ 0 does at large s."""
    state = HeatState(normalize(SpaceParams(p=p, n=n), gamma, c1))
    w = sphere_masses_above(state.landscape, 0)
    log_pn = n * math.log(p)
    for s in ORACLE_S:
        ev = laplace_G(state, s)
        terms = math.ceil(
            (math.log1p(2.0 / s) - math.log(1e-15 * state.space.unit_sphere_volume)) / log_pn
        )
        c, lam = inflow_weights(state, terms)
        lo = -w.size - terms + 1  # lam[k - lo] is lambda_k
        bound = 4.0 * np.finfo(float).eps * float(np.sum(np.abs(c) / (s + lam)))
        with mpmath.workdps(40):
            pn = mpmath.mpf(p) ** n
            inv = [1 / (mpmath.mpf(s) + mpmath.mpf(float(x))) for x in lam]
            vol = [(1 - 1 / pn) / pn**j for j in range(terms)]
            ref = mpmath.fsum(
                mpmath.mpf(float(wi)) / pn**i
                * (mpmath.fsum(v * inv[-j - i - lo] for j, v in enumerate(vol)) - inv[1 - i - lo])
                for i, wi in enumerate(w, start=1)
            )
        assert abs(ev.value - ref) <= bound, (s, float(ref), ev.value)


@pytest.mark.parametrize("p, n, gamma, c1", ORACLE_POINTS)
def test_laplace_tail_bound_covers_the_omitted_terms(p, n, gamma, c1):
    """laplace_G lumps every lambda_j with j >= J into an atom at 0.0. With
    the sphere masses past S_J taken at 50 digits from the landscape's
    closed form (in double they underflow), those lambda_j are positive,
    and the atom overstates G by sum_{j>=J} v_j (kappa^2 / s - (kappa -
    lambda_j)^2 / (s + lambda_j)) / (s + kappa), which is more than 0 and
    at most tail_bound."""
    state = HeatState(normalize(SpaceParams(p=p, n=n), gamma, c1))
    params = state.landscape
    eps = np.finfo(float).eps
    with mpmath.workdps(50):
        pn = mpmath.mpf(p) ** n
        kappa = mpmath.mpf(exterior_mass(params))
        for s in ORACLE_S:
            ev = laplace_G(state, s)
            big_j = ev.inner_terms_max
            mass = [
                params.norm_const * mpmath.mpf(p) ** (m * gamma) * mpmath.exp(-c1 * mpmath.mpf(p) ** m)
                * (1 - 1 / pn) * pn**m
                for m in range(big_j + 1, big_j + 41)
            ]
            assert float(mass[0]) == 0.0
            lam = [mpmath.fsum(mass[i:]) + mass[i] / (pn - 1) for i in range(20)]  # lambda_{J+i}
            omitted = mpmath.fsum(
                (1 - 1 / pn) / pn ** (big_j + i) * x * (kappa**2 + 2 * s * kappa - s * x)
                / (s * (s + x) * (s + kappa))
                for i, x in enumerate(lam)
            )
            assert 0.0 < omitted <= ev.tail_bound * (1.0 + 8.0 * eps), (s, omitted, ev.tail_bound)


#: the ORACLE_POINTS and three points with few spheres before the masses
#: underflow, where the former flux weights cancelled worst
RELATIVE_POINTS = ORACLE_POINTS + [(13, 2, -1.0, 1.0), (7, 3, 2.0, 3.0), (5, 1, 2.0, 5.0)]


@pytest.mark.parametrize("p, n, gamma, c1", RELATIVE_POINTS)
def test_flux_and_laplace_relative_error_against_50_digit_measure(p, n, gamma, c1):
    """g and G within 8 eps relative of the spectral-measure sums at 50
    digits, with lambda_j = sum_{m>j} mass(S_m) + mass(S_{j+1}) / (p^n - 1),
    kappa = sum_m mass(S_m) and d_j = kappa - lambda_j formed from the same
    double sphere masses m = 1 .. top (SpectralCache.top: every later mass
    underflows): g = sum_j v_j d_j expm1(-lambda_j t), and G = sum_j v_j d_j
    / (s + lambda_j) plus the mass p^{-n top} at lambda = 0, summed as
    written (at 50 digits its cancellation at large s costs nothing)."""
    state = HeatState(normalize(SpaceParams(p=p, n=n), gamma, c1))
    mass = np.exp(log_sphere_mass(state.landscape, np.arange(1, state.cache.top + 1)))
    times, s_values = (1e-3, 0.01, 1.0, 10.0, 100.0, 400.0), (1e3, 100.0, 2.0, 1e-3, 1e-6, 1e-10)
    g = g_grid(state, np.array(times))
    bound = 8.0 * np.finfo(float).eps
    with mpmath.workdps(50):
        pn = mpmath.mpf(p) ** n
        m = [mpmath.mpf(float(x)) for x in mass]
        kappa = mpmath.fsum(m)
        lam = [mpmath.fsum(m[j:]) + m[j] / (pn - 1) for j in range(len(m))]
        vd = [(1 - 1 / pn) / pn**j * (kappa - x) for j, x in enumerate(lam)]
        for t, value in zip(times, g):
            ref = mpmath.fsum(c * mpmath.expm1(-x * t) for c, x in zip(vd, lam))
            assert abs(value - ref) <= bound * ref, (t, float(ref), value)
        for s in s_values:
            value = laplace_G(state, s).value
            ref = mpmath.fsum(c / (s + x) for c, x in zip(vd, lam)) + kappa / pn ** len(m) / s
            assert abs(value - ref) <= bound * ref, (s, float(ref), value)


# ---------------------------------------------------------------------------
# the renewal equation, stepped in time (tests/oracles.py)
# ---------------------------------------------------------------------------


def test_synthetic_renewal_pair_closed_form():
    a, b, h = 0.5, 1.0, 0.01
    ts, g = synthetic_grid(a, b, h, 10.0)
    exact = a * np.exp(-(a + b) * ts)
    err = float(np.max(np.abs(stepper_solve(g, h) - exact)))
    assert err <= 5.0 * h * h  # second-order scheme, mild constant


def roundoff_bound(g):
    """What the residual of an exact solve of the trapezoid equations can
    read: roundoff, far below any discretisation error."""
    return 1e-12 * max(1.0, float(np.max(np.abs(g))))


@pytest.mark.parametrize("h", [0.04, 0.02, 0.01])
def test_synthetic_residual_bound(h):
    ts, g = synthetic_grid(0.5, 1.0, h, 10.0)
    assert float(np.max(np.abs(quadrature_residual(g, stepper_solve(g, h), h)))) <= roundoff_bound(g)


def test_h_refinement_order():
    a, b = 0.5, 1.0
    errs = []
    for h in (0.04, 0.02, 0.01):
        ts, g = synthetic_grid(a, b, h, 10.0)
        errs.append(float(np.max(np.abs(stepper_solve(g, h) - a * np.exp(-(a + b) * ts)))))
    orders = [math.log2(e1 / e2) for e1, e2 in zip(errs, errs[1:])]
    assert all(o >= 1.8 for o in orders), orders


def test_solver_on_real_flux(desk_state):
    h = 0.01
    ts = np.arange(0.0, 10.0 + h / 2, h)
    g = g_grid(desk_state, ts)
    f = stepper_solve(g, h)
    assert float(np.max(np.abs(quadrature_residual(g, f, h)))) <= roundoff_bound(g)
    assert float(f.min()) >= -1e-8
    assert 0.0 <= float(np.trapezoid(f, dx=h)) <= 1.0


#: the ORACLE_POINTS but (5, 1, -0.5, 5), where f is of order 1e-36 and
#: the stepper meets the mixture at roundoff on every grid
RENEWAL_POINTS = [(2, 1, -0.5, 1.0), (3, 2, -1.0, 1.0), (2, 2, 0.5, 0.2)]


@pytest.mark.parametrize("p, n, gamma, c1", RENEWAL_POINTS)
def test_stepper_converges_to_the_mixture(p, n, gamma, c1):
    """The renewal equation's trapezoid solve on the real flux approaches
    the closed-form mixture at second order: the time-domain route to f,
    independent of the zeros of S-hat."""
    state = HeatState(normalize(SpaceParams(p=p, n=n), gamma, c1))
    mixture = first_passage_mixture(state, 10.0)
    errs = []
    for h in (0.04, 0.02, 0.01):
        ts = np.arange(0.0, 10.0 + h / 2, h)
        errs.append(float(np.max(np.abs(stepper_solve(g_grid(state, ts), h) - mixture.density(ts)))))
    orders = [math.log2(e1 / e2) for e1, e2 in zip(errs, errs[1:])]
    assert all(o >= 1.8 for o in orders), (orders, errs)


def test_return_probability_synthetic_limit():
    a, b, h, T = 0.5, 1.0, 0.01, 10.0
    ts, g = synthetic_grid(a, b, h, T)
    target = a / (a + b)
    assert abs(float(np.trapezoid(stepper_solve(g, h), dx=h)) - target) <= h * h + math.exp(-(a + b) * T)


def test_return_probability_grows_with_horizon(desk_state):
    vals = [first_passage_mixture(desk_state, T).cdf() for T in (10.0, 50.0, 200.0)]
    assert vals[0] < vals[1] < vals[2] <= 1.0


# ---------------------------------------------------------------------------
# Laplace series
# ---------------------------------------------------------------------------


def test_laplace_positive_s_required(desk_state):
    with pytest.raises(NonPositiveS):
        laplace_G(desk_state, 0.0)
    with pytest.raises(NonPositiveS):
        laplace_g_quadrature(desk_state, -1.0)


def test_laplace_G_rejects_nan_s(desk_state):
    with pytest.raises(NonPositiveS):
        laplace_G(desk_state, math.nan)


def test_laplace_quadrature_rejects_nan_s(desk_state):
    for bad in (math.nan, [1.0, math.nan]):
        with pytest.raises(NonPositiveS):
            laplace_g_quadrature(desk_state, bad, horizon=5.0)


def test_recurrence_diagnostic_rejects_nan_in_the_ladder(desk_state):
    with pytest.raises(NonPositiveS):
        recurrence_diagnostic(desk_state, [0.1, math.nan, 0.001])


def test_laplace_G_at_infinite_s(desk_state):
    # the limit G(s) -> 0, with a finite term count and a zero tail bound
    ev = laplace_G(desk_state, math.inf)
    assert ev.value == 0.0 and ev.tail_bound == 0.0
    far = laplace_G(desk_state, 1e300)
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


def test_recurrence_diagnostic_with_infinite_s(desk_state):
    ladder = [math.inf, 0.1, 0.001]
    rep = recurrence_diagnostic(desk_state, ladder)
    assert rep.g_values == tuple(
        laplace_G(desk_state, s).value for s in ladder
    )
    assert rep.g_values[0] == 0.0 and rep.strictly_increasing


@pytest.mark.parametrize("p, n, gamma, c1", ORACLE_POINTS)
def test_laplace_G_over_an_s_ladder_reads_the_measure_once(monkeypatch, p, n, gamma, c1):
    # a sequence of s is one read of the spectral measure and one (S, J)
    # table; each row is, bit for bit, the sum one s at a time formed
    state = HeatState(normalize(SpaceParams(p=p, n=n), gamma, c1))
    ladder = [math.inf, 37.0, 2.0, 0.5, 1e-1, 1e-3, 1e-6, 1e-9]
    v, d, lam, kappa = spectral_measure(state)
    pn = float(p) ** n
    atom, past = pn**-lam.size, float(lam[-1:].sum()) * pn / (pn - 1.0)
    reads = []
    monkeypatch.setattr(fpt, "spectral_measure", lambda st: reads.append(1) or spectral_measure(st))
    ev = laplace_G(state, ladder)
    assert len(reads) == 1 and ev.inner_terms_max == lam.size
    assert ev.s.tolist() == ladder
    for k, s in enumerate(ladder):
        value = (float(np.sum(v * d * d / (s + lam))) + atom * kappa * kappa / s) / (s + kappa)
        assert ev.value[k] == value
        assert ev.tail_bound[k] == 2.0 * atom * kappa * past / s / s
        one = laplace_G(state, s)
        assert (one.s, one.value, one.tail_bound) == (s, ev.value[k], ev.tail_bound[k])
    assert isinstance(one.value, float) and laplace_G(state, []).value.shape == (0,)
    for bad in ([1.0, 0.0], [0.5, math.nan], (-1.0,)):
        with pytest.raises(NonPositiveS):
            laplace_G(state, bad)


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
        assert laplace_G(desk_state, s).value <= c_ext / s


def test_laplace_series_vs_quadrature(desk_params, desk_state):
    """Within the trapezoid's Peano-kernel bound (h^2/8) sum_j |v_j d_j| (2s
    + lambda_j), its roundoff m eps h kappa and the tail kappa e^{-sT} / s."""
    c_ext = exterior_mass(desk_params)
    v, d, lam, _ = spectral_measure(desk_state)
    T, h = 50.0, 1e-2
    for s in (0.5, 1.0, 2.0):
        series = laplace_G(desk_state, s).value
        quad = laplace_g_quadrature(desk_state, s, horizon=T, h=h)
        trapezoid = h * h / 8.0 * float(np.sum(np.abs(v * d) * (2.0 * s + lam)))
        roundoff = (T / h + 1.0) * np.finfo(float).eps * h * c_ext
        assert abs(series - quad) <= trapezoid + roundoff + c_ext * math.exp(-s * T) / s


def test_laplace_strictly_decreasing_in_s(desk_state):
    ladder = [10.0 ** (-k) for k in range(-1, 4)]  # 10, 1, 0.1, 0.01, 0.001
    vals = [laplace_G(desk_state, s).value for s in ladder]
    assert all(a < b for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# recurrence diagnostic
# ---------------------------------------------------------------------------


def test_recurrence_verdict_desk(desk_state):
    ladder = [10.0 ** (-k) for k in range(1, 7)]
    rep = recurrence_diagnostic(desk_state, ladder)
    assert rep.verdict == "recurrent (numerically supported)"
    assert rep.hypothesis_met and rep.strictly_increasing and rep.exceeded_threshold
    assert rep.g_values[-1] > rep.g_values[2] > rep.g_values[0]
    assert rep.f0_proxy > 0.999


def test_recurrence_outside_hypothesis(desk_space):
    params = normalize(desk_space, gamma=0.5, c1=1.0)
    cache = SpectralCache.build(params, window=(-10, 10))
    rep = recurrence_diagnostic(HeatState(params, cache), [0.1, 0.01, 1e-4])
    assert not rep.hypothesis_met
    assert "outside" in rep.note


def test_recurrence_ladder_validation(desk_state):
    with pytest.raises(ValueError):
        recurrence_diagnostic(desk_state, [0.1, 0.2])
    with pytest.raises(NonPositiveS):
        recurrence_diagnostic(desk_state, [0.1, -0.01])


# ---------------------------------------------------------------------------
# cross-check: the transform of f is G/(1+G)
# ---------------------------------------------------------------------------


def test_solved_density_transform_matches_renewal_algebra(desk_state):
    h, T, s = 0.01, 40.0, 1.0
    ts = np.arange(0.0, T + h / 2, h)
    f = stepper_solve(g_grid(desk_state, ts), h)
    f_hat = float(np.trapezoid(np.exp(-s * ts) * f, dx=h))
    g_hat = laplace_G(desk_state, s).value
    assert f_hat == pytest.approx(g_hat / (1.0 + g_hat), abs=1e-4)


@pytest.mark.parametrize("p, n, gamma, c1", ORACLE_POINTS)
@pytest.mark.parametrize("T", [10.0, 400.0])
def test_mixture_transform_matches_renewal_identity(p, n, gamma, c1, T):
    """FirstPassageMixture.transform against G/(1+G) from laplace_G, within
    8 (K + 2) eps sum_k |term_k| + roundoff_bound / s (f's error, uniform
    in t, integrated against e^{-st}) + (J + 10) eps G/(1+G), the bound
    verify's fpt_mixture_vs_laplace derives; the entries the mixture lumps
    move G by far less at these s."""
    state = HeatState(normalize(SpaceParams(p=p, n=n), gamma, c1))
    mixture = first_passage_mixture(state, T)
    s_values = np.array((1e3, 10.0, 1.0) + ORACLE_S)
    value, size = mixture.transform(s_values)
    ev = laplace_G(state, s_values)
    identity = ev.value / (1.0 + ev.value)
    eps = np.finfo(float).eps
    bound = (eps * (8.0 * (mixture.mu.size + 2) * size + (ev.inner_terms_max + 10) * identity)
             + mixture.roundoff_bound / s_values)
    assert np.all(np.abs(value - identity) <= bound), (value, identity, bound)
    assert value.shape == size.shape == s_values.shape
    assert np.shape(mixture.transform(2.0)[0]) == ()


# ---------------------------------------------------------------------------
# cross-check: P(tau <= T) by numerical inverse Laplace transform
# ---------------------------------------------------------------------------


def laplace_G_complex(state, s):
    """G(s) at complex s over the spectral measure, in laplace_G's form:
    (sum_j v_j d_j^2 / (s + lambda_j) + p^{-nJ} kappa^2 / s) / (s + kappa).
    The measure is finite, so no s needs a longer series."""
    v, d, lam, kappa = spectral_measure(state)
    atom = (float(state.space.p) ** state.space.n) ** -lam.size
    return complex((np.sum(v * d * d / (s + lam)) + atom * kappa * kappa / s) / (s + kappa))


def test_complex_laplace_matches_real_series(desk_state):
    for s in (0.01, 0.3, 5.0):
        value = laplace_G_complex(desk_state, complex(s))
        assert value.imag == 0.0
        assert value.real == pytest.approx(
            laplace_G(desk_state, s).value, rel=1e-14
        )


#: (point, T) for the inverse-Laplace oracle: desk keeps the ids of its T
#: alone; then two poles at (13, 2, -1, 1), nine at (2, 2, 0.5, 0.2), two
#: of them 2e10 apart, gamma > 0 at (7, 3, 2, 3), and gamma near -n
CDF_CASES = [pytest.param((2, 1, -0.5, 1.0), T, id=str(T)) for T in (10.0, 400.0, 1000.0)] + [
    pytest.param(point, T, id="-".join(map(str, point)) + f"-{T}")
    for point in [(13, 2, -1.0, 1.0), (2, 2, 0.5, 0.2), (7, 3, 2.0, 3.0), (2, 1, -0.96, 1.0)]
    for T in (10.0, 400.0, 1000.0)
]


@pytest.mark.parametrize("point, T", CDF_CASES)
def test_fpt_cdf_matches_inverse_laplace(point, T):
    """F(s)/s = G / (s (1 + G)) is the transform of P(tau <= t); Talbot's
    contour and de Hoog's Bromwich line (Abate & Whitt, INFORMS J. Comput.
    18 (2006) 408) invert it at 30 digits from G over the spectral measure,
    independently of the mixture's poles and of the time-domain solve. The
    mixture's P(tau <= T) matches both to 1e-10."""
    state = HeatState(normalize(SpaceParams(p=point[0], n=point[1]), point[2], point[3]))
    v, d, lam, kappa = spectral_measure(state)
    atom = (float(state.space.p) ** state.space.n) ** -lam.size
    with mpmath.workdps(30):
        terms = [(mpmath.mpf(float(x * y * y)), mpmath.mpf(float(z))) for x, y, z in zip(v, d, lam)]
        terms.append((mpmath.mpf(atom * kappa * kappa), mpmath.mpf(0)))

        def cdf_transform(s):
            G = mpmath.fsum(c / (s + x) for c, x in terms) / (s + kappa)
            return G / (s * (1 + G))

        talbot = float(mpmath.invertlaplace(cdf_transform, T, method="talbot"))
        dehoog = float(mpmath.invertlaplace(cdf_transform, T, method="dehoog"))
    assert abs(talbot - dehoog) <= 1e-10
    mixture = first_passage_mixture(state, T)
    assert abs(mixture.cdf() - talbot) <= 1e-10
    assert abs(mixture.cdf() - dehoog) <= 1e-10


@pytest.mark.parametrize("p, n, gamma, c1", ORACLE_POINTS)
@pytest.mark.parametrize("T", [10.0, 400.0])
def test_mixture_structure(p, n, gamma, c1, T):
    """Each zero of S-hat lies strictly between its two poles; f is exactly
    0 at t = 0 and positive after it; and the residues r_k of F sum to
    f(0) = 0 within the roundoff bound (rho folds r_0 + r_pair into rho_0
    and keeps r_pair delta at the pair, so that sum is the one over the
    other rho)."""
    state = HeatState(normalize(SpaceParams(p=p, n=n), gamma, c1))
    mixture = first_passage_mixture(state, T)
    zeros = mixture.mu[1:]
    assert zeros.size == mixture.poles.size - 1 >= 1
    assert np.all((mixture.poles[:-1] < zeros) & (zeros < mixture.poles[1:]))
    assert mixture.poles[0] < mixture.mu[0] < mixture.poles[-1]
    f = mixture.density(np.arange(0.0, T + 0.005, 0.01))
    assert f[0] == 0.0
    assert np.all(f[1:] > 0.0)
    others = np.delete(mixture.rho, mixture.pair)
    assert abs(float(np.sum(others))) <= mixture.roundoff_bound


def test_mixture_is_empty_where_nothing_returns():
    """At T = 0 every entry lumps, S-hat = 1/s has no zero, and f, P and
    the transform of f are 0; at C1 = 1e3 the exterior mass underflows
    (kappa = 0) at any T, with no RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c1, T in ((1.0, 0.0), (1e3, 0.0), (1e3, 400.0)):
            state = HeatState(normalize(SpaceParams(p=2, n=1), -0.5, c1))
            mixture = first_passage_mixture(state, T)
            assert (mixture.mu.size, mixture.pair) == (0, 0)
            assert mixture.density(np.array([0.0, T])).tolist() == [0.0, 0.0]
            assert mixture.cdf() == 0.0
            value, size = mixture.transform([1.0, 1e-6])
            assert value.tolist() == size.tolist() == [0.0, 0.0]


@pytest.mark.parametrize("x", [0.0, -1e-12, -0.3, -0.5, -2.0, -36.0, -1e4])
@pytest.mark.parametrize("y_over_x", [1.0, 1.0 + 1e-9, 0.999, 0.5, 1e-6, 3.0])
def test_exp_divided_difference_matches_50_digits(x, y_over_x):
    """exp[0, x, y], the pair's share of P, within 4 eps of 50 digits across
    the series (|x|, |y| < 0.5), the direct form and y -> x."""
    y = x * y_over_x

    def phi(u):
        return mpmath.expm1(u) / u if u else mpmath.mpf(1)

    with mpmath.workdps(50):
        a, b = mpmath.mpf(x), mpmath.mpf(y)
        ref = mpmath.diff(phi, a) if a == b else (phi(b) - phi(a)) / (b - a)
    assert abs(fpt._exp_dd2(x, y) - ref) <= 4 * np.finfo(float).eps * ref
