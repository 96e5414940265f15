"""Jump-kernel normalization and spectral series, against independent oracles.

The two cross-checks that matter most: the spectral cache's sphere-sum
series must agree with direct character-sum quadrature (the definition of
the radial transform), and it must reproduce the closed-form transform of
the unit-ball indicator exactly. The log-space divergence terms are held
to a 50-digit sum over the same double sphere masses.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import nonintegrable_demo
from ultradiff.errors import GammaOutOfRange, NonPositiveRate
from ultradiff.landscape import (
    DEFAULT_SPECTRAL_WINDOW,
    SpectralCache,
    UnitBallKernel,
    ball_jmass_bound,
    divergence_diagnostic,
    exterior_mass,
    jmass_ball,
    log_sphere_mass,
    normalize,
    spectral_bound_check,
    spectral_bound_constants,
    spectral_by_quadrature,
    spectral_gap_at_one,
    unnormalized_mass,
)
from ultradiff.padic import SpaceParams, log_sphere_volume, sphere_volume


def mass_terms(space, gamma, c1, j_lo=-300, j_hi=60):
    return [
        float(space.p) ** (j * gamma)
        * math.exp(-c1 * float(space.p) ** j)
        * sphere_volume(space, j)
        for j in range(j_lo, j_hi)
    ]


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalization_integrates_to_one(desk_params):
    space = desk_params.space
    total = sum(
        desk_params.value_at(j) * sphere_volume(space, j) for j in range(-200, 60)
    )
    assert total == pytest.approx(1.0, abs=1e-10)


def test_mass_series_two_summation_orders(desk_space):
    terms = mass_terms(desk_space, -0.5, 1.0)
    ascending = sum(terms)
    descending = sum(reversed(terms))
    assert ascending == pytest.approx(descending, rel=1e-12)
    assert unnormalized_mass(desk_space, -0.5, 1.0) == pytest.approx(
        ascending, rel=1e-12
    )


def test_gamma_at_minus_n_rejected():
    with pytest.raises(GammaOutOfRange):
        normalize(SpaceParams(2, 1), gamma=-1.0, c1=1.0)
    with pytest.raises(GammaOutOfRange):
        normalize(SpaceParams(3, 2), gamma=-2.5, c1=1.0)


def test_nonpositive_rate_rejected():
    with pytest.raises(NonPositiveRate):
        normalize(SpaceParams(2, 1), gamma=-0.5, c1=0.0)


def test_mass_decreases_in_c1(desk_space):
    assert unnormalized_mass(desk_space, -0.5, 2.0) < unnormalized_mass(
        desk_space, -0.5, 1.0
    )


# ---------------------------------------------------------------------------
# kernel values
# ---------------------------------------------------------------------------


def test_j_value_at_unit_norm(desk_params):
    # |x| = 1: J(1) = c e^{-1}
    assert desk_params.value_at(0) == pytest.approx(
        desk_params.norm_const * math.exp(-1.0), rel=1e-14
    )


def test_j_value_decays_beyond_mode(desk_params):
    vals = [desk_params.value_at(j) for j in range(1, 12)]
    assert all(a > b or a == b == 0.0 for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-100


def test_j_value_nonnegative(desk_params):
    rng = np.random.default_rng(5)
    for j in rng.integers(-40, 41, size=1000):
        assert desk_params.value_at(int(j)) >= 0.0


# ---------------------------------------------------------------------------
# spectral series vs oracles
# ---------------------------------------------------------------------------


def test_indicator_transform_is_exact():
    for p, n in ((2, 1), (3, 1), (2, 2), (5, 1)):
        ub = SpectralCache(UnitBallKernel(SpaceParams(p, n)), -6, 6)
        for k in range(-6, 0 + 1):
            assert ub.jhat(k) == pytest.approx(1.0, abs=1e-12)
        for k in range(1, 7):
            assert ub.jhat(k) == pytest.approx(0.0, abs=1e-12)


def test_indicator_via_quadrature():
    ub = UnitBallKernel(SpaceParams(2, 1))
    for k in range(-3, 4):
        assert spectral_by_quadrature(ub, k) == pytest.approx(
            1.0 if k <= 0 else 0.0, abs=1e-12
        )


def test_series_matches_quadrature(desk_params):
    cache = SpectralCache.build(desk_params)
    for k in range(-3, 4):
        quad = spectral_by_quadrature(desk_params, k)
        assert cache.jhat(k) == pytest.approx(quad, abs=1e-10), k


def test_series_matches_quadrature_other_spaces():
    for p, n in ((3, 1), (2, 2)):
        params = normalize(SpaceParams(p, n), gamma=-0.5, c1=1.0)
        cache = SpectralCache(params, -2, 2)
        for k in range(-2, 3):
            assert cache.jhat(k) == pytest.approx(
                spectral_by_quadrature(params, k), abs=1e-10
            )


#: admissible points near gamma = -n, where J(p^m) overflows in the lower
#: tail of the quadrature while J(p^m) vol(S_m) is still in range; at
#: gamma/n = -0.9989 the tail needs about 15 600 spheres to settle
NEAR_GAMMA_MINUS_N = [
    (2, 1, -0.97, 1.0),
    (3, 1, -0.97, 1.0),
    (2, 2, -1.94, 1.0),
    (5, 1, -0.98, 0.3),
    (3, 2, -1.95, 5.0),
    (7, 1, -0.975, 20.0),
    (2, 1, -0.99, 1.0),
    (2, 1, -0.995, 1.0),
    (5, 1, -0.9989, 0.49),
]


@pytest.mark.parametrize("p, n, gamma, c1", NEAR_GAMMA_MINUS_N)
def test_quadrature_finite_near_gamma_minus_n(p, n, gamma, c1):
    # verify's spectral_vs_quadrature check, at its threshold
    params = normalize(SpaceParams(p, n), gamma, c1)
    cache = SpectralCache.build(params)
    for k in range(-3, 4):
        quad = spectral_by_quadrature(params, k)
        assert abs((1.0 - cache.one_minus(k)) - quad) <= 1e-10, k


def test_spectral_range_over_window(desk_params):
    cache = SpectralCache.build(desk_params)
    for k in range(DEFAULT_SPECTRAL_WINDOW[0], DEFAULT_SPECTRAL_WINDOW[1] + 1):
        om = cache.one_minus(k)
        assert 0.0 <= om <= 2.0
        assert -1.0 <= cache.jhat(k) <= 1.0
    assert cache.left_tail_reaches_one
    assert cache.right_tail_decayed


def test_spectral_tends_to_one_at_small_frequencies(desk_params):
    cache = SpectralCache(desk_params, -40, -3)
    assert cache.jhat(-40) > 1.0 - 1e-6
    oms = cache.window(-12, -3)
    assert all(a <= b for a, b in zip(oms, oms[1:]))  # 1 - Jhat shrinking leftwards


def test_spectral_far_right_does_not_overflow(desk_params):
    # the series reaches ~k spheres below the unit ball; p^{nk} itself is
    # beyond double range for p = 2 at these k
    cache = SpectralCache(desk_params, 1100, 2000)
    for k in (1100, 2000):
        assert cache.one_minus(k) == pytest.approx(1.0, abs=1e-12)


def test_cache_independent_of_growth_order(desk_params):
    grown = SpectralCache.build(desk_params, window=(-5, 5))
    grown.window(0, 30)
    grown.window(-30, 0)
    direct = SpectralCache.build(desk_params, window=(-30, 30))
    assert isinstance(grown.values, np.ndarray)
    assert (grown.k_min, grown.k_max) == (-30, 30)
    assert np.array_equal(grown.values, direct.values)


def test_cache_window_rejects_reversed_bounds(desk_params):
    """lo = hi + 1 is the empty window; a window reversed past it is an
    error, and neither reads nor grows the cache."""
    cache = SpectralCache.build(desk_params)
    k_min, k_max = cache.k_min, cache.k_max
    assert cache.window(5, 4).size == 0
    for lo, hi in ((5, -50), (-60, -70), (2, 0)):
        with pytest.raises(ValueError):
            cache.window(lo, hi)
    assert (cache.k_min, cache.k_max) == (k_min, k_max)


# ---------------------------------------------------------------------------
# the gap at |xi| = 1
# ---------------------------------------------------------------------------


def test_gap_positive_and_consistent(desk_params):
    gap = spectral_gap_at_one(desk_params)
    assert gap > 0.0
    assert gap == pytest.approx(SpectralCache(desk_params, 0, 0).one_minus(0), abs=1e-10)


def test_gap_consistency_other_spaces():
    for p, n, gamma, c1 in ((3, 1, -0.5, 1.0), (2, 2, -1.5, 0.5), (2, 1, 1.0, 2.0)):
        params = normalize(SpaceParams(p, n), gamma, c1)
        assert spectral_gap_at_one(params) == pytest.approx(
            SpectralCache(params, 0, 0).one_minus(0), abs=1e-10
        )


def test_exterior_mass_shrinks_as_rate_grows(desk_space):
    masses = [
        exterior_mass(normalize(desk_space, -0.5, c1)) for c1 in (1.0, 4.0, 16.0)
    ]
    assert masses[0] > masses[1] > masses[2]
    # and the gap approaches the lone J(p) term as the integral term dies
    params16 = normalize(desk_space, -0.5, 16.0)
    gap = spectral_gap_at_one(params16)
    assert gap - params16.value_at(1) == pytest.approx(masses[2], rel=1e-12)


def test_jmass_ball_complements_exterior(desk_params):
    assert jmass_ball(desk_params, 0) == pytest.approx(
        1.0 - exterior_mass(desk_params), rel=1e-12
    )


@pytest.mark.parametrize(
    "p, n, gamma, c1",
    [(2, 1, -0.95, 0.2), (3, 2, -1.0, 5.0), (2, 2, 0.5, 0.2), (5, 1, 0.5, 5.0)],
)
def test_ball_jmass_bound_covers_every_ball(p, n, gamma, c1):
    # balls of radius p^q: B_q itself, and p^{qn} J(p^m) for one off 0 in S_m
    params = normalize(SpaceParams(p=p, n=n), gamma, c1)
    qs = np.arange(-60, 6)
    for q, bound in zip(qs, ball_jmass_bound(params, qs)):
        ball = math.fsum(np.exp(log_sphere_mass(params, np.arange(q - 5000, q + 1))))
        off = max(params.value_at(m) for m in range(q + 1, 40)) * float(p) ** (q * n)
        assert max(ball, off) * (1.0 - 1e-12) <= bound <= 1.0, q
        if q <= -20:
            assert bound <= 100.0 * max(ball, off), q


# ---------------------------------------------------------------------------
# explicit decay bound
# ---------------------------------------------------------------------------


def test_bound_margins_nonnegative(desk_params):
    report = spectral_bound_check(desk_params, range(-20, 1))
    assert report.all_nonnegative
    assert report.b1 > 0 and report.b2 > 0


def test_bound_requires_negative_gamma(desk_space):
    params = normalize(desk_space, gamma=0.5, c1=1.0)
    with pytest.raises(GammaOutOfRange):
        spectral_bound_check(params, range(-5, 1))
    with pytest.raises(GammaOutOfRange):
        spectral_bound_constants(params)


# ---------------------------------------------------------------------------
# divergence diagnostics
# ---------------------------------------------------------------------------


def test_divergence_verdict(desk_params):
    report = divergence_diagnostic(desk_params, m_terms=20)
    assert report.verdict == "diverges"
    sums = report.partial_log_sums
    assert all(a <= b for a, b in zip(sums, sums[1:]))
    assert sums[20] >= sums[10] + 10.0


def test_divergence_terms_dominate_proof_lower_bound(desk_params):
    # each term vol(S_{-j})/(1 - Jhat(p^{-j})) dominates the closed-form
    # lower-bound term  (1-p^{-n}) p^{-j(n+gamma)} e^{c1 p^{j+1}} / (B1 p^{jn} + B2)
    b1, b2 = spectral_bound_constants(desk_params)
    space = desk_params.space
    report = divergence_diagnostic(desk_params, m_terms=20)
    for j, term_log in enumerate(report.term_logs):
        lower_log = (
            math.log(space.unit_sphere_volume)
            - j * (space.n + desk_params.gamma) * space.log_p
            + desk_params.c1 * float(space.p) ** (j + 1)
            - math.log(b1 * float(space.p) ** (j * space.n) + b2)
        )
        assert term_log >= lower_log - 1e-9


def test_divergence_requires_gamma_window(desk_space):
    with pytest.raises(GammaOutOfRange):
        divergence_diagnostic(normalize(desk_space, 0.5, 1.0), 10)


def test_log_one_minus_matches_float_range(desk_params):
    # where 1 - Jhat(p^{-j}) is a normal double, the log-space divergence
    # terms read the cache's linear series
    report = divergence_diagnostic(desk_params, m_terms=5)
    cache = SpectralCache(desk_params, -5, 0)
    for j in (0, 2, 5):
        log_one_minus = log_sphere_volume(desk_params.space, -j) - report.term_logs[j]
        assert log_one_minus == pytest.approx(math.log(cache.one_minus(-j)), abs=1e-10)


#: (p, n, gamma, C1) for the divergence oracle: desk, large p^n, gamma/n
#: near -1, and a C1 so small that the sphere masses peak beyond m = 21,
#: past every head of the 20-term series
DIVERGENCE_ORACLE_POINTS = [
    (2, 1, -0.5, 1.0),
    (3, 2, -1.0, 1.0),
    (13, 2, -1.0, 1.0),
    (2, 2, -1.9, 0.2),
    (5, 1, -0.9989, 0.49),
    (2, 1, -0.5, 1e-8),
]


@pytest.mark.parametrize("p, n, gamma, c1", DIVERGENCE_ORACLE_POINTS)
def test_divergence_terms_match_high_precision_series(p, n, gamma, c1):
    # log vol(S_{-j}) - log(1 - Jhat(p^{-j})) in 50 digits, from the same
    # double log-masses over 200 spheres past the last head (whatever the
    # diagnostic's own 80-e-fold extent), within 4 eps max(1, |ref|)
    params = normalize(SpaceParams(p, n), gamma, c1)
    m_terms = 20
    report = divergence_diagnostic(params, m_terms)
    logs = log_sphere_mass(params, np.arange(1, m_terms + 201)).tolist()
    eps = np.finfo(float).eps
    with mpmath.workdps(50):
        pn = mpmath.mpf(p) ** n
        masses = [mpmath.exp(mpmath.mpf(x)) for x in logs]
        for j, got in enumerate(report.term_logs):
            one_minus = masses[j] / (pn - 1) + mpmath.fsum(masses[j:])
            ref = -j * n * mpmath.log(p) + mpmath.log(1 - 1 / pn) - mpmath.log(one_minus)
            err = abs(mpmath.mpf(got) - ref)
            assert err <= 4 * eps * max(1, abs(ref)), (j, float(err / eps))


# ---------------------------------------------------------------------------
# the 1D non-integrability demonstration
# ---------------------------------------------------------------------------


def test_nonintegrable_demo_increment_limit():
    demo = nonintegrable_demo(p=2, rate=1.0, m_terms=100)
    assert demo.increments[-1] == pytest.approx(0.5, rel=1e-2)
    assert demo.partial_sums[-1] >= 0.9 * 0.5 * 100


def test_nonintegrable_demo_zero_rate_exact():
    demo = nonintegrable_demo(p=2, rate=0.0, m_terms=50)
    assert demo.partial_sums[-1] == pytest.approx(0.5 * 51, rel=1e-14)


def test_nonintegrable_demo_linear_growth():
    demo = nonintegrable_demo(p=3, rate=2.0, m_terms=200)
    sums = demo.partial_sums
    # late increments are all within 1% of the limit 1 - 1/p
    late = [b - a for a, b in zip(sums[150:], sums[151:])]
    assert all(abs(d - 2.0 / 3.0) < 0.01 * 2.0 / 3.0 for d in late)


# ---------------------------------------------------------------------------
# property tests across the parameter family
# ---------------------------------------------------------------------------


@given(
    p=st.sampled_from([2, 3, 5]),
    n=st.integers(1, 2),
    gamma_scale=st.floats(0.05, 0.95),
    positive_gamma=st.booleans(),
    c1=st.floats(0.25, 4.0),
)
@settings(max_examples=25, deadline=None)
def test_family_invariants(p, n, gamma_scale, positive_gamma, c1):
    space = SpaceParams(p, n)
    gamma = gamma_scale * 1.5 if positive_gamma else -gamma_scale * n
    params = normalize(space, gamma, c1)
    # log-space summation in the oracle: wide gamma+n windows make the raw
    # terms overflow/underflow individually even though the sum is tame
    j_lo = -int(12.0 * math.log(10.0) / ((gamma + n) * space.log_p)) - 20
    total = sum(
        math.exp(params.log_value_at(j) + log_sphere_volume(space, j))
        for j in range(j_lo, 40)
        if params.log_value_at(j) + log_sphere_volume(space, j) > -745.0
    )
    assert total == pytest.approx(1.0, abs=1e-9)
    cache = SpectralCache(params, -3, 2)  # raises outside [-1e-10, 2 + 1e-10]
    for k in (-3, 0, 2):
        assert 0.0 <= cache.one_minus(k) <= 2.0
    assert spectral_gap_at_one(params) > 0.0
