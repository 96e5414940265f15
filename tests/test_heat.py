"""Heat-kernel series against decay bounds, conservation, a dense
matrix-exponential oracle on the truncated coset chain, the lumping of that
chain onto coset norms, and the Chapman-Kolmogorov property.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from conftest import GRID, at
from ultradiff.errors import GammaOutOfRange, ZeroPoint
from ultradiff import heat
from ultradiff.fpt import g_grid
from ultradiff.heat import (
    _TIME_BLOCK,
    AUDIT_TAIL,
    ConservationAudit,
    HeatState,
    _sphere_masses,
    chapman_kolmogorov_defect,
    conservation_audits,
    decay_bound_check,
    du_dt,
    escape_depths,
    j_convolve_u,
    norm_chain,
    pde_residual,
    survival,
    transition_prob,
    u_table,
    ztilde_table,
)
from ultradiff.landscape import ball_jmass_bound, exterior_mass, jmass_ball, normalize
from ultradiff.padic import CosetPoint, SpaceParams, ZERO_NORM, sphere_volume


# ---------------------------------------------------------------------------
# The coset chain on residues mod p^depth: the oracle for the norm chain
# ---------------------------------------------------------------------------


def coset_norm_exponents(space, depth):
    """Norm exponent of every coset residue at the given depth (0 = identity).

    Residue index encodes the n coordinates in base p^depth; the norm
    exponent of a nonzero coordinate residue A is depth - v_p(A).
    """
    pm = space.p**depth
    a = np.arange(pm)
    per_coord = np.full(pm, depth, dtype=np.int64)
    for k in range(1, depth):  # p^k divides a != 0 for v_p(a) of these k
        per_coord -= a % space.p**k == 0
    per_coord[0] = 0
    if space.n == 1:
        return per_coord
    total = space.p ** (depth * space.n)
    idx = np.arange(total)
    out = np.zeros(total, dtype=np.int64)
    for _ in range(space.n):
        out = np.maximum(out, per_coord[idx % pm])
        idx //= pm
    return out


def coset_differences(space, depth):
    """Residue index of y - x for every pair (x, y) of cosets in B_depth."""
    pm = space.p**depth
    total = space.p ** (depth * space.n)
    rest = np.arange(total)
    diff = np.zeros((total, total), dtype=np.int64)
    mult = 1
    for _ in range(space.n):
        c = rest % pm
        rest = rest // pm
        diff += ((c[None, :] - c[:, None]) % pm) * mult
        mult *= pm
    return diff


def transition_matrix(state, t, depth):
    """The coset chain's transition matrix on B_depth / Z_p^n: the
    probability u(p^j, t) of one unit coset of the norm p^j of y - x, per
    pair (x, y) (u = S on the identity coset)."""
    norms = coset_norm_exponents(state.space, depth)
    q = u_table(state, np.arange(depth + 1), t)[:, 0]
    return q[norms[coset_differences(state.space, depth)]]


def quotient_generator(state, depth):
    """Dense generator of the coset chain on residues mod p^depth (n = 1
    or 2), assembled purely from the jump law: rate 1, increment law
    J(p^j) per target coset. Independent of every spectral series."""
    space = state.space
    total = space.p ** (depth * space.n)
    norms = coset_norm_exponents(space, depth)
    kappa = np.empty(total)
    kappa[0] = 1.0 - exterior_mass(state.landscape)
    for a in range(1, total):
        kappa[a] = state.landscape.value_at(int(norms[a]))
    p_jump = kappa[coset_differences(space, depth)]
    return p_jump - np.eye(total)


# ---------------------------------------------------------------------------
# Ztilde basics
# ---------------------------------------------------------------------------


def test_ztilde_zero_time_vanishes(desk_state):
    assert np.all(ztilde_table(desk_state, [-10, -1, 1, 3, 8], [0.0]) == 0.0)


def test_ztilde_rejects_origin(desk_state):
    with pytest.raises(ZeroPoint):
        ztilde_table(desk_state, [ZERO_NORM], [1.0])
    with pytest.raises(ZeroPoint):
        ztilde_table(desk_state, [2, ZERO_NORM, 1], [1.0, 2.0])


def test_ztilde_nonnegative_on_grid(desk_state):
    z = ztilde_table(desk_state, range(-20, 15), (0.1, 0.5, 1.0, 5.0, 20.0))
    assert np.all(z >= 0.0)


def test_uniform_decay_bound(desk_state):
    # Ztilde(x, t) <= 2 t |x|^{-n} pointwise
    i, t = np.arange(1, 11), np.array([0.1, 1.0, 10.0])
    bound = 2.0 * t[None, :] * 2.0 ** (-i[:, None].astype(float)) + 1e-15
    assert np.all(ztilde_table(desk_state, i, t) <= bound)


def test_conservation_with_atom(desk_state):
    for audit in conservation_audits(desk_state, (0.1, 0.5, 1.0, 5.0, 20.0)):
        assert audit.defect <= 1e-8
        # the density alone carries exactly 1 - e^{-t}
        assert audit.density_mass == pytest.approx(-math.expm1(-audit.t), abs=1e-8)


def test_conservation_other_space(state_p3n2):
    for audit in conservation_audits(state_p3n2, (0.5, 5.0)):
        assert audit.defect <= 1e-8


@pytest.mark.parametrize("p, n, gamma, c1", GRID)
def test_conservation_window_certified_across_grid(p, n, gamma, c1):
    # near gamma = -n the density mass below S_lo decays like p^{(gamma+n) lo},
    # so the certified window reaches lo ~ -1000 at p = 2
    state = HeatState(normalize(SpaceParams(p=p, n=n), gamma, c1))
    for audit in conservation_audits(state, (0.1, 1.0, 20.0)):
        assert audit.defect <= 1e-8, (audit.t, audit.window)
        assert audit.tail_bound <= 1e-15, (audit.t, audit.window)


# ---------------------------------------------------------------------------
# tables over (i, t): one engine call, the roundings of the one-point tables
# ---------------------------------------------------------------------------

#: the desk point and the six points of the benchmark's sweep workload
TABLE_POINTS = [
    (2, 1, -0.5, 1.0),
    (2, 1, -0.5, 0.2),
    (2, 2, -1.0, 0.3),
    (3, 2, -1.0, 1.0),
    (5, 1, -0.7, 0.3),
    (3, 1, -0.3, 0.5),
    (2, 2, 0.5, 0.2),
]
#: unsorted, with t = 0 and a repeat
TABLE_TIMES = (2.0, 0.0, 0.05, 20.0, 0.5, 7.3, 0.05)
TABLE_EXPS = (3, -10, 0, 30, 1, -1, 12, 2, 3)


def audit_at_one_time(state, t):
    """The conservation audit of t alone: its own window search and a
    one-column sphere-mass table, as before the audits were batched."""
    params = state.landscape
    [(hi, above)] = escape_depths(params, [t])
    top, size = hi - 1, 64
    while True:
        q = np.arange(top, top - size, -1)
        below = -math.expm1(-t) * ball_jmass_bound(params, q)
        ok = np.flatnonzero(below <= AUDIT_TAIL)
        if ok.size:
            break
        top, size = top - size, 2 * size
    lo = int(q[ok[0]]) + 1
    masses = _sphere_masses(state, np.arange(lo, hi + 1), t)[:, 0]
    return ConservationAudit(
        t=t,
        density_mass=math.fsum(masses),
        atom=math.exp(-t),
        window=(lo, hi),
        tail_bound=float(above + below[ok[0]]),
    )


@pytest.mark.parametrize("p, n, gamma, c1", TABLE_POINTS)
def test_tables_equal_scalar_calls(p, n, gamma, c1):
    state = HeatState(normalize(SpaceParams(p=p, n=n), gamma, c1))
    u = u_table(state, TABLE_EXPS, TABLE_TIMES)
    z = ztilde_table(state, TABLE_EXPS, TABLE_TIMES)
    s = survival(state, TABLE_TIMES)
    assert u.shape == z.shape == (len(TABLE_EXPS), len(TABLE_TIMES))
    for col, t in enumerate(TABLE_TIMES):
        assert s[col] == survival(state, t) == at(u_table, state, ZERO_NORM, t)
        for row, i in enumerate(TABLE_EXPS):
            assert u[row, col] == at(u_table, state, i, t), (i, t)
            assert z[row, col] == at(ztilde_table, state, i, t), (i, t)
    audits = conservation_audits(state, TABLE_TIMES)
    assert audits == [audit_at_one_time(state, t) for t in TABLE_TIMES]
    assert [conservation_audits(state, [t])[0] for t in TABLE_TIMES] == audits


@pytest.mark.parametrize("p, n, gamma, c1", [pt for pt in TABLE_POINTS if pt[2] < 0])
def test_decay_bound_check_batch_equals_single_points(p, n, gamma, c1):
    state = HeatState(normalize(SpaceParams(p=p, n=n), gamma, c1))
    exps = [i for i in TABLE_EXPS if i >= 2]
    report = decay_bound_check(state, exps, TABLE_TIMES, l=1)
    singles = [
        decay_bound_check(state, [i], [t], l=1) for i in exps for t in TABLE_TIMES
    ]
    assert list(report.points) == [(i, t) for i in exps for t in TABLE_TIMES]
    for margins, field in (
        (report.uniform_margins, "uniform_margins"),
        (report.claim_margins, "claim_margins"),
        (report.decay_margins, "decay_margins"),
    ):
        assert list(margins) == [getattr(one, field)[0] for one in singles]


#: a grid of three time blocks, the last of three times, and sub-slices of
#: it whose own blocks start off the grid's block edges and cross them
BLOCK_GRID = np.geomspace(0.01, 400.0, 2 * _TIME_BLOCK + 3)
BLOCK_SLICES = (
    slice(0, 5),
    slice(_TIME_BLOCK - 3, _TIME_BLOCK + 4),
    slice(7, 2 * _TIME_BLOCK + 1),
    slice(_TIME_BLOCK + 1, None),
)


@pytest.mark.parametrize("p, n, gamma, c1", [TABLE_POINTS[0], TABLE_POINTS[-1]])
def test_time_blocks_change_no_bit(p, n, gamma, c1, monkeypatch):
    state = HeatState(normalize(SpaceParams(p=p, n=n), gamma, c1))
    exps = list(range(-3, 9))
    tables = {
        "u": lambda ts: u_table(state, exps, ts),
        "ztilde": lambda ts: ztilde_table(state, exps, ts),
        "g": lambda ts: g_grid(state, ts),
    }
    blocked = {name: table(BLOCK_GRID) for name, table in tables.items()}
    for name in ("u", "ztilde"):
        full = blocked[name]
        for cut in BLOCK_SLICES:
            part = tables[name](BLOCK_GRID[cut])
            assert part.shape == full[:, cut].shape
            assert np.all(part == full[:, cut]), (name, cut)
    # g sums the u rows in one matrix product, whose roundings may depend
    # on the number of columns, so its slices agree to roundoff only
    for cut in BLOCK_SLICES:
        np.testing.assert_allclose(
            tables["g"](BLOCK_GRID[cut]), blocked["g"][cut], rtol=1e-13, atol=0.0
        )
    # the whole grid in one block, as the series ran before it was blocked
    monkeypatch.setattr(heat, "_TIME_BLOCK", BLOCK_GRID.size)
    for name, table in tables.items():
        assert np.all(table(BLOCK_GRID) == blocked[name]), name


def test_time_blocks_on_empty_and_single_time_grids(desk_state):
    exps = [-2, 0, 1, 5]
    assert u_table(desk_state, exps, []).shape == (len(exps), 0)
    assert ztilde_table(desk_state, exps, []).shape == (len(exps), 0)
    assert g_grid(desk_state, np.array([])).shape == (0,)
    u = u_table(desk_state, exps, [1.5])
    z = ztilde_table(desk_state, exps, [1.5])
    assert u[:, 0].tolist() == [at(u_table, desk_state, i, 1.5) for i in exps]
    assert z[:, 0].tolist() == [at(ztilde_table, desk_state, i, 1.5) for i in exps]
    assert g_grid(desk_state, np.array([1.5])).shape == (1,)


def test_conservation_audits_without_times(desk_state):
    assert conservation_audits(desk_state, []) == []


# ---------------------------------------------------------------------------
# u profile
# ---------------------------------------------------------------------------


def test_initial_condition(desk_state):
    u = u_table(desk_state, [ZERO_NORM, -3, 1, 2, 5], [0.0])[:, 0]
    assert u.tolist() == pytest.approx([1.0, 1.0, 0.0, 0.0, 0.0], abs=1e-12)


def test_u_constant_inside_unit_ball(desk_state):
    u = u_table(desk_state, [ZERO_NORM, 0, -1, -7], (0.3, 1.0, 4.0))
    assert np.all(u == u[0])


def test_u_equals_ztilde_outside(desk_state):
    # both are the transition probability into a unit coset at distance p^i
    exps, times = (1, 2, 5), (0.2, 1.0, 3.0)
    np.testing.assert_allclose(
        u_table(desk_state, exps, times), ztilde_table(desk_state, exps, times),
        rtol=0.0, atol=1e-14,
    )


def test_u_total_probability(desk_state):
    space = desk_state.space
    for t in (0.5, 1.0, 5.0):
        mass = survival(desk_state, t) + sum(
            at(u_table, desk_state, i, t) * sphere_volume(space, i)
            for i in range(1, 40)
        )
        assert mass == pytest.approx(1.0, abs=1e-8)


def test_radial_profile_containers(desk_state):
    # a radial profile at one time is one column of a table over norm
    # exponents, and its sphere masses account for all of its mass
    t = 1.0
    exps = range(-3, 40)
    u = u_table(desk_state, exps, [t])[:, 0]
    assert u[0] == survival(desk_state, t)
    assert u[exps.index(2)] == at(u_table, desk_state, 2, t)
    assert np.all(u >= 0.0)
    # full probability profile: inside mass plus exterior sphere masses is 1
    outside = math.fsum(
        v * sphere_volume(desk_state.space, i) for i, v in zip(exps, u) if i >= 1
    )
    assert u[0] + outside == pytest.approx(1.0, abs=1e-8)
    # the density blows up like |x|^gamma at the origin, so its sphere
    # masses have a slow geometric tail: take the window deep enough
    exps = range(-90, 40)
    z = ztilde_table(desk_state, exps, [t])[:, 0]
    z_mass = math.fsum(v * sphere_volume(desk_state.space, i) for i, v in zip(exps, z))
    assert z_mass == pytest.approx(-math.expm1(-t), abs=1e-8)


def test_u_nonnegative_and_below_one(desk_state):
    u = u_table(desk_state, [ZERO_NORM, 1, 2, 3, 6], (0.1, 1.0, 10.0))
    assert np.all((-1e-12 <= u) & (u <= 1.0 + 1e-12))


def test_u_matches_matrix_exponential_oracle(desk_state):
    q = quotient_generator(desk_state, depth=8)
    for t in (0.5, 1.0, 2.0):
        row = scipy.linalg.expm(q * t)[0]
        assert row[0] == pytest.approx(survival(desk_state, t), abs=1e-6)
        # residue 2^{8-i} has coset norm p^i
        for i in (1, 2, 3):
            assert row[2 ** (8 - i)] == pytest.approx(
                at(u_table, desk_state, i, t), abs=1e-6
            )


def test_u_matches_matrix_exponential_oracle_p3n2(state_p3n2):
    q = quotient_generator(state_p3n2, depth=2)
    row = scipy.linalg.expm(q * 1.0)[0]
    assert row[0] == pytest.approx(survival(state_p3n2, 1.0), abs=1e-6)
    assert row[3] == pytest.approx(at(u_table, state_p3n2, 1, 1.0), abs=1e-6)
    assert row[1] == pytest.approx(at(u_table, state_p3n2, 2, 1.0), abs=1e-6)


# ---------------------------------------------------------------------------
# time derivative and the evolution equation
# ---------------------------------------------------------------------------


def test_du_dt_matches_finite_differences(desk_state):
    h = 1e-4
    for i, t in ((2, 1.0), (ZERO_NORM, 0.5), (1, 2.0), (4, 0.3)):
        fd = (at(u_table, desk_state, i, t + h) - at(u_table, desk_state, i, t - h)) / (
            2 * h
        )
        assert du_dt(desk_state, i, t) == pytest.approx(fd, abs=1e-6)


def test_initial_leakage_negative(desk_state):
    v = du_dt(desk_state, ZERO_NORM, 0.0)
    cache = desk_state.cache
    space = desk_state.space
    expected = -sum(
        sphere_volume(space, -j) * cache.one_minus(-j) for j in range(0, 60)
    )
    assert v < 0.0
    assert v == pytest.approx(expected, rel=1e-10)


def test_du_dt_vanishes_at_large_times(desk_state):
    # sup_d d e^{-d t} = 1/(e t), and the sphere weights sum to one
    t = 1e3
    for i in (ZERO_NORM, 1, 3):
        assert abs(du_dt(desk_state, i, t)) <= 1.0 / (math.e * t) + 1e-12


def test_evolution_equation_residual(desk_state):
    pts = [(i, t) for i in (ZERO_NORM, 1, 2, 3) for t in (0.1, 0.5, 1.0, 2.0, 5.0)]
    assert len(pts) == 20
    for i, t in pts:
        assert abs(pde_residual(desk_state, i, t)) <= 1e-6


def test_evolution_equation_residual_p3n2(state_p3n2):
    for i, t in ((ZERO_NORM, 0.5), (1, 1.0), (2, 2.0)):
        assert abs(pde_residual(state_p3n2, i, t)) <= 1e-6


def test_convolution_at_origin_is_flux_balance(desk_state):
    # (J*u)(inside) - u = g - C u_inside, the survival flux identity
    t = 0.8
    u_in = survival(desk_state, t)
    c_ext = exterior_mass(desk_state.landscape)
    lhs = j_convolve_u(desk_state, ZERO_NORM, t) - u_in
    assert lhs == pytest.approx(g_grid(desk_state, [t])[0] - c_ext * u_in, abs=1e-12)


#: desk and two points of the verify grid, one of them with gamma > 0
RESIDUAL_POINTS = [(2, 1, -0.5, 1.0), (3, 2, -1.0, 0.2), (2, 2, 0.5, 0.2)]
#: ZERO_NORM, norms inside and outside Z_p^n; unsorted times, t = 0, a repeat
RESIDUAL_EXPS = [ZERO_NORM, 3, -2, 1, 0, 6, 2]
RESIDUAL_TIMES = (2.0, 0.0, 0.5, 5.0, 0.1, 0.5)


def du_dt_one_point(state, i, t):
    """du/dt from a one-row, one-time series: the scalar form the table
    replaced, kept as its oracle."""
    i = i if isinstance(i, int) else 0
    a, corr = heat._series(state, [max(i, 0)], lambda lam: lam * np.exp(-lam * t))
    if i <= 0:
        return -float(a[0])
    return float((float(state.space.p) ** state.space.n) ** -i * (corr[0] - a[0]))


def j_convolve_u_one_point(state, i, t):
    """(J * u)(p^i) at one time from its own u rows and its own inflow: the
    scalar form the table replaced, kept as its oracle."""
    params, space = state.landscape, state.space
    i = max(i if isinstance(i, int) else 0, 0)
    u = u_table(state, np.arange(i + 1), t)[:, 0]
    outer = float(heat.inflow(state, i, t)[0])
    if i == 0:
        return u[0] * jmass_ball(params, 0) + outer
    inner = u[i] * jmass_ball(params, i - 1)
    ball_u = u[0] + math.fsum(u[m] * sphere_volume(space, m) for m in range(1, i + 1))
    same = params.value_at(i) * (ball_u - u[i] * float(space.p) ** ((i - 1) * space.n))
    return outer + inner + same


@pytest.mark.parametrize("p, n, gamma, c1", RESIDUAL_POINTS)
def test_residual_tables_equal_one_point_oracles(p, n, gamma, c1):
    state = HeatState(normalize(SpaceParams(p=p, n=n), gamma, c1))
    exps, times = RESIDUAL_EXPS, RESIDUAL_TIMES
    dt = du_dt(state, exps, times)
    jc = j_convolve_u(state, exps, times)
    res = pde_residual(state, exps, times)
    assert dt.shape == jc.shape == res.shape == (len(exps), len(times))
    for col, t in enumerate(times):
        for row, i in enumerate(exps):
            want_dt = du_dt_one_point(state, i, t)
            want_jc = j_convolve_u_one_point(state, i, t)
            want_res = want_dt - (want_jc - at(u_table, state, i, t))
            assert dt[row, col] == want_dt == du_dt(state, i, t), (i, t)
            assert jc[row, col] == want_jc == j_convolve_u(state, i, t), (i, t)
            assert res[row, col] == want_res == pde_residual(state, i, t), (i, t)
    # a scalar i or t views one row or one column of the table
    assert du_dt(state, exps[1], times).tolist() == dt[1].tolist()
    assert j_convolve_u(state, exps[0], times).tolist() == jc[0].tolist()
    assert pde_residual(state, exps, times[2]).tolist() == res[:, 2].tolist()
    assert u_table(state, exps, times).tolist() == [
        [at(u_table, state, i, t) for t in times] for i in exps
    ]


# ---------------------------------------------------------------------------
# survival
# ---------------------------------------------------------------------------


def test_survival_at_zero(desk_state):
    assert survival(desk_state, 0.0) == pytest.approx(1.0, abs=1e-12)


def test_survival_lower_bound(desk_state):
    # S' = g - C S >= -C S gives S(t) >= e^{-C t}
    c_ext = exterior_mass(desk_state.landscape)
    for t in (0.1, 1.0, 5.0):
        assert survival(desk_state, t) >= math.exp(-c_ext * t) - 1e-12


def test_survival_flux_balance(desk_state):
    c_ext = exterior_mass(desk_state.landscape)
    h = 1e-4
    for t in (0.5, 1.0, 2.0):
        fd = (survival(desk_state, t + h) - survival(desk_state, t - h)) / (2 * h)
        rhs = g_grid(desk_state, [t])[0] - c_ext * survival(desk_state, t)
        assert fd == pytest.approx(rhs, abs=1e-6)


# ---------------------------------------------------------------------------
# transition probabilities
# ---------------------------------------------------------------------------


def test_transition_prob_at_time_zero(desk_state):
    space = desk_state.space
    zero = CosetPoint.zero(space)
    half = CosetPoint.from_digit_maps(space, [{-1: 1}])
    assert transition_prob(desk_state, zero, zero, 0, 0.0) == 1.0
    assert transition_prob(desk_state, zero, half, 0, 0.0) == 0.0
    assert transition_prob(desk_state, half, half, -2, 0.0) == 1.0
    assert transition_prob(desk_state, zero, half, 3, 0.0) == 1.0  # ball covers both


def test_transition_prob_unit_ball_is_survival(desk_state):
    zero = CosetPoint.zero(desk_state.space)
    for t in (0.2, 1.0, 5.0):
        assert transition_prob(desk_state, zero, zero, 0, t) == pytest.approx(
            survival(desk_state, t), abs=1e-12
        )


def test_transition_prob_distant_coset(desk_state):
    space = desk_state.space
    zero = CosetPoint.zero(space)
    far = CosetPoint.from_digit_maps(space, [{-3: 1}])
    t = 1.0
    assert transition_prob(desk_state, zero, far, 0, t) == pytest.approx(
        at(ztilde_table, desk_state, 3, t), rel=1e-12
    )
    # sub-ball of that coset carries the proportional share of the density
    assert transition_prob(desk_state, zero, far, -2, t) == pytest.approx(
        at(ztilde_table, desk_state, 3, t) / 4.0, rel=1e-12
    )


def test_transition_prob_total_mass(desk_state):
    # the ball of radius p^r around the start carries S + inner sphere masses,
    # tending to 1 as r grows
    zero = CosetPoint.zero(desk_state.space)
    t = 1.0
    vals = [transition_prob(desk_state, zero, zero, r, t) for r in (0, 1, 2, 3, 20)]
    assert all(a < b for a, b in zip(vals[:4], vals[1:4]))
    assert vals[-1] == pytest.approx(1.0, abs=1e-8)


def test_transition_prob_translation_invariance(desk_state):
    space = desk_state.space
    x = CosetPoint.from_digit_maps(space, [{-2: 1}])
    c = CosetPoint.from_digit_maps(space, [{-2: 1, -1: 1}])
    t = 0.7
    # p_t(x, B_0(c)) depends only on c - x
    delta = c - x
    zero = CosetPoint.zero(space)
    assert transition_prob(desk_state, x, c, 0, t) == pytest.approx(
        transition_prob(desk_state, zero, delta, 0, t), rel=1e-14
    )


@pytest.mark.parametrize("p, gamma, c1", [(3, -0.3, 0.5), (5, -0.7, 0.3)])
def test_transition_prob_deep_ball(p, gamma, c1):
    # B_r inside Z_p carries S(t) minus the density on the spheres r < j <= 0
    state = HeatState(normalize(SpaceParams(p=p, n=1), gamma, c1))
    zero = CosetPoint.zero(state.space)
    for r in (-10, -40):
        for t in (0.1, 1.0):
            shell = math.fsum(
                at(ztilde_table, state, j, t) * sphere_volume(state.space, j)
                for j in range(r + 1, 1)
            )
            assert transition_prob(state, zero, zero, r, t) == pytest.approx(
                survival(state, t) - shell, abs=1e-13
            )


def test_transition_prob_depth_guard():
    # balls far below the coset depth cap: a path in B_r at t has not jumped
    # (the atom e^{-t}) or made its last jump into a translate of B_r, whose
    # J-mass is at most M(r) = ball_jmass_bound(r)
    for p, n, gamma, c1 in (GRID[0], GRID[17], GRID[30], GRID[53]):
        params = normalize(SpaceParams(p=p, n=n), gamma, c1)
        state = HeatState(params)
        zero = CosetPoint.zero(state.space)
        for r in (-80, -200):
            bound = float(ball_jmass_bound(params, r))
            for t in (0.1, 1.0):
                atom = math.exp(-t)
                value = transition_prob(state, zero, zero, r, t)
                assert atom - 1e-15 <= value, (p, n, gamma, c1, r, t)
                assert value <= atom + (1 - atom) * bound + 1e-15, (p, n, gamma, c1, r, t)


# ---------------------------------------------------------------------------
# semigroup property
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t,s", [(0.5, 0.5), (1.0, 2.0)])
def test_chapman_kolmogorov(desk_state, t, s):
    assert chapman_kolmogorov_defect(desk_state, t, s) <= 1e-6


def test_chapman_kolmogorov_p3n2(state_p3n2):
    assert chapman_kolmogorov_defect(state_p3n2, 0.5, 0.5) <= 1e-6


def test_chapman_kolmogorov_across_grid():
    # at C1 = 0.2, n = 2 the mass escaping B_d is negligible only from d = 7
    # (p = 2) and d = 4 (p = 3): 16 384 and 6 561 states of the coset chain
    for p, n, gamma, c1 in GRID:
        state = HeatState(normalize(SpaceParams(p=p, n=n), gamma, c1))
        for t, s in ((0.5, 0.5), (1.0, 2.0)):
            defect = chapman_kolmogorov_defect(state, t, s)
            assert defect <= 1e-6, (p, n, gamma, c1, t, s, defect)


@pytest.mark.parametrize(
    "p, n, gamma, c1, depth",
    [(2, 1, -0.5, 1.0, 4), (3, 2, -0.5, 1.0, 3), (2, 2, 0.5, 0.2, 4)],
)
def test_norm_chain_lumps_the_coset_chain(p, n, gamma, c1, depth):
    # every row of the coset matrix, summed (exactly rounded) over the
    # cosets of each norm, is the norm chain's row for the norm of its start
    state = HeatState(normalize(SpaceParams(p=p, n=n), gamma, c1))
    norms = coset_norm_exponents(state.space, depth)
    for t in (0.5, 2.0):
        cosets = transition_matrix(state, t, depth)
        lumped = np.array(
            [[math.fsum(row[norms == b]) for b in range(depth + 1)] for row in cosets]
        )
        chain = norm_chain(state, t, depth)
        assert np.max(np.abs(lumped - chain[norms])) <= 1e-15


def test_transition_matrix_rows_sum_to_total_mass(desk_state):
    t = 1.0
    mat = norm_chain(desk_state, t, depth=8)
    # rows sum to 1 minus the mass outside the depth window (tiny here)
    assert np.allclose(mat.sum(axis=1), 1.0, atol=1e-10)
    assert mat[0, 0] == pytest.approx(survival(desk_state, t), rel=1e-12)


def test_q_by_norm_consistency(desk_state):
    # column 0 of the norm chain is q, the probability of one unit coset by
    # its norm: S(t) for the identity coset, Ztilde(p^j, t) for norm p^j
    t = 0.5
    q = norm_chain(desk_state, t, depth=6)[:, 0]
    assert q[0] == survival(desk_state, t)
    for j in range(1, 7):
        assert q[j] == at(ztilde_table, desk_state, j, t)


# ---------------------------------------------------------------------------
# decay bounds
# ---------------------------------------------------------------------------


def test_decay_bounds_hold(desk_state):
    report = decay_bound_check(desk_state, range(2, 13), (0.1, 1.0, 10.0), l=1)
    assert report.all_nonnegative
    assert report.c0 > 0


def test_decay_bound_vacuous_at_time_zero(desk_state):
    report = decay_bound_check(desk_state, [3], [0.0], l=1)
    assert report.uniform_margins[0] == 0.0
    assert report.claim_margins[0] == 0.0
    assert report.decay_margins[0] == 0.0


def test_decay_bound_requires_gamma_window():
    state = HeatState(normalize(SpaceParams(2, 1), gamma=0.5, c1=1.0))
    with pytest.raises(GammaOutOfRange):
        decay_bound_check(state, [3], [1.0])


def test_decay_bound_rejects_shallow_exponents(desk_state):
    with pytest.raises(ValueError):
        decay_bound_check(desk_state, [1], [1.0], l=1)
