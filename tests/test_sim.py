"""Exact-simulation contracts: law of the jumps, reproducibility, nesting,
and statistical agreement with the analytic semigroup.

Fixed seeds everywhere; the chi-square and 3-sigma tests are calibrated to
pass with the chosen seeds (and would flag genuine distributional bugs).
"""

import math

import numpy as np
import pytest
from scipy import stats

from ultradiff.cli import binomial_tail_z
from ultradiff.errors import ConfigError
from ultradiff.heat import survival, u_profile
from ultradiff.landscape import exterior_mass, normalize
from ultradiff.padic import CosetPoint, SpaceParams, sphere_volume, split_stream
from ultradiff.sim import (
    FirstPassageSample,
    JumpNormTable,
    PathSample,
    SimConfig,
    first_passage,
    fpt_cdf_estimate,
    run_paths,
    sample_jump_norm,
    simulate_path,
    survival_estimates,
)


@pytest.fixture(scope="module")
def desk_sim(desk_params):
    return SimConfig(
        landscape=desk_params, horizon=4.0, max_paths=20_000, seed=20240810, j_max=8
    )


@pytest.fixture(scope="module")
def desk_batch(desk_sim):
    return run_paths(desk_sim, query_times=(0.5, 1.0, 2.0))


# ---------------------------------------------------------------------------
# jump-norm table
# ---------------------------------------------------------------------------


def test_table_nonmoving_mass(desk_params):
    table = JumpNormTable.build(desk_params, j_max=8)
    assert table.prob_nonmoving == pytest.approx(
        1.0 - exterior_mass(desk_params), abs=1e-10
    )
    assert table.defect_high < 1e-12
    assert abs(table.probs.sum() - 1.0) < 1e-14


@pytest.mark.parametrize("p,n", [(2, 2), (3, 1), (3, 2), (5, 2)])
def test_table_builds_near_the_integrability_edge(p, n):
    # gamma = -0.95 n, C1 = 5: the lower tail is long, and deep in it
    # J(p^j) overflows while vol(S_j) underflows; the log-space sphere mass
    # never forms their product
    params = normalize(SpaceParams(p, n), gamma=-0.95 * n, c1=5.0)
    table = JumpNormTable.build(params, j_max=3)
    assert table.defect_high < 1e-12
    assert np.all(np.isfinite(table.probs))
    assert table.probs.sum() == pytest.approx(1.0, abs=1e-14)


def test_table_rejects_coarse_truncation(desk_params):
    with pytest.raises(ConfigError):
        SimConfig(
            landscape=desk_params, horizon=1.0, max_paths=10, seed=1, j_max=2
        )


def test_table_concentrates_with_huge_rate(desk_space):
    params = normalize(desk_space, gamma=-0.5, c1=50.0)
    table = JumpNormTable.build(params, j_max=4)
    assert float(table.probs[table.js <= -3].sum()) > 0.9


def test_jump_law_chi_square(desk_params):
    table = JumpNormTable.build(desk_params, j_max=8)
    rng = split_stream(777, 0)
    draws = sample_jump_norm(table, rng, size=100_000)
    # pool table bins so every expectation is at least 10 counts
    order = np.argsort(table.js)[::-1]  # largest exponents first
    pooled_probs, pooled_counts = [], []
    acc_p, acc_c = 0.0, 0
    for idx in order:
        acc_p += table.probs[idx]
        acc_c += int(np.sum(draws == table.js[idx]))
        if acc_p * len(draws) >= 10:
            pooled_probs.append(acc_p)
            pooled_counts.append(acc_c)
            acc_p, acc_c = 0.0, 0
    pooled_probs[-1] += acc_p
    pooled_counts[-1] += acc_c
    expected = np.array(pooled_probs) * len(draws)
    chi2 = float(((np.array(pooled_counts) - expected) ** 2 / expected).sum())
    assert chi2 < stats.chi2.ppf(0.99, len(expected) - 1)


def test_config_validation_messages(desk_params):
    with pytest.raises(ConfigError, match="horizon"):
        SimConfig(landscape=desk_params, horizon=0.0, max_paths=10, seed=1, j_max=8)
    with pytest.raises(ConfigError, match="j_max"):
        SimConfig(
            landscape=desk_params, horizon=1.0, max_paths=10, seed=1, j_max=70
        )


# ---------------------------------------------------------------------------
# single-path contracts
# ---------------------------------------------------------------------------


def test_simulate_path_reproducible(desk_sim):
    a = simulate_path(desk_sim, 123)
    b = simulate_path(desk_sim, 123)
    assert a == b
    assert a != simulate_path(desk_sim, 124)


def test_path_positions_start_inside_and_chain(desk_sim):
    path = simulate_path(desk_sim, 5)
    space = desk_sim.landscape.space
    pos = CosetPoint.zero(space)
    mover = 0
    for j, recorded in zip(path.norm_exponents, path.positions):
        if j >= 1:
            mover += 1
        assert recorded.space == space
    assert len(path.positions) == len(path.jump_times)
    assert all(
        a < b for a, b in zip(path.jump_times, path.jump_times[1:])
    )  # strictly increasing
    assert all(t <= desk_sim.horizon for t in path.jump_times)


def test_expected_jump_count(desk_batch, desk_sim):
    # unit-rate process: E[N(T)] = T, sd of the mean = sqrt(T/paths)
    mean = float(desk_batch.n_jumps.mean())
    sigma = math.sqrt(desk_sim.horizon / desk_sim.max_paths)
    assert abs(mean - desk_sim.horizon) <= 3.0 * sigma


def test_first_passage_hand_traced():
    space = SpaceParams(2, 1)
    zero = CosetPoint.zero(space)
    out = CosetPoint.from_digit_maps(space, [{-1: 1}])
    path = PathSample(
        jump_times=(0.3, 0.9, 1.4),
        norm_exponents=(1, 1, 0),
        positions=(out, zero, zero),
        horizon=2.0,
    )
    fp = first_passage(path)
    assert fp == FirstPassageSample(tau=0.9, censored=False, exited=True)


def test_first_passage_never_left():
    space = SpaceParams(2, 1)
    zero = CosetPoint.zero(space)
    path = PathSample(
        jump_times=(0.5, 1.0),
        norm_exponents=(0, -2),
        positions=(zero, zero),
        horizon=2.0,
    )
    fp = first_passage(path)
    assert fp.censored and not fp.exited and fp.tau is None


def test_batch_matches_scalar_path_api(desk_sim):
    # p = 3, j_max = 40: residues mod p^j_max exceed 2^62 (Python ints)
    p3 = normalize(SpaceParams(p=3, n=1), -0.5, 1.0)
    for landscape, j_max in ((desk_sim.landscape, desk_sim.j_max), (p3, 40)):
        sim = SimConfig(
            landscape=landscape,
            horizon=desk_sim.horizon,
            max_paths=200,
            seed=desk_sim.seed,
            j_max=j_max,
        )
        batch = run_paths(sim, query_times=(1.0,))
        for idx in range(200):
            fp = first_passage(simulate_path(sim, idx))
            if fp.tau is None:
                assert math.isnan(batch.tau[idx])
            else:
                assert batch.tau[idx] == pytest.approx(fp.tau, abs=0.0)
            assert bool(batch.exited[idx]) == fp.exited


# ---------------------------------------------------------------------------
# statistical agreement with the analytic side
# ---------------------------------------------------------------------------


def test_mc_survival_within_3_sigma(desk_batch, desk_state):
    for est in survival_estimates(desk_batch):
        s_true = survival(desk_state, est.t)
        assert abs(est.estimate - s_true) <= 3.0 * est.stderr, est.t


def test_binomial_tail_z_at_small_counts():
    # 2000 paths with 0.056 expected outside: one stray path is no evidence,
    # twenty are; a plug-in z divides by a zero stderr when none leaves
    q = 0.056 / 2000
    assert binomial_tail_z(0, 2000, q) == 0.0
    assert binomial_tail_z(1, 2000, q) < 3.0
    assert binomial_tail_z(20, 2000, q) > 3.0
    assert binomial_tail_z(1, 2000, 0.0) == math.inf
    for k, n, prob in ((1, 2000, q), (1100, 2000, 0.5), (3, 50, 0.2), (40, 50, 0.2)):
        tail = min(stats.binom.cdf(k, n, prob), stats.binom.sf(k - 1, n, prob), 0.5)
        assert binomial_tail_z(k, n, prob) == pytest.approx(
            -stats.norm.ppf(tail), rel=1e-9, abs=1e-12
        )


def test_survival_estimate_near_time_zero(desk_params):
    # essentially no jump (let alone a coset-moving one) lands before t=1e-3
    cfg = SimConfig(
        landscape=desk_params, horizon=0.5, max_paths=5_000, seed=8, j_max=8
    )
    est = survival_estimates(run_paths(cfg, query_times=(1e-3,)))[0]
    assert est.estimate > 0.999


def test_stderr_scaling(desk_params):
    def stderr_at(paths):
        cfg = SimConfig(
            landscape=desk_params, horizon=1.0, max_paths=paths, seed=4, j_max=8
        )
        return survival_estimates(run_paths(cfg, query_times=(1.0,)))[0].stderr

    ratio = stderr_at(4_000) / stderr_at(16_000)
    assert ratio == pytest.approx(2.0, rel=0.2)


def test_one_jump_law_matches_radial_kernel(desk_params):
    # one jump from the identity: stays with mass 1 - C; lands on a given
    # coset of norm p^j with mass J(p^j)
    space = desk_params.space
    table = JumpNormTable.build(desk_params, j_max=8)
    cfg = SimConfig(
        landscape=desk_params, horizon=1.0, max_paths=1, seed=11, j_max=8
    )
    rng = split_stream(2024, 0)
    n_draws = 100_000
    depth = 2
    counts: dict = {}
    from ultradiff.padic import sample_uniform_sphere_coset

    for _ in range(n_draws):
        j = sample_jump_norm(table, rng)
        if j < 1:
            key = "stay"
        elif j > depth:
            key = "far"
        else:
            key = sample_uniform_sphere_coset(space, j, rng).to_residues(depth)
        counts[key] = counts.get(key, 0) + 1
    probs = {"stay": 1.0 - exterior_mass(desk_params)}
    far = exterior_mass(desk_params)
    # each coset of norm p^j inside the depth window carries mass J(p^j)
    for a in range(1, 2**depth):
        v = 0
        b = a
        while b % 2 == 0:
            b //= 2
            v += 1
        probs[(a,)] = desk_params.value_at(depth - v)
        far -= probs[(a,)]
    probs["far"] = far
    keys = list(probs)
    expected = np.array([probs[k] * n_draws for k in keys])
    observed = np.array([counts.get(k, 0) for k in keys], dtype=float)
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert chi2 < stats.chi2.ppf(0.99, len(keys) - 1)


def test_marginal_norm_law_total_variation(desk_batch, desk_state):
    # occupancy by norm at t = 1 vs the analytic profile
    space = desk_state.space
    col = desk_batch.query_times.index(1.0)
    n = desk_batch.norm_at.shape[0]
    counts = np.bincount(desk_batch.norm_at[:, col], minlength=10)[:10]
    expected = np.array(
        [survival(desk_state, 1.0)]
        + [u_profile(desk_state, i, 1.0) * sphere_volume(space, i) for i in range(1, 10)]
    )
    emp = counts / n
    tv = 0.5 * float(np.abs(emp - expected).sum())
    noise_floor = 0.5 * float(
        np.sqrt(np.maximum(expected * (1 - expected), 0.0) / n).sum()
    )
    assert tv <= 3.0 * noise_floor


def test_fpt_estimate_vs_volterra(desk_batch, desk_state):
    import ultradiff.fpt as fpt

    h = 0.01
    ts = np.arange(0.0, 4.0 + h / 2, h)
    grid = fpt.solve_volterra(fpt.g_grid(desk_state, ts), h)
    p_mc, se = fpt_cdf_estimate(desk_batch, 4.0)
    assert abs(p_mc - grid.integral_f(4.0)) <= 3.0 * se + 10.0 * h * h


# ---------------------------------------------------------------------------
# nesting and parallel determinism
# ---------------------------------------------------------------------------


def test_nested_horizons_share_prefixes(desk_params):
    k = dict(landscape=desk_params, max_paths=3_000, seed=99, j_max=8)
    b2 = run_paths(SimConfig(horizon=2.0, **k), query_times=(0.5, 2.0))
    b4 = run_paths(SimConfig(horizon=4.0, **k), query_times=(0.5, 2.0))
    assert np.array_equal(b2.inside_at, b4.inside_at)
    taus2 = b2.tau[~np.isnan(b2.tau)]
    taus4 = b4.tau[~np.isnan(b4.tau) & (b4.tau <= 2.0)]
    assert np.array_equal(np.sort(taus2), np.sort(taus4))
    # and censoring probability is monotone in the horizon
    assert fpt_cdf_estimate(b2, 2.0)[0] <= fpt_cdf_estimate(b4, 4.0)[0]


def test_worker_count_invariance(desk_params):
    cfg = SimConfig(
        landscape=desk_params, horizon=2.0, max_paths=2_000, seed=5, j_max=8
    )
    b1 = run_paths(cfg, query_times=(1.0,), workers=1)
    b3 = run_paths(cfg, query_times=(1.0,), workers=3)
    assert np.array_equal(b1.inside_at, b3.inside_at)
    assert np.allclose(b1.tau, b3.tau, equal_nan=True)
    assert np.array_equal(b1.n_jumps, b3.n_jumps)
