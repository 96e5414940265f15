"""Exact-simulation contracts: law of the jumps, reproducibility, nesting,
and statistical agreement with the analytic semigroup.

Fixed seeds everywhere; the chi-square and 3-sigma tests are calibrated to
pass with the chosen seeds (and would flag genuine distributional bugs).
"""

import hashlib
import math
from concurrent.futures import Future

import numpy as np
import pytest
from scipy import stats

from ultradiff.cli import binomial_tail_z
from ultradiff.errors import ConfigError
from ultradiff.heat import survival, u_profile
from ultradiff.landscape import exterior_mass, normalize
from ultradiff.padic import (
    CosetPoint,
    SpaceParams,
    coset_add,
    sample_uniform_sphere_coset,
    sphere_volume,
    split_stream,
)
from ultradiff.sim import (
    JumpNormTable,
    SimConfig,
    fpt_cdf_estimate,
    run_paths,
    sample_jump_norm,
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
    draws = np.array([sample_jump_norm(table, rng) for _ in range(100_000)])
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


class _FixedUniform:
    """A stand-in generator whose ``random()`` returns a chosen value."""

    def __init__(self, u):
        self.u = float(u)

    def random(self):
        return self.u


@pytest.mark.parametrize(
    "p, n, gamma, c1, j_max",
    [(2, 1, -0.5, 1.0, 8), (3, 2, -1.0, 0.2, 4), (2, 2, -1.9, 5.0, 3)],
)
def test_jump_norm_matches_searchsorted(p, n, gamma, c1, j_max):
    # the draw bisects the CDF list; the reference is
    # np.searchsorted(side="right") clamped to the last entry. Every CDF
    # entry, its two float neighbours and values at or past the top (the
    # clamp) must give the same exponent.
    table = JumpNormTable.build(normalize(SpaceParams(p, n), gamma, c1), j_max)
    cdf = table.cdf
    us = np.concatenate(
        (
            [0.0, 1.0, np.nextafter(1.0, 0.0), 2.0],
            cdf,
            np.nextafter(cdf, -np.inf),
            np.nextafter(cdf, np.inf),
        )
    )
    assert us.max() >= cdf[-1]
    for u in us:
        idx = min(int(np.searchsorted(cdf, u, side="right")), len(cdf) - 1)
        j = sample_jump_norm(table, _FixedUniform(u))
        assert type(j) is int
        assert j == int(table.js[idx]), u


def test_config_validation_messages(desk_params):
    with pytest.raises(ConfigError, match="horizon"):
        SimConfig(landscape=desk_params, horizon=0.0, max_paths=10, seed=1, j_max=8)
    with pytest.raises(ConfigError, match="j_max"):
        SimConfig(
            landscape=desk_params, horizon=1.0, max_paths=10, seed=1, j_max=70
        )


# ---------------------------------------------------------------------------
# the simulator against a walk on coset digits
# ---------------------------------------------------------------------------


def _digit_walk(sim: SimConfig, index: int, query_times):
    """(tau, exited, norm at each query time) of one path, by the protocol of
    the sim docstring with each moving jump a :class:`CosetPoint` drawn by
    ``sample_uniform_sphere_coset`` and added digit by digit."""
    space = sim.landscape.space
    rng = split_stream(sim.seed, index)
    pos = CosetPoint.zero(space)
    t, tau, exited, movers = 0.0, math.nan, False, []
    while True:
        t += rng.standard_exponential()
        if t > sim.horizon:
            break
        j = sample_jump_norm(sim.table, rng)
        if j < 1:
            continue
        pos = coset_add(pos, sample_uniform_sphere_coset(space, j, rng))
        movers.append((t, 0 if pos.is_zero() else pos.depth))
        if not pos.is_zero():
            exited = True
        elif exited and math.isnan(tau):
            tau = t
    norms = [
        ([0] + [norm for s, norm in movers if s <= q])[-1] for q in query_times
    ]
    return tau, exited, norms


@pytest.mark.parametrize(
    "p, n, gamma, c1, j_max",
    [
        (2, 1, -0.5, 1.0, 8),
        (3, 1, -0.5, 1.0, 40),  # residues mod 3^40 exceed 2^62
        (3, 2, -1.0, 0.2, 4),
        (2, 2, 0.5, 0.2, 7),
    ],
)
def test_run_paths_matches_digit_walk(p, n, gamma, c1, j_max):
    sim = SimConfig(
        landscape=normalize(SpaceParams(p=p, n=n), gamma, c1),
        horizon=4.0,
        max_paths=300,
        seed=20240810,
        j_max=j_max,
    )
    qts = (0.5, 1.0, 2.0, 4.0)
    batch = run_paths(sim, query_times=qts)
    taus, exits, norms = zip(*(_digit_walk(sim, k, qts) for k in range(300)))
    assert np.array_equal(batch.tau, np.array(taus), equal_nan=True)
    assert np.array_equal(batch.exited, np.array(exits))
    assert np.array_equal(batch.norm_at, np.array(norms))
    assert np.array_equal(batch.inside_at, batch.norm_at == 0)
    returned = ~np.isnan(batch.tau)
    assert returned.any() and np.all(batch.exited[returned])
    assert np.all(batch.tau[returned] <= sim.horizon)


#: sha256 over the bytes of run_paths' tau (float64), exited (bool),
#: norm_at (int16) and n_jumps (int64) for 2000 paths, seed 20240810,
#: horizon 4, query times (0.5, 1, 2). The digit walk above draws from the
#: same split_stream, so it cannot see a change to the stream itself; these
#: digests can.
PROTOCOL_DIGESTS = {
    (2, 1, -0.5, 1.0, 8): "35e48bb213f4ccd15fb2d0433a6013c33c5b6d8f9b52a504438b6da589333edc",
    (3, 1, -0.5, 1.0, 40): "78b9f1e7b05d88a5ce312d51a092583bb599e408f48b91a21aaa7ad6be6d5680",
    (3, 2, -1.0, 0.2, 4): "c3fe6a52a08e9b8b02a6dba11ff8a6860bebe677395fce7133ea5306169b2d0c",
    (2, 2, 0.5, 0.2, 7): "dfe7b614e36c7d357944ead21a9cdb7873273f572c2688e821305034572ba9ff",
}


@pytest.mark.parametrize("point", sorted(PROTOCOL_DIGESTS))
def test_randomness_protocol_golden(point):
    p, n, gamma, c1, j_max = point
    sim = SimConfig(
        landscape=normalize(SpaceParams(p=p, n=n), gamma, c1),
        horizon=4.0,
        max_paths=2000,
        seed=20240810,
        j_max=j_max,
    )
    batch = run_paths(sim, query_times=(0.5, 1.0, 2.0))
    digest = hashlib.sha256()
    for arr, dtype in (
        (batch.tau, np.float64),
        (batch.exited, np.bool_),
        (batch.norm_at, np.int16),
        (batch.n_jumps, np.int64),
    ):
        assert arr.dtype == dtype
        digest.update(np.ascontiguousarray(arr).tobytes())
    assert digest.hexdigest() == PROTOCOL_DIGESTS[point]


def test_expected_jump_count(desk_batch, desk_sim):
    # unit-rate process: E[N(T)] = T, sd of the mean = sqrt(T/paths)
    mean = float(desk_batch.n_jumps.mean())
    sigma = math.sqrt(desk_sim.horizon / desk_sim.max_paths)
    assert abs(mean - desk_sim.horizon) <= 3.0 * sigma


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


def test_worker_fan_out_capped_at_cpu_count(desk_params, monkeypatch):
    # a pool that records its size and runs the blocks inline: no process
    import ultradiff.sim as sim_module

    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            done = Future()
            done.set_result(fn(*args))
            return done

    monkeypatch.setattr(sim_module, "ProcessPoolExecutor", InlinePool)
    cfg = SimConfig(landscape=desk_params, horizon=2.0, max_paths=50, seed=5, j_max=8)
    serial = run_paths(cfg, query_times=(1.0,))
    for cpus, expected in ((2, [2]), (1, [])):
        sizes.clear()
        monkeypatch.setattr(sim_module.os, "cpu_count", lambda: cpus)
        batch = run_paths(cfg, query_times=(1.0,), workers=5000)
        assert sizes == expected
        assert np.array_equal(batch.norm_at, serial.norm_at)
        assert np.array_equal(batch.tau, serial.tau, equal_nan=True)


def test_worker_count_invariance(desk_params):
    cfg = SimConfig(
        landscape=desk_params, horizon=2.0, max_paths=2_000, seed=5, j_max=8
    )
    b1 = run_paths(cfg, query_times=(1.0,), workers=1)
    b3 = run_paths(cfg, query_times=(1.0,), workers=3)
    assert np.array_equal(b1.inside_at, b3.inside_at)
    assert np.allclose(b1.tau, b3.tau, equal_nan=True)
    assert np.array_equal(b1.n_jumps, b3.n_jumps)
