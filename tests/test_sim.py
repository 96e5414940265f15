"""Exact-simulation contracts: law of the jumps, reproducibility, nesting,
and statistical agreement with the analytic semigroup.

Fixed seeds everywhere; the chi-square and 3-sigma tests are calibrated to
pass with the chosen seeds (and would flag genuine distributional bugs).
"""

import bisect
import hashlib
import itertools
import math
from collections import Counter
from concurrent.futures import Future
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from conftest import at
import ultradiff.fpt as fpt
import ultradiff.sim as sim_module
from ultradiff.cli import binomial_tail_z, mc_agreement
from ultradiff.errors import ConfigError
from ultradiff.heat import HeatState, norm_chain, survival, u_table
from ultradiff.landscape import exterior_mass, normalize
from ultradiff.padic import (
    CosetPoint,
    SpaceParams,
    coset_add,
    sphere_volume,
    split_stream,
)
from ultradiff.sim import (
    JumpNormTable,
    SimConfig,
    fpt_cdf_estimate,
    moving_norms,
    run_paths,
    survival_estimates,
)

#: sha256 over the bytes of run_paths' tau (float64), exited (bool),
#: norm_at (int16) and n_jumps (int64) for 2000 paths, seed 20240810,
#: horizon 4, query times (0.5, 1, 2), under the protocol norm-chain-v2.
#: The scalar walk below reads the same split_stream, so it cannot see a
#: change to the stream itself; these digests can.
PROTOCOL_DIGESTS = {
    (2, 1, -0.5, 1.0, 8): "ac7344ed3f8de9d3e67127f37332edd7b3b45e45024134e0d8ffa850da012823",
    (3, 1, -0.5, 1.0, 40): "f639d718468f782cee43c05deb67bc235c7db8ab24abcac2c0957a1b38dcc437",
    (3, 2, -1.0, 0.2, 4): "d4db3550a53368af48e7d23aefd9813772a5ac6268e9e869b89faa2948e5d777",
    (2, 2, 0.5, 0.2, 7): "4ec6f49a16b6d32595c5d48d9ff604a12512db5b10a6a18e5bc484b017401638",
}


def _uniforms(stream_seed: int, size: int) -> np.ndarray:
    """u = (w >> 11) 2^-53 over the first words of one split stream."""
    words = split_stream(stream_seed, 0).bit_generator.random_raw(size)
    return (words >> 11).astype(np.float64) * 2.0**-53


def _chi2_pooled(probs, counts, total):
    """(chi-square, degrees of freedom) after pooling bins, in the given
    order, until every expectation is at least 10 counts."""
    pooled_probs, pooled_counts = [], []
    acc_p, acc_c = 0.0, 0
    for prob, count in zip(probs, counts):
        acc_p += prob
        acc_c += int(count)
        if acc_p * total >= 10:
            pooled_probs.append(acc_p)
            pooled_counts.append(acc_c)
            acc_p, acc_c = 0.0, 0
    pooled_probs[-1] += acc_p
    pooled_counts[-1] += acc_c
    expected = np.array(pooled_probs) * total
    chi2 = float(((np.array(pooled_counts) - expected) ** 2 / expected).sum())
    return chi2, len(expected) - 1


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
    # the norm of a coset-moving jump follows the table restricted to j >= 1
    table = JumpNormTable.build(desk_params, j_max=8)
    draws = moving_norms(table, _uniforms(777, 100_000))
    js = table.js[table.js >= 1][::-1]  # largest exponents first
    probs = table.probs[table.js >= 1][::-1] / (1.0 - table.prob_nonmoving)
    chi2, dof = _chi2_pooled(probs, [np.sum(draws == j) for j in js], len(draws))
    assert chi2 < stats.chi2.ppf(0.99, dof)


@pytest.mark.parametrize(
    "p, n, gamma, c1, j_max",
    [(2, 1, -0.5, 1.0, 8), (3, 2, -1.0, 0.2, 4), (2, 2, -1.9, 5.0, 3)],
)
def test_jump_norm_matches_searchsorted(p, n, gamma, c1, j_max):
    # the reference is bisect_right on the moving CDF clamped to the last
    # entry. Every CDF entry, its two float neighbours and values at or
    # past the top (the clamp) must give the same exponent.
    table = JumpNormTable.build(normalize(SpaceParams(p, n), gamma, c1), j_max)
    cdf = table.moving_cdf.tolist()
    assert cdf[-1] == 1.0 and table.js[-1] == table.j_max == j_max
    us = np.concatenate(
        (
            [0.0, 1.0, np.nextafter(1.0, 0.0), 2.0],
            cdf,
            np.nextafter(cdf, -np.inf),
            np.nextafter(cdf, np.inf),
        )
    )
    got = moving_norms(table, us)
    assert got.dtype == np.int64
    for u, j in zip(us, got):
        idx = min(bisect.bisect_right(cdf, u), len(cdf) - 1)
        assert j == j_max - len(cdf) + 1 + idx, u


def test_config_validation_messages(desk_params):
    with pytest.raises(ConfigError, match="horizon"):
        SimConfig(landscape=desk_params, horizon=0.0, max_paths=10, seed=1, j_max=8)
    with pytest.raises(ConfigError, match="j_max"):
        SimConfig(
            landscape=desk_params, horizon=1.0, max_paths=10, seed=1, j_max=70
        )


# ---------------------------------------------------------------------------
# the simulator against a scalar reading of the randomness protocol
# ---------------------------------------------------------------------------


def _scalar_walk(sim: SimConfig, index: int, query_times):
    """(tau, exited, norm at each query time, moving jumps) of one path, read
    word by word as the sim docstring's protocol says: round m takes the
    index-th 4-word block of split_stream(seed, m)."""
    p, n = sim.landscape.space.p, sim.landscape.space.n
    rate, cdf = 1.0 - sim.table.prob_nonmoving, sim.table.moving_cdf.tolist()
    t, a, tau, jumps, movers = 0.0, 0, math.nan, 0, []
    while True:
        rng = split_stream(sim.seed, jumps).bit_generator.advance(index)
        k = [int(w) >> 11 for w in rng.random_raw(4)]  # u = k / 2^53
        # numpy's log1p, as in run_paths: math.log1p differs in the last bit
        t += -np.log1p(-k[0] * 2.0**-53) / rate
        if t > sim.horizon:
            break
        jumps += 1
        j = sim.j_max - len(cdf) + 1 + min(
            bisect.bisect_right(cdf, k[1] * 2.0**-53), len(cdf) - 1
        )
        if j != a:
            a = max(a, j)
        else:
            u = Fraction(k[2], 2**53)
            a -= sum(u < Fraction(1, (p**n - 1) * p ** (n * d)) for d in range(a))
        movers.append((t, a))
        if a == 0 and math.isnan(tau):
            tau = t
    norms = [([0] + [b for s, b in movers if s <= q])[-1] for q in query_times]
    return tau, jumps > 0, norms, jumps


@pytest.mark.parametrize("p, n, gamma, c1, j_max", sorted(PROTOCOL_DIGESTS))
def test_run_paths_matches_scalar_walk(p, n, gamma, c1, j_max, monkeypatch):
    sim = SimConfig(
        landscape=normalize(SpaceParams(p=p, n=n), gamma, c1),
        horizon=4.0,
        max_paths=300,
        seed=20240810,
        j_max=j_max,
    )
    qts = (0.5, 1.0, 2.0, 4.0)
    batch = run_paths(sim, query_times=qts)
    # a block that starts past index 0 (one worker's share), cut by chunk
    # boundaries at 101, 165, ...
    monkeypatch.setattr(sim_module, "CHUNK_PATHS", 64)
    block = sim_module._run_block(sim, 37, 300, qts)
    taus, exits, norms, jumps = (
        np.array(col) for col in zip(*(_scalar_walk(sim, k, qts) for k in range(300)))
    )
    for got, lo in ((batch, 0), (block, 37)):
        assert np.array_equal(got.tau, taus[lo:], equal_nan=True)
        assert np.array_equal(got.exited, exits[lo:])
        assert np.array_equal(got.norm_at, norms[lo:])
        assert np.array_equal(got.n_jumps, jumps[lo:])
        assert np.array_equal(got.inside_at, got.norm_at == 0)
    returned = ~np.isnan(batch.tau)
    assert returned.any() and np.all(batch.exited[returned])
    assert np.all(batch.tau[returned] <= sim.horizon)


@pytest.mark.parametrize("p, n, a", [(2, 1, 3), (3, 1, 2), (2, 2, 2), (3, 2, 2)])
def test_landing_law_by_enumeration(p, n, a):
    # every coset y of norm p^j added to a fixed x of norm p^a: the norm of
    # x + y is p^max(a, j) for j != a, and for j = a it follows the law the
    # protocol's word 2 draws, exactly
    space = SpaceParams(p, n)
    x = CosetPoint.from_residues(space, [1] + [0] * (n - 1), a)
    assert x.norm_exponent() == a
    by_norm: dict = {}
    for res in itertools.product(range(p ** (a + 1)), repeat=n):
        y = CosetPoint.from_residues(space, res, a + 1)
        if not y.is_zero():
            s = coset_add(x, y)
            by_norm.setdefault(y.depth, []).append(0 if s.is_zero() else s.depth)
    for j, landed in by_norm.items():
        if j != a:
            assert set(landed) == {max(a, j)}
    tally = Counter(by_norm[a])
    total = len(by_norm[a])
    assert total == p ** (a * n) - p ** ((a - 1) * n)
    pn = p**n
    assert Fraction(tally[a], total) == Fraction(pn - 2, pn - 1)
    drop = sim_module._drop_thresholds(p, n, a)[::-1]  # d = 0 .. a-1
    for k in range(a):
        below = Fraction(sum(tally[b] for b in range(k + 1)), total)
        # P(b <= k) = p^(n(k - a + 1)) / (p^n - 1)
        assert below == Fraction(1, (pn - 1) * p ** (n * (a - k - 1)))
        # the sampler's P(b <= k) = P(c >= a - k) is that law, rounded up to
        # the 2^-53 grid of u
        sampled = Fraction(int(drop[a - k - 1]), 2**53)
        assert 0 <= sampled - below < Fraction(1, 2**53)


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
    # coset-moving jumps are Poisson of rate C: E[N(T)] = C T, and the sd
    # of the mean is sqrt(C T / paths)
    ct = exterior_mass(desk_sim.landscape) * desk_sim.horizon
    mean = float(desk_batch.n_jumps.mean())
    assert abs(mean - ct) <= 3.0 * math.sqrt(ct / desk_sim.max_paths)


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


@pytest.mark.parametrize(
    "p, n, gamma, c1, j_max", [(2, 1, -0.5, 1.0, 8), (3, 2, -1.0, 0.2, 4)]
)
def test_norm_law_matches_norm_chain(p, n, gamma, c1, j_max):
    # the sampled chain against the analytic one: the norm at t of paths
    # started in Z_p^n follows row 0 of the lumped transition matrix
    params = normalize(SpaceParams(p, n), gamma, c1)
    sim = SimConfig(
        landscape=params, horizon=2.0, max_paths=20_000, seed=20240810, j_max=j_max
    )
    batch = run_paths(sim, query_times=(0.5, 2.0))
    state = HeatState(params)
    for col, t in enumerate(batch.query_times):
        row = norm_chain(state, t, j_max)[0]
        row[-1] += 1.0 - row.sum()  # mass past B_j_max: below 1e-12
        counts = np.bincount(batch.norm_at[:, col], minlength=j_max + 1)
        chi2, dof = _chi2_pooled(row[::-1], counts[::-1], sim.max_paths)
        assert chi2 < stats.chi2.ppf(0.99, dof), t


def test_marginal_norm_law_total_variation(desk_batch, desk_state):
    # occupancy by norm at t = 1 vs the analytic profile
    space = desk_state.space
    col = desk_batch.query_times.index(1.0)
    n = desk_batch.norm_at.shape[0]
    counts = np.bincount(desk_batch.norm_at[:, col], minlength=10)[:10]
    expected = np.array(
        [survival(desk_state, 1.0)]
        + [at(u_table, desk_state, i, 1.0) * sphere_volume(space, i) for i in range(1, 10)]
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


def test_verify_mc_false_alarm_rate(desk_params, desk_state):
    # verify's Monte Carlo checks at the desk config (horizon 10, T = 10,
    # h = 0.01) with 2000 paths, over 200 seeds: each of the four two-sided
    # tails (survival at 0.5, 1, 2 and the first-passage triangle) alarms
    # past z = 3 with probability at most 2 Phi(-3) on a correct sampler,
    # so by the union bound a seed alarms with probability at most 8 Phi(-3)
    h, horizon, times = 0.01, 10.0, (0.5, 1.0, 2.0)
    table = JumpNormTable.build(desk_params, j_max=8)
    grid = fpt.solve_volterra(
        fpt.g_grid(desk_state, np.arange(0.0, horizon + h / 2, h)), h
    )
    integral = grid.integral_f(horizon)
    s_exact = [survival(desk_state, t) for t in times]
    alarms = 0
    for seed in range(200):
        cfg = SimConfig(
            landscape=desk_params,
            horizon=horizon,
            max_paths=2000,
            seed=seed,
            j_max=8,
            table=table,
        )
        batch = run_paths(cfg, query_times=times)
        z_survival, z_triangle, _ = mc_agreement(
            batch, s_exact, horizon, integral, 10.0 * h * h
        )
        alarms += max(z_survival, z_triangle) > 3.0
    assert alarms <= stats.binom.ppf(0.999, 200, 8 * stats.norm.sf(3.0))


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
