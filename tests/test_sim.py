"""Exact-simulation contracts: law of the jumps, reproducibility, nesting,
and statistical agreement with the analytic semigroup.

Fixed seeds everywhere; the chi-square and 3-sigma tests are calibrated to
pass with the chosen seeds (and would flag genuine distributional bugs).
"""

import bisect
import concurrent.futures
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from conftest import at
from oracles import CosetPoint, coset_add
import ultradiff.fpt as fpt
import ultradiff.sim as sim_module
from ultradiff.cli import binomial_tail_z, mc_agreement
from ultradiff.errors import ConfigError
from ultradiff.heat import HeatState, norm_chain, survival, u_table
from ultradiff.landscape import exterior_mass, normalize
from ultradiff.padic import SpaceParams, sphere_volume, split_stream
from ultradiff.sim import (
    JumpNormTable,
    SimConfig,
    fpt_cdf_estimate,
    moving_norms,
    run_paths,
    survival_estimates,
)

ROOT = Path(__file__).resolve().parent.parent

#: sha256 over the bytes of run_paths' tau (float64), exited (bool),
#: norm_at (int16) and n_jumps (int64) for 2000 paths, seed 20240810,
#: horizon 4, query times (0.5, 1, 2), under the protocol norm-chain-v3.
#: The chunk walk below reads the same split_stream, so it cannot see a
#: change to the stream itself; these digests can.
PROTOCOL_DIGESTS = {
    (2, 1, -0.5, 1.0, 8): "2accf1e82eec7e657df1067988c95881b7ef1645d77e0c33d1fe3d0a8a9ffe76",
    (3, 1, -0.5, 1.0, 40): "25fb6c00c276ec89e2bd541bd127cde1c5d5b181623fac6df50e2eda0163d94c",
    (3, 2, -1.0, 0.2, 4): "65457934897f55baa1ae6a0b04c6eaab9dc3097acbc3e480c96086e9214da564",
    (2, 2, 0.5, 0.2, 7): "4016be50e6196b70a05a4c05cf2b5db939f1ab4ca85a40109a291cbb027466aa",
}


def _uniforms_of(words: np.ndarray) -> np.ndarray:
    """u = (w >> 11) 2^-53 of each word."""
    return (words >> 11).astype(np.float64) * 2.0**-53


def _uniforms(stream_seed: int, size: int) -> np.ndarray:
    """u over the first words of one split stream."""
    return _uniforms_of(split_stream(stream_seed, 0).bit_generator.random_raw(size))


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


def test_config_replace_keeps_the_jump_table(desk_params, monkeypatch):
    # verify's Monte Carlo reruns the config at its own path count
    sim = SimConfig(landscape=desk_params, horizon=1.0, max_paths=10, seed=1, j_max=8)
    builds = []
    build = JumpNormTable.build.__func__
    monkeypatch.setattr(
        JumpNormTable, "build", classmethod(lambda cls, *a: builds.append(a) or build(cls, *a))
    )
    more = sim._replace(max_paths=500)
    assert more.table is sim.table and builds == []
    assert (more.max_paths, more.horizon, more.seed) == (500, 1.0, 1)
    # a new j_max needs its own table, and is validated again
    deeper = sim._replace(j_max=9)
    assert builds == [(desk_params, 9)] and deeper.table.j_max == 9
    with pytest.raises(ConfigError, match="horizon"):
        sim._replace(horizon=-1.0)


# ---------------------------------------------------------------------------
# the simulator against a path-by-path reading of the randomness protocol
# ---------------------------------------------------------------------------


def _chunk_walk(sim: SimConfig, stop: int, query_times, chunk: int):
    """(tau, exited, norm at each query time, moving jumps) of paths
    0 .. stop-1, read path by path and word by word as the sim docstring's
    protocol says: in round m, the k-th still-live path of the chunk that
    starts at path s takes the (s + k)-th 4-word block of
    split_stream(seed, m)."""
    p, n = sim.landscape.space.p, sim.landscape.space.n
    rate, cdf = 1.0 - sim.table.prob_nonmoving, sim.table.moving_cdf.tolist()
    walks = []
    for s in range(0, stop, chunk):
        # per path: clock, norm exponent, tau and its (time, landing) moves
        paths = [[0.0, 0, math.nan, []] for _ in range(s, min(s + chunk, stop))]
        live, m = paths, 0
        while live:
            still = []
            for k, path in enumerate(live):
                rng = split_stream(sim.seed, m).bit_generator.advance(s + k)
                w = [int(x) >> 11 for x in rng.random_raw(4)]  # u = w / 2^53
                # numpy's log1p, as in run_paths: math.log1p differs in the last bit
                t = path[0] + -np.log1p(-w[0] * 2.0**-53) / rate
                if t > sim.horizon:
                    continue
                j = sim.j_max - len(cdf) + 1 + min(
                    bisect.bisect_right(cdf, w[1] * 2.0**-53), len(cdf) - 1
                )
                a = path[1]
                if j != a:
                    a = max(a, j)
                else:
                    u = Fraction(w[2], 2**53)
                    a -= sum(u < Fraction(1, (p**n - 1) * p ** (n * d)) for d in range(a))
                path[:2] = t, a
                path[3].append((t, a))
                if a == 0 and math.isnan(path[2]):
                    path[2] = t
                still.append(path)
            live, m = still, m + 1
        for _, _, tau, moves in paths:
            norms = [([0] + [b for t, b in moves if t <= q])[-1] for q in query_times]
            walks.append((tau, bool(moves), norms, len(moves)))
    return walks


#: Query-time sets for the chunk-walk oracle; None stands for times equal
#: to jump times, read from a first batch's finite tau.
QUERY_SETS = {
    "sorted": (0.5, 1.0, 2.0, 4.0),
    "unsorted": (2.0, 0.5, 4.0, 1.0, 0.25),
    "duplicated": (1.0, 0.5, 1.0, 2.0, 0.5),
    "empty": (),
    "jump_times": None,
}


@pytest.mark.parametrize(
    "p, n, gamma, c1, j_max, qset",
    [
        # the sorted set keeps the bare point as its id
        pytest.param(
            *point,
            qset,
            id="-".join(map(str, point)) + ("" if qset == "sorted" else f"-{qset}"),
        )
        for point in sorted(PROTOCOL_DIGESTS)
        for qset in QUERY_SETS
    ],
)
def test_run_paths_matches_scalar_walk(p, n, gamma, c1, j_max, qset, monkeypatch):
    sim = SimConfig(
        landscape=normalize(SpaceParams(p=p, n=n), gamma, c1),
        horizon=4.0,
        max_paths=300,
        seed=20240810,
        j_max=j_max,
    )
    # five chunks of 64 paths, a block that starts past index 0 (one
    # worker's share, on a chunk boundary), and one chunk of all 300
    whole_chunk = sim_module.CHUNK_PATHS
    monkeypatch.setattr(sim_module, "CHUNK_PATHS", 64)
    qts = QUERY_SETS[qset]
    if qts is None:
        # in path order, so unsorted; the inclusive edge t <= q is exercised
        # at every one of them
        taus = run_paths(sim).tau
        hit = np.flatnonzero(~np.isnan(taus))[:6]
        qts = tuple(taus[hit].tolist())
    batch = run_paths(sim, query_times=qts)
    if qset == "jump_times":
        # a path is inside Z_p^n at the instant of its first return
        assert len(qts) > 1 and batch.inside_at[hit, np.arange(hit.size)].all()
    runs = [(batch, 0, 64), (sim_module._run_block(sim, 64, 300, qts), 64, 64)]
    monkeypatch.setattr(sim_module, "CHUNK_PATHS", whole_chunk)
    runs.append((run_paths(sim, query_times=qts), 0, whole_chunk))
    walks = {chunk: _chunk_walk(sim, 300, qts, chunk) for chunk in (64, whole_chunk)}
    for got, lo, chunk in runs:
        taus, exits, norms, jumps = (np.array(col) for col in zip(*walks[chunk]))
        assert np.array_equal(got.tau, taus[lo:], equal_nan=True)
        assert np.array_equal(got.exited, exits[lo:])
        assert np.array_equal(got.norm_at, norms[lo:])
        assert np.array_equal(got.n_jumps, jumps[lo:])
        assert np.array_equal(got.inside_at, got.norm_at == 0)
    returned = ~np.isnan(batch.tau)
    assert returned.any() and np.all(batch.exited[returned])
    assert np.all(batch.tau[returned] <= sim.horizon)


def test_run_paths_draws_philox_words_for_live_paths_only(desk_params, monkeypatch):
    # the desk simulate run: 20 000 paths to horizon 10 in three chunks. A
    # path is live in rounds 0 .. n_jumps (the last wait passes the
    # horizon), so the blocks read are paths + jumps, and each chunk-round
    # makes one random_raw call of 4 words per live path
    calls = []

    class CountingPhilox(np.random.Philox):
        def random_raw(self, size=None, output=True):
            calls.append(size)
            return super().random_raw(size, output)

    monkeypatch.setattr(np.random, "Philox", CountingPhilox)
    sim = SimConfig(
        landscape=desk_params, horizon=10.0, max_paths=20_000, seed=20240810, j_max=8
    )
    batch = run_paths(sim, query_times=(0.1, 0.5, 1.0, 2.0, 5.0))
    assert sum(calls) == 4 * (sim.max_paths + int(batch.n_jumps.sum()))
    step = sim_module.CHUNK_PATHS
    chunks = np.split(batch.n_jumps, np.arange(step, sim.max_paths, step))
    assert len(calls) == sum(int(c.max()) + 1 for c in chunks)


def test_block_start_must_be_a_chunk_boundary(desk_sim, monkeypatch):
    # live ranks are counted from a chunk's first path
    monkeypatch.setattr(sim_module, "CHUNK_PATHS", 64)
    with pytest.raises(ValueError, match="not a multiple of CHUNK_PATHS"):
        sim_module._run_block(desk_sim, 37, 300, ())
    assert sim_module._run_block(desk_sim, 128, 300, ()).tau.size == 172


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


def test_run_paths_draws_no_os_entropy(desk_sim, monkeypatch):
    # every stream is keyed by the seed alone; Philox(key=...) would still
    # seed a SeedSequence() from OS entropy first, then discard it
    def urandom(size):
        raise AssertionError(f"OS entropy drawn ({size} bytes)")

    monkeypatch.setattr(random, "_urandom", urandom)
    monkeypatch.setattr(os, "urandom", urandom)
    batch = run_paths(desk_sim._replace(max_paths=500), query_times=(1.0,))
    assert batch.n_jumps.sum() > 0


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

    mixture = fpt.first_passage_mixture(desk_state, 4.0)
    p_mc, se = fpt_cdf_estimate(desk_batch, 4.0)
    assert abs(p_mc - mixture.cdf()) <= 3.0 * se + mixture.bound


def test_verify_mc_false_alarm_rate(desk_params, desk_state):
    # verify's Monte Carlo checks at the desk config (horizon 10, T = 10)
    # with 2000 paths, over 200 seeds: each of the four two-sided tails
    # (survival at 0.5, 1, 2 and the triangle against the mixture's
    # P(tau <= T) within its bound) alarms past z = 3 with probability at
    # most 2 Phi(-3) on a correct sampler, so by the union bound a seed
    # alarms with probability at most 8 Phi(-3)
    horizon, times = 10.0, (0.5, 1.0, 2.0)
    table = JumpNormTable.build(desk_params, j_max=8)
    mixture = fpt.first_passage_mixture(desk_state, horizon)
    target = mixture.cdf()
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
            batch, s_exact, horizon, target, mixture.bound
        )
        alarms += max(z_survival, z_triangle) > 3.0
    assert alarms <= stats.binom.ppf(0.999, 200, 8 * stats.norm.sf(3.0))


# ---------------------------------------------------------------------------
# nesting and parallel determinism
# ---------------------------------------------------------------------------


def test_nested_horizons_share_prefixes(desk_params, monkeypatch):
    # under norm-chain-v3 a round's blocks go to the live paths of a chunk
    # by rank, so nested horizons share every path's first jump (round 0
    # reads block i at any horizon) and, whole, each chunk's first path
    # (rank 0 in every round it lives); the later jumps of other paths
    # depend on which chunk-mates are still live
    monkeypatch.setattr(sim_module, "CHUNK_PATHS", 8)
    k = dict(landscape=desk_params, max_paths=3_000, seed=99, j_max=8)
    table = JumpNormTable.build(desk_params, j_max=8)
    words = split_stream(99, 0).bit_generator.random_raw(4 * 3_000).reshape(-1, 4)
    first_t = -np.log1p(-_uniforms_of(words[:, 0])) / (1.0 - table.prob_nonmoving)
    # from Z_p^n a moving jump of norm exponent j lands on j >= 1
    first_norm = moving_norms(table, _uniforms_of(words[:, 1]))
    heads, qts = np.arange(0, 3_000, 8), (0.5, 2.0, 4.0, 8.0)
    batches = {}
    for horizon in (2.0, 4.0, 8.0):
        cfg = SimConfig(horizon=horizon, **k)
        batch = batches[horizon] = run_paths(cfg, query_times=qts)
        assert np.array_equal(batch.exited, first_t <= horizon)
        # the last query time is at or past the horizon
        one = batch.n_jumps == 1
        assert one.any() and np.array_equal(batch.norm_at[one, -1], first_norm[one])
        # a rerun at the same horizon is bit-identical
        again = run_paths(cfg, query_times=qts)
        assert np.array_equal(again.tau, batch.tau, equal_nan=True)
        assert np.array_equal(again.norm_at, batch.norm_at)
        assert np.array_equal(again.n_jumps, batch.n_jumps)
    for short, long in itertools.combinations(batches, 2):
        head_short, head_long = batches[short].tau[heads], batches[long].tau[heads]
        seen = head_long <= short
        assert np.array_equal(seen, ~np.isnan(head_short))
        assert np.array_equal(head_long[seen], head_short[seen])
        cells = np.ix_(heads, np.array(qts) <= short)
        assert np.array_equal(batches[long].norm_at[cells], batches[short].norm_at[cells])
    # chunks of 8 give 375 heads, and 10 of them return by t = 4
    assert seen.sum() >= 3


def test_cli_import_leaves_process_pool_unloaded():
    # run_paths imports the pool only when it fans out to several workers
    code = (
        "import sys, ultradiff.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_worker_fan_out_capped_at_cpu_count(desk_params, monkeypatch):
    # a pool that records its size and blocks and runs them inline: no
    # process. 50 paths in chunks of 16 make four chunks to fan out
    sizes, blocks = [], []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            blocks.append(args[1:3])
            done = concurrent.futures.Future()
            done.set_result(fn(*args))
            return done

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(sim_module, "CHUNK_PATHS", 16)
    cfg = SimConfig(landscape=desk_params, horizon=2.0, max_paths=50, seed=5, j_max=8)
    serial = run_paths(cfg, query_times=(1.0,))
    for cpus, expected, cuts in (
        (2, [2], [(0, 32), (32, 50)]),
        # no more workers than chunks
        (8, [4], [(0, 16), (16, 32), (32, 48), (48, 50)]),
        (1, [], []),
    ):
        sizes.clear()
        blocks.clear()
        monkeypatch.setattr(sim_module.os, "cpu_count", lambda: cpus)
        batch = run_paths(cfg, query_times=(1.0,), workers=5000)
        assert sizes == expected and blocks == cuts
        assert np.array_equal(batch.norm_at, serial.norm_at)
        assert np.array_equal(batch.tau, serial.tau, equal_nan=True)


def test_worker_count_invariance(desk_params, monkeypatch):
    # 32 chunks of 64 paths over three worker processes, cut at chunk
    # boundaries 640 and 1344; the workers are forked, so they see the
    # patched chunk size (a worker that did not would reject its start)
    monkeypatch.setattr(sim_module, "CHUNK_PATHS", 64)
    monkeypatch.setattr(sim_module.os, "cpu_count", lambda: 3)
    cfg = SimConfig(
        landscape=desk_params, horizon=2.0, max_paths=2_000, seed=5, j_max=8
    )
    b1 = run_paths(cfg, query_times=(1.0,), workers=1)
    b3 = run_paths(cfg, query_times=(1.0,), workers=3)
    assert np.array_equal(b1.inside_at, b3.inside_at)
    assert np.array_equal(b1.tau, b3.tau, equal_nan=True)
    assert np.array_equal(b1.n_jumps, b3.n_jumps)
