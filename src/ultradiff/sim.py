"""Exact Monte Carlo of the coset norm chain on Q_p^n / Z_p^n.

The process behind du/dt = J*u - u jumps at unit rate with increments drawn
from the radial density J. Membership in Z_p^n depends only on the coset of
the position, and the coset's norm exponent is a Markov chain of its own
(strong lumpability; Kemeny & Snell 1960, §6.3) with transition matrix
:func:`~ultradiff.heat.norm_chain`, so simulating it is exact for survival
and first passage. Only coset-moving jumps (norm exponent j >= 1) are drawn;
they arrive at rate C = 1 - ``JumpNormTable.prob_nonmoving``. From norm
exponent a (0 is Z_p^n), a jump of exponent j != a lands at max(a, j); one
with j = a cancels the leading digits with probability 1/(p^n - 1), landing
uniformly on the ball of norm p^(a-1), and otherwise leaves the path at a.

Randomness protocol ``norm-chain-v3`` (stable; reproducibility contract):
path indices are cut into chunks of ``CHUNK_PATHS`` consecutive indices from
0, and round m is the m-th moving jump of each path of a chunk that is still
live (its clock has not passed the horizon). In round m, the k-th live path
of the chunk starting at index s, counted k = 0, 1, ... in index order,
reads block s + k of the Philox4x64 stream :func:`~ultradiff.padic.split_stream`
(seed, m): a round draws ``advance(s)``, then ``random_raw(4 * live)``, one
4-word block per live path and none for the others. Each word w gives
u = (w >> 11) 2^-53:

0. the wait -log1p(-u) / C; the path stops once its clock passes the horizon;
1. the norm exponent j by :func:`moving_norms`;
2. when j = a, the landing level max(a - c, 0), with c the number of
   d = 0, 1, ... such that u < 1 / ((p^n - 1) p^(nd)) in exact arithmetic:
   the path stays (c = 0) with probability (p^n - 2)/(p^n - 1), and else
   lands on b <= a - 1 with P(b <= k) = p^(n(k - a + 1));
3. unused.

Round 0 reads block i for path i, as ``norm-chain-v2`` did. A path's live
rank depends only on the live paths below it in its chunk, so its result
depends on the chunk it belongs to but not on the paths after it, and worker
blocks start on chunk boundaries: results are independent of the worker
count. What v3 gives up against v2: a round's draws depend on which
chunk-mates are still live, so runs with nested horizons and the same seed
share only their first jumps (v2 shared every path's prefix up to the
shorter horizon), and ``CHUNK_PATHS`` is part of the protocol. Estimators
reduce over paths associatively.
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError
from .landscape import LandscapeParams, jmass_tail, log_sphere_mass, sphere_masses_below
from .padic import DEFAULT_DEPTH_CAP, split_stream

#: Largest tolerated jump-norm mass beyond the table's upper edge.
TRUNCATION_TOLERANCE = 1e-12

#: The randomness protocol of this module, as recorded in run manifests.
RNG_PROTOCOL = "norm-chain-v3"

#: Paths advanced together in one round, at absolute path indices; part of
#: the randomness protocol (live ranks are counted within a chunk), and a
#: bound on a block's working memory.
CHUNK_PATHS = 8192


class JumpNormTable:
    """Law of the norm exponent of a J-distributed jump over the consecutive
    exponents j_min .. j_max (``js``), renormalized; the upper defect (mass
    beyond j_max) must be below TRUNCATION_TOLERANCE, and both defects are
    recorded. ``moving_cdf`` is the normalized running sum over j >= 1."""

    __slots__ = ("landscape", "j_min", "probs", "moving_cdf", "defect_low", "defect_high")

    def __init__(
        self,
        landscape: LandscapeParams,
        j_min: int,
        probs: np.ndarray,
        moving_cdf: np.ndarray,
        defect_low: float,
        defect_high: float,
    ):
        self.landscape, self.j_min, self.probs = landscape, j_min, probs
        self.moving_cdf, self.defect_low, self.defect_high = moving_cdf, defect_low, defect_high

    @classmethod
    def build(cls, landscape: LandscapeParams, j_max: int) -> "JumpNormTable":
        # mass beyond the cap: terms collapse double-exponentially
        defect_high = jmass_tail(landscape, j_max)
        # extend downward until the geometric lower tail is negligible
        top = math.exp(log_sphere_mass(landscape, j_max))
        lower = sphere_masses_below(landscape, j_max - 1, 1e-16, head=top)
        probs = np.concatenate((lower[::-1], [top]))
        defect_low = max(0.0, 1.0 - defect_high - float(probs.sum()))
        probs /= probs.sum()
        j_min = j_max - lower.size
        moving = np.cumsum(probs[max(1 - j_min, 0) :])
        return cls(
            landscape=landscape,
            j_min=j_min,
            probs=probs,
            moving_cdf=moving / moving[-1] if moving[-1] > 0 else moving,
            defect_low=defect_low,
            defect_high=defect_high,
        )

    @property
    def j_max(self) -> int:
        return self.j_min + len(self.probs) - 1

    @property
    def js(self) -> np.ndarray:
        """The exponents j_min .. j_max, aligned with ``probs``."""
        return np.arange(self.j_min, self.j_max + 1, dtype=np.int64)

    @property
    def prob_nonmoving(self) -> float:
        """P(norm exponent <= 0): jumps that do not move the coset."""
        return float(self.probs[self.js <= 0].sum())


def moving_norms(table: JumpNormTable, u: np.ndarray) -> np.ndarray:
    """Norm exponents of coset-moving jumps from uniforms u (protocol word 1):
    the first index whose ``moving_cdf`` entry exceeds u
    (``searchsorted(side="right")``), clamped to j_max."""
    cdf = table.moving_cdf
    idx = np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)
    return idx + (table.j_max - len(cdf) + 1)


def _uniforms(words: np.ndarray) -> np.ndarray:
    return (words >> 11).astype(np.float64) * 2.0**-53


def _drop_thresholds(p: int, n: int, depth: int) -> np.ndarray:
    """ceil(2^53 / ((p^n - 1) p^(nd))) for d = depth-1 .. 0 (ascending):
    w >> 11 is below the d-th exactly when u < 1 / ((p^n - 1) p^(nd))."""
    dens = [(p**n - 1) * p ** (n * d) for d in range(depth - 1, -1, -1)]
    return np.array([-(-(2**53) // den) for den in dens], dtype=np.uint64)


class SimConfig:
    """Monte Carlo run parameters; validated eagerly at construction. The
    jump table is built from (landscape, j_max) unless one is given."""

    __slots__ = ("landscape", "horizon", "max_paths", "seed", "j_max", "depth_cap", "table")

    def __init__(
        self,
        landscape: LandscapeParams,
        horizon: float,
        max_paths: int,
        seed: int,
        j_max: int,
        depth_cap: int = DEFAULT_DEPTH_CAP,
        table: JumpNormTable | None = None,
    ):
        if horizon <= 0:
            raise ConfigError(f"sim.horizon: must be > 0, got {horizon}")
        if max_paths < 1:
            raise ConfigError(f"sim.paths: must be >= 1, got {max_paths}")
        if not (0 <= seed < 2**64):
            raise ConfigError(f"sim.seed: must fit in 64 bits, got {seed}")
        if j_max < 1:
            raise ConfigError(f"sim.j_max: must be >= 1, got {j_max}")
        if j_max > depth_cap:
            raise ConfigError(f"sim.j_max: {j_max} exceeds the depth cap {depth_cap}")
        if table is None:
            table = JumpNormTable.build(landscape, j_max)
        if table.defect_high >= TRUNCATION_TOLERANCE:
            raise ConfigError(
                f"sim.j_max: truncated jump mass {table.defect_high:.3e} "
                f"beyond p^{j_max} is not below {TRUNCATION_TOLERANCE}"
            )
        self.landscape, self.horizon, self.max_paths = landscape, horizon, max_paths
        self.seed, self.j_max, self.depth_cap, self.table = seed, j_max, depth_cap, table

    def _replace(self, **changes) -> "SimConfig":
        """A copy with ``changes``, validated again, as ``NamedTuple._replace``
        makes one. It keeps this config's jump table unless the landscape or
        j_max changes."""
        fields = {name: getattr(self, name) for name in self.__slots__}
        if "landscape" in changes or "j_max" in changes:
            fields["table"] = None
        return SimConfig(**{**fields, **changes})


# ---------------------------------------------------------------------------
# Batch runner and estimators
# ---------------------------------------------------------------------------


class PathBatch:
    """Per-path summaries over a contiguous block of path indices."""

    __slots__ = ("query_times", "inside_at", "norm_at", "tau", "exited", "n_jumps")

    def __init__(
        self,
        query_times: tuple[float, ...],
        inside_at: np.ndarray,  # (paths, times) bool
        norm_at: np.ndarray,  # (paths, times) int16 norm exponent, 0 = inside Z_p^n
        tau: np.ndarray,  # nan when not observed
        exited: np.ndarray,  # bool
        n_jumps: np.ndarray,  # int64, coset-moving jumps
    ):
        self.query_times, self.inside_at, self.norm_at = query_times, inside_at, norm_at
        self.tau, self.exited, self.n_jumps = tau, exited, n_jumps


def _run_block(
    config: SimConfig, start: int, stop: int, query_times: tuple[float, ...]
) -> PathBatch:
    """Paths start .. stop-1 of the norm chain, CHUNK_PATHS at a time, one
    vectorised round per moving jump. ``start`` must be a chunk boundary (a
    multiple of CHUNK_PATHS), since live ranks are counted from there; any
    ``stop`` gives the paths of a full run, which no later path affects.

    ``live`` holds the paths whose clock has not passed the horizon, in index
    order, so row k of a round's words is the block of ``live[k]``. A path
    is constant between jumps, so tau, when observed, is the first jump time
    that lands on norm exponent 0; every jump from there leaves Z_p^n.

    Query times are sorted once. A jump at time t marks its landing norm in
    row 1 + #{q < t} of ``marks`` (row 0 is the start norm 0, the last row
    the jumps past every query time; a later round overwrites an earlier
    one), so marking costs O(live log n_query) per round. After the rounds,
    each query row is filled forward from the one before where it holds no
    mark: row 1 + k is then the norm at the k-th smallest query time.
    """
    if start % CHUNK_PATHS:
        raise ValueError(f"block start {start} is not a multiple of CHUNK_PATHS, {CHUNK_PATHS}")
    space, table, horizon = config.landscape.space, config.table, config.horizon
    rate = 1.0 - table.prob_nonmoving
    drop = _drop_thresholds(space.p, space.n, config.j_max)
    qts = np.array(query_times, dtype=float)
    order = np.argsort(qts, kind="stable")
    sorted_q = qts[order]
    size = stop - start
    clock, norm = np.zeros(size), np.zeros(size, dtype=np.int64)
    tau = np.full(size, math.nan)
    n_jumps = np.zeros(size, dtype=np.int64)
    marks = np.full((qts.size + 2, size), -1, dtype=np.int16)
    marks[0] = 0
    for chunk in range(0, size if rate > 0 else 0, CHUNK_PATHS):
        live, round_ = np.arange(chunk, min(chunk + CHUNK_PATHS, size)), 0
        while live.size:
            bits = split_stream(config.seed, round_).bit_generator
            # words[k] is word k of the live paths' blocks, in live order
            words = bits.advance(start + chunk).random_raw(4 * live.size).reshape(-1, 4).T
            t = clock[live] - np.log1p(-_uniforms(words[0])) / rate
            keep = t <= horizon
            live, t = live[keep], t[keep]
            a = norm[live]
            j = moving_norms(table, _uniforms(words[1][keep]))
            c = drop.size - np.searchsorted(drop, words[2][keep] >> 11, side="right")
            new = np.where(j == a, np.maximum(a - c, 0), np.maximum(a, j))
            first = (new == 0) & np.isnan(tau[live])
            tau[live[first]] = t[first]
            marks[1 + np.searchsorted(sorted_q, t), live] = new
            clock[live], norm[live] = t, new
            n_jumps[live] += 1
            round_ += 1
    for row in range(1, qts.size + 1):
        np.copyto(marks[row], marks[row - 1], where=marks[row] < 0)
    norm_at = marks[1 + np.argsort(order)].T
    return PathBatch(
        tuple(query_times), norm_at == 0, norm_at, tau, n_jumps > 0, n_jumps
    )


def run_paths(
    config: SimConfig,
    query_times: Sequence[float] = (),
    workers: int = 1,
) -> PathBatch:
    """Simulate config.max_paths paths and reduce to per-path summaries.

    Fan-out is by whole chunks of CHUNK_PATHS path indices, so the result is
    independent of the worker count; blocks are concatenated in index order.
    At most os.cpu_count() worker processes are started, and no more than
    there are chunks.
    """
    qts = tuple(float(t) for t in query_times)
    total = config.max_paths
    chunks = -(-total // CHUNK_PATHS)
    workers = min(workers, os.cpu_count() or 1, chunks)
    if workers <= 1:
        return _run_block(config, 0, total, qts)
    from concurrent.futures import ProcessPoolExecutor

    bounds = np.minimum(np.linspace(0, chunks, workers + 1, dtype=int) * CHUNK_PATHS, total)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_run_block, config, int(a), int(b), qts)
            for a, b in zip(bounds[:-1], bounds[1:])
        ]
        blocks = [f.result() for f in futures]
    columns = zip(*((b.inside_at, b.norm_at, b.tau, b.exited, b.n_jumps) for b in blocks))
    return PathBatch(qts, *map(np.concatenate, columns))


class SurvivalEstimate(NamedTuple):
    t: float
    estimate: float
    stderr: float
    n_paths: int


def survival_estimates(batch: PathBatch) -> list[SurvivalEstimate]:
    """Fraction of paths sitting in Z_p^n at each query time, with binomial
    standard errors; all times share the same underlying paths."""
    n = batch.inside_at.shape[0]
    return [
        SurvivalEstimate(t, phat, math.sqrt(max(phat * (1.0 - phat), 0.0) / n), n)
        for t, phat in zip(batch.query_times, batch.inside_at.mean(axis=0).tolist())
    ]


def fpt_cdf_estimate(batch: PathBatch, upto: float) -> tuple[float, float]:
    """(P(tau <= upto) estimate, binomial stderr) from a batch."""
    n = len(batch.tau)
    hits = float(np.sum(~np.isnan(batch.tau) & (batch.tau <= upto)))
    phat = hits / n
    return phat, math.sqrt(max(phat * (1.0 - phat), 0.0) / n)
