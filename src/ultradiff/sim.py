"""Exact compound-Poisson simulation on the quotient Q_p^n / Z_p^n.

The process behind the evolution equation du/dt = J*u - u jumps at unit
rate with increments drawn from the density J. Membership in Z_p^n depends
only on the coset of the position, and increments of norm <= 1 act
trivially on the quotient, so simulating the induced coset chain is exact
for survival and first-passage observables: no discretization anywhere.

Randomness protocol (stable; reproducibility contract):
each path index owns the Philox4x64 stream under key = seed started at the
counter (0, 0, index mod 2^64, index >> 64), equal to
``Philox(key=seed).jumped(index)`` (pinned by test; see
:func:`~ultradiff.padic.split_stream`), and consumes it jump by jump,
strictly interleaved:

1. one standard exponential — the waiting time (stop once the running sum
   passes the horizon);
2. one uniform, inverted through the jump-norm CDF — the norm exponent j;
3. if j >= 1: the coset's residues mod p^j from
   :func:`~ultradiff.padic.sample_sphere_residues` — vectors of n digits
   until one is nonzero (the leading column at position -j), then, if
   j > 1, an (n, j-1) digit block for positions -1 .. -(j-1).

:func:`run_paths` walks each path once, in this order, updating the
position (residues mod p^j_max), its norm and the first return in place.

Because nothing drawn depends on the horizon, runs with nested horizons
and the same seed consume identical stream prefixes: path histories agree
up to the shorter horizon exactly, and identical (seed, path index) always
reproduces the identical path no matter how paths are batched across
workers. Estimators reduce over paths associatively.
"""

from __future__ import annotations

import bisect
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .landscape import (
    LandscapeParams,
    jmass_tail,
    log_sphere_mass,
    sphere_masses_below,
)
from .padic import DEFAULT_DEPTH_CAP, sample_sphere_residues, split_stream

#: Largest tolerated jump-norm mass beyond the table's upper edge.
TRUNCATION_TOLERANCE = 1e-12


@dataclass(frozen=True)
class JumpNormTable:
    """Inverse-CDF table for the norm exponent of a J-distributed jump.

    Covers the consecutive exponents j_min .. j_max (``js``); the upper
    defect (mass beyond j_max) must be below TRUNCATION_TOLERANCE and both
    defects are recorded. The probabilities are renormalized over the table;
    ``cdf`` is their running sum as a Python list, which the draw bisects.
    """

    landscape: LandscapeParams
    j_min: int
    probs: np.ndarray
    cdf: list[float]
    defect_low: float
    defect_high: float

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
        return cls(
            landscape=landscape,
            j_min=j_max - lower.size,
            probs=probs,
            cdf=np.cumsum(probs).tolist(),
            defect_low=defect_low,
            defect_high=defect_high,
        )

    @property
    def js(self) -> np.ndarray:
        """The exponents j_min .. j_max, aligned with ``probs``."""
        return np.arange(self.j_min, self.j_min + len(self.cdf), dtype=np.int64)

    @property
    def prob_nonmoving(self) -> float:
        """P(norm exponent <= 0): jumps that do not move the coset."""
        return float(self.probs[self.js <= 0].sum())


def sample_jump_norm(table: JumpNormTable, rng: np.random.Generator) -> int:
    """Draw one jump-norm exponent by inverse CDF over the table.

    One uniform u maps to the first index whose CDF exceeds u
    (``np.searchsorted(side="right")``); capping the search at the last
    index clamps u >= cdf[-1] to j_max.
    """
    cdf = table.cdf
    return table.j_min + bisect.bisect_right(cdf, rng.random(), 0, len(cdf) - 1)


@dataclass(frozen=True)
class SimConfig:
    """Monte Carlo run parameters; validated eagerly at construction."""

    landscape: LandscapeParams
    horizon: float
    max_paths: int
    seed: int
    j_max: int
    depth_cap: int = DEFAULT_DEPTH_CAP
    table: JumpNormTable = field(compare=False, default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.horizon <= 0:
            raise ConfigError(f"sim.horizon: must be > 0, got {self.horizon}")
        if self.max_paths < 1:
            raise ConfigError(f"sim.paths: must be >= 1, got {self.max_paths}")
        if not (0 <= self.seed < 2**64):
            raise ConfigError(f"sim.seed: must fit in 64 bits, got {self.seed}")
        if self.j_max < 1:
            raise ConfigError(f"sim.j_max: must be >= 1, got {self.j_max}")
        if self.j_max > self.depth_cap:
            raise ConfigError(
                f"sim.j_max: {self.j_max} exceeds the depth cap {self.depth_cap}"
            )
        if self.table is None:
            object.__setattr__(
                self, "table", JumpNormTable.build(self.landscape, self.j_max)
            )
        if self.table.defect_high >= TRUNCATION_TOLERANCE:
            raise ConfigError(
                f"sim.j_max: truncated jump mass {self.table.defect_high:.3e} "
                f"beyond p^{self.j_max} is not below {TRUNCATION_TOLERANCE}"
            )


# ---------------------------------------------------------------------------
# Batch runner and estimators
# ---------------------------------------------------------------------------


@dataclass
class PathBatch:
    """Per-path summaries over a contiguous block of path indices."""

    query_times: tuple[float, ...]
    inside_at: np.ndarray  # (paths, times) bool
    norm_at: np.ndarray  # (paths, times) int16 norm exponent, 0 = inside Z_p^n
    tau: np.ndarray  # nan when not observed
    exited: np.ndarray  # bool
    n_jumps: np.ndarray  # int64


def _residue_norm_exp(pos: list[int], p: int, depth: int) -> int:
    """Coset norm exponent of a residue vector; 0 means the identity coset."""
    best = 0
    for a in pos:
        if a == 0:
            continue
        v = 0
        while a % p == 0:
            a //= p
            v += 1
        best = max(best, depth - v)
    return best


def _run_block(
    config: SimConfig, start: int, stop: int, query_times: tuple[float, ...]
) -> PathBatch:
    """Walk paths start .. stop-1 of the coset chain, one pass each.

    The position is a residue vector mod p^j_max (the encoding of
    :meth:`CosetPoint.to_residues`); a moving jump's residues mod p^j are
    lifted by p^(j_max - j) and added. The path is constant between jumps,
    so tau, when observed, is the first jump time that lands on the
    identity coset after an earlier jump left it.
    """
    space = config.landscape.space
    p, depth = space.p, config.j_max
    table, horizon, seed = config.table, config.horizon, config.seed
    qts = [float(q) for q in query_times]
    modulus = p**depth
    rows, taus, exits, counts = [], [], [], []
    for index in range(start, stop):
        rng = split_stream(seed, index)
        exponential = rng.standard_exponential
        pos = [0] * space.n
        mover_times, norms = [], [0]  # norms[i]: the norm after i moving jumps
        t, jumps, tau, exited = 0.0, 0, math.nan, False
        while True:
            t += exponential()
            if t > horizon:
                break
            jumps += 1
            j = sample_jump_norm(table, rng)
            if j < 1:
                continue
            lift = p ** (depth - j)
            inc = sample_sphere_residues(space, j, rng)
            pos = [(a + b * lift) % modulus for a, b in zip(pos, inc)]
            norm = _residue_norm_exp(pos, p, depth)
            mover_times.append(t)
            norms.append(norm)
            if norm > 0:
                exited = True
            elif exited and math.isnan(tau):
                tau = t
        rows.append([norms[bisect.bisect_right(mover_times, q)] for q in qts])
        taus.append(tau)
        exits.append(exited)
        counts.append(jumps)
    norm_at = np.array(rows, dtype=np.int16).reshape(stop - start, len(qts))
    return PathBatch(
        query_times=tuple(query_times),
        inside_at=norm_at == 0,
        norm_at=norm_at,
        tau=np.array(taus, dtype=float),
        exited=np.array(exits, dtype=bool),
        n_jumps=np.array(counts, dtype=np.int64),
    )


def run_paths(
    config: SimConfig,
    query_times: Sequence[float] = (),
    workers: int = 1,
) -> PathBatch:
    """Simulate config.max_paths paths and reduce to per-path summaries.

    Fan-out is by path index, so the result is independent of the worker
    count; blocks are concatenated in index order. At most os.cpu_count()
    worker processes are started.
    """
    qts = tuple(float(t) for t in query_times)
    total = config.max_paths
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1 or total < 4 * workers:
        return _run_block(config, 0, total, qts)
    bounds = np.linspace(0, total, workers + 1, dtype=int)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_run_block, config, int(a), int(b), qts)
            for a, b in zip(bounds[:-1], bounds[1:])
            if b > a
        ]
        blocks = [f.result() for f in futures]
    return PathBatch(
        query_times=qts,
        inside_at=np.concatenate([b.inside_at for b in blocks]),
        norm_at=np.concatenate([b.norm_at for b in blocks]),
        tau=np.concatenate([b.tau for b in blocks]),
        exited=np.concatenate([b.exited for b in blocks]),
        n_jumps=np.concatenate([b.n_jumps for b in blocks]),
    )


@dataclass(frozen=True)
class SurvivalEstimate:
    t: float
    estimate: float
    stderr: float
    n_paths: int


def survival_estimates(batch: PathBatch) -> list[SurvivalEstimate]:
    """Fraction of paths sitting in Z_p^n at each query time, with binomial
    standard errors; all times share the same underlying paths."""
    n = batch.inside_at.shape[0]
    out = []
    for col, t in enumerate(batch.query_times):
        phat = float(batch.inside_at[:, col].mean())
        out.append(
            SurvivalEstimate(
                t=t,
                estimate=phat,
                stderr=math.sqrt(max(phat * (1.0 - phat), 0.0) / n),
                n_paths=n,
            )
        )
    return out


def fpt_cdf_estimate(batch: PathBatch, upto: float) -> tuple[float, float]:
    """(P(tau <= upto) estimate, binomial stderr) from a batch."""
    n = len(batch.tau)
    hits = float(np.sum(~np.isnan(batch.tau) & (batch.tau <= upto)))
    phat = hits / n
    return phat, math.sqrt(max(phat * (1.0 - phat), 0.0) / n)
