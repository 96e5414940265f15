"""Command-line front end: reproducible runs with manifests.

Commands (all take --config, and optionally --out and --seed; ``simulate``
and ``verify`` also take --workers; the options may come before or after
the command):

* ``landscape`` — spectral table and integrability diagnostics;
* ``kernel``    — heat-kernel profiles, survival, decay-bound report;
* ``simulate``  — Monte Carlo paths: first-passage samples and survival
  estimates with standard errors;
* ``fpt``       — flux g, the first-passage density f and P(tau <= T) in
  closed form, Laplace ladder, recurrence verdict;
* ``verify``    — the cross-module invariant battery, the closed-form first
  passage held to its Laplace identity F = G/(1 + G) and to Monte Carlo;
  nonzero exit on any failed check.

Every command is deterministic given (config, seed): artifacts are written
with 17-significant-digit numeric fields and listed with sha256 checksums
in a per-run ``manifest.json``, whose timing fields (wall clock, verify's
``stages``) alone differ between reruns. The commands hand numpy columns
to ``_write_csv`` (``_csv.write_csv``), which writes each cell with the
bytes of ``'%.17g' % x``, in row blocks (see ``_csv``), and JSON
documents to ``_write_json``. Both write through ``_csv.write_bytes``,
which overwrites a file in place, cuts it to length and returns the sha256
of the bytes as written; each command hands those digests to
``_write_manifest``, so no artifact is read back. The default output root
can be set with the ``ULTRADIFF_OUT`` environment variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from ._csv import format_cells, write_bytes, write_csv as _write_csv
from .errors import ConfigError, SeriesDiverged, UltradiffError
from .heat import (
    HeatState,
    chapman_kolmogorov_defect,
    conservation_audits,
    decay_bound_check,
    du_dt,
    escape_depths,
    pde_residual,
    spectral_measure,
    survival,
    u_table,
    ztilde_table,
)
from .landscape import (
    LandscapeParams,
    SpectralCache,
    UnitBallKernel,
    divergence_diagnostic,
    exterior_mass,
    normalize,
    spectral_bound_check,
    spectral_by_quadrature,
    spectral_gap_at_one,
)
from .fpt import (
    FPT_PROTOCOL,
    first_passage_mixture,
    g_grid,
    laplace_G,
    laplace_g_quadrature,
    recurrence_diagnostic,
)
from .padic import DEFAULT_DEPTH_CAP, SpaceParams, ZERO_NORM, is_prime
from .sim import (
    RNG_PROTOCOL,
    PathBatch,
    SimConfig,
    fpt_cdf_estimate,
    run_paths,
    survival_estimates,
)

SCHEMA_VERSION = 1
OUT_ENV_VAR = "ULTRADIFF_OUT"
#: The Monte Carlo commands: they take --workers and name the rng protocol.
MC_COMMANDS = ("simulate", "verify")
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_EPS = sys.float_info.epsilon


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


class FptBlock(NamedTuple):
    h: float
    horizon: float
    s_ladder: tuple[float, ...]
    recurrence_threshold: float = 1e3


class KernelBlock(NamedTuple):
    times: tuple[float, ...]
    x_exps: tuple[int, ...]


class RunConfig:
    """Fully validated run configuration (one JSON document of record)."""

    __slots__ = ("landscape", "sim", "fpt", "kernel", "verify_paths", "out_dir", "raw")

    def __init__(
        self,
        landscape: LandscapeParams,
        sim: SimConfig,
        fpt: FptBlock,
        kernel: KernelBlock,
        verify_paths: int,
        out_dir: str | None,
        raw: dict,
    ):
        self.landscape, self.sim, self.fpt, self.kernel = landscape, sim, fpt, kernel
        self.verify_paths, self.out_dir, self.raw = verify_paths, out_dir, raw

    def resolved_echo(self) -> dict:
        """The config as actually used, with every computed constant echoed."""
        return {
            "landscape": {
                "p": self.landscape.space.p,
                "n": self.landscape.space.n,
                "gamma": self.landscape.gamma,
                "c1": self.landscape.c1,
                "norm_const": self.landscape.norm_const,
                "exterior_mass": exterior_mass(self.landscape),
            },
            "sim": {
                "horizon": self.sim.horizon,
                "paths": self.sim.max_paths,
                "seed": self.sim.seed,
                "j_max": self.sim.j_max,
                "depth_cap": self.sim.depth_cap,
                "jump_table_j_min": self.sim.table.j_min,
                "jump_truncation_defect": self.sim.table.defect_high,
            },
            "fpt": {
                "h": self.fpt.h,
                "T": self.fpt.horizon,
                "s_ladder": list(self.fpt.s_ladder),
                "recurrence_threshold": self.fpt.recurrence_threshold,
            },
            "kernel": {
                "times": list(self.kernel.times),
                "x_exps": list(self.kernel.x_exps),
            },
            "verify": {"paths": self.verify_paths},
        }


def _is_a(v, typ) -> bool:
    return isinstance(v, typ) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    """A JSON number (not a bool) that converts to a finite double."""
    return _is_a(v, (int, float)) and abs(v) <= sys.float_info.max


def _get(block: dict, path: str, typ, default=None, required=True):
    head, _, key = path.rpartition(".")
    if key not in block:
        if required:
            raise ConfigError(f"{path}: missing required field")
        return default
    val = block[key]
    if typ is float and _is_a(val, (int, float)):
        if not _is_finite(val):
            raise ConfigError(f"{path}: must be a finite number, got {val!r}")
        val = float(val)
    if not _is_a(val, typ):
        raise ConfigError(f"{path}: expected {typ.__name__}, got {val!r}")
    return val


def load_run_config(path: str | Path, seed_override: int | None = None) -> RunConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    lands = raw.get("landscape")
    if not isinstance(lands, dict):
        raise ConfigError("landscape: missing required block")
    p = _get(lands, "landscape.p", int)
    n = _get(lands, "landscape.n", int)
    gamma = _get(lands, "landscape.gamma", float)
    c1 = _get(lands, "landscape.c1", float)
    if not is_prime(p):
        raise ConfigError(f"landscape.p: must be prime, got {p}")
    if n < 1:
        raise ConfigError(f"landscape.n: must be >= 1, got {n}")
    if gamma <= -n:
        raise ConfigError(
            f"landscape.gamma: must exceed -n = {-n} (the kernel "
            f"|x|^gamma e^(-c1 |x|) is not integrable at gamma <= -n), got {gamma}"
        )
    if c1 <= 0:
        raise ConfigError(f"landscape.c1: must be > 0, got {c1}")
    params = normalize(SpaceParams(p=p, n=n), gamma, c1)

    simb = raw.get("sim")
    if not isinstance(simb, dict):
        raise ConfigError("sim: missing required block")
    seed = _get(simb, "sim.seed", int)
    if seed_override is not None:
        seed = seed_override
    sim = SimConfig(
        landscape=params,
        horizon=_get(simb, "sim.horizon", float),
        max_paths=_get(simb, "sim.paths", int),
        seed=seed,
        j_max=_get(simb, "sim.j_max", int),
        depth_cap=_get(simb, "sim.depth_cap", int, default=DEFAULT_DEPTH_CAP, required=False),
    )

    fptb = raw.get("fpt")
    if not isinstance(fptb, dict):
        raise ConfigError("fpt: missing required block")
    h = _get(fptb, "fpt.h", float)
    fpt_T = _get(fptb, "fpt.T", float)
    if h <= 0:
        raise ConfigError(f"fpt.h: must be > 0, got {h}")
    if fpt_T < 0:
        raise ConfigError(f"fpt.T: must be >= 0, got {fpt_T}")
    steps = fpt_T / h
    if abs(steps - round(steps)) > 1e-9:
        raise ConfigError(f"fpt.T: must be an integer multiple of h, got T={fpt_T}, h={h}")
    ladder = fptb.get("s_ladder")
    if not isinstance(ladder, list) or not ladder or any(
        not _is_finite(s) or s <= 0 for s in ladder
    ):
        raise ConfigError("fpt.s_ladder: must be a nonempty list of finite numbers > 0")
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigError("fpt.s_ladder: must be strictly decreasing")
    threshold = _get(fptb, "fpt.recurrence_threshold", float, default=1e3, required=False)
    if threshold <= 0:
        # G > 0 everywhere, so a threshold <= 0 would always be exceeded
        raise ConfigError(f"fpt.recurrence_threshold: must be > 0, got {threshold}")
    fpt = FptBlock(h=h, horizon=fpt_T, s_ladder=tuple(float(s) for s in ladder),
                   recurrence_threshold=threshold)

    kern = raw.get("kernel", {})
    if not isinstance(kern, dict):
        raise ConfigError("kernel: must be a block")
    times = kern.get("times", [0.1, 0.5, 1.0, 2.0, 5.0])
    x_exps = kern.get("x_exps", list(range(-5, 11)))
    if not isinstance(times, list) or any(not _is_finite(t) or t < 0 for t in times):
        raise ConfigError("kernel.times: must be a list of finite nonnegative numbers")
    # Ztilde and the decay bounds scale by p^{-n i}, which must stay a double
    if not isinstance(x_exps, list) or not x_exps or any(
        not _is_a(i, int) or abs(i) * n * params.space.log_p >= _LOG_FLOAT_MAX
        for i in x_exps
    ):
        raise ConfigError(
            "kernel.x_exps: must be a nonempty list of integers i with p^(n|i|) finite"
        )
    kernel = KernelBlock(
        times=tuple(float(t) for t in times), x_exps=tuple(x_exps)
    )

    verb = raw.get("verify", {})
    if not isinstance(verb, dict):
        raise ConfigError("verify: must be a block")
    verify_paths = _get(verb, "verify.paths", int, default=20000, required=False)
    if verify_paths < 100:
        raise ConfigError(f"verify.paths: must be >= 100, got {verify_paths}")

    out_block = raw.get("output", {})
    if not isinstance(out_block, dict):
        raise ConfigError("output: must be a block")
    out_dir = _get(out_block, "output.dir", str, required=False)

    return RunConfig(
        landscape=params,
        sim=sim,
        fpt=fpt,
        kernel=kernel,
        verify_paths=verify_paths,
        out_dir=out_dir,
        raw=raw,
    )


def resolve_out_dir(cfg: RunConfig, flag_out: str | None, command: str) -> Path:
    if flag_out:
        return Path(flag_out)
    if cfg.out_dir:
        return Path(cfg.out_dir)
    root = os.environ.get(OUT_ENV_VAR)
    if root:
        return Path(root) / command
    return Path("runs") / command


# ---------------------------------------------------------------------------
# Artifact writers
# ---------------------------------------------------------------------------


def _write_json(path: Path, obj: dict) -> str:
    """Write obj as indented ASCII JSON; returns the file's sha256 hex digest."""
    return write_bytes(path, [(json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()])


def _write_manifest(
    out: Path, command: str, cfg: RunConfig, digests: dict[str, str], t0: float,
    stages: dict[str, float] | None = None,
) -> None:
    """The run's manifest, with ``digests`` ({artifact name: sha256 hex} as
    the writers returned them) as its ``artifacts``."""
    _write_json(
        out / "manifest.json",
        {
            "schema_version": SCHEMA_VERSION,
            "tool": "ultradiff",
            "tool_version": __version__,
            "command": command,
            "wall_clock_s": time.perf_counter() - t0,
            "config": cfg.resolved_echo(),
            "artifacts": digests,
            **({"rng_protocol": RNG_PROTOCOL} if command in MC_COMMANDS else {}),
            **({"fpt_protocol": FPT_PROTOCOL} if command == "fpt" else {}),
            **({"stages": stages} if stages else {}),
        },
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_landscape(cfg: RunConfig, out: Path) -> int:
    t0 = time.perf_counter()
    params = cfg.landscape
    state = HeatState(params)
    cache = state.cache
    ks = np.arange(cache.k_min, cache.k_max + 1)
    columns, header = [ks, 1.0 - cache.values, cache.values], ["k", "jhat", "one_minus_jhat"]
    digests = {"spectral.csv": _write_csv(out / "spectral.csv", header, columns)}

    gap = spectral_gap_at_one(params)
    diag: dict = {
        "schema_version": SCHEMA_VERSION,
        "gap_at_one": gap,
        "gap_vs_series_diff": abs(gap - cache.one_minus(0)),
        "normalization": {
            "norm_const": params.norm_const,
            "exterior_mass": exterior_mass(params),
        },
    }
    if -params.space.n < params.gamma < 0:
        div = divergence_diagnostic(params, m_terms=20)
        bound = spectral_bound_check(params, range(-20, 1), cache)
        diag["divergence"] = {
            "verdict": div.verdict,
            "growth_floor": div.growth_floor,
            "partial_log_sums": list(div.partial_log_sums),
        }
        diag["spectral_bound"] = {
            "b1": bound.b1,
            "b2": bound.b2,
            "min_margin": min(bound.margins),
            "all_nonnegative": bound.all_nonnegative,
        }
    else:
        diag["divergence"] = {
            "verdict": "not applicable",
            "note": "reciprocal-spectral divergence is established for gamma in (-n, 0)",
        }
    digests["diagnostics.json"] = _write_json(out / "diagnostics.json", diag)
    _write_manifest(out, "landscape", cfg, digests, t0)
    return 0


def cmd_kernel(cfg: RunConfig, out: Path) -> int:
    t0 = time.perf_counter()
    state = HeatState(cfg.landscape)
    times = cfg.kernel.times
    x_exps = cfg.kernel.x_exps

    # one engine call per quantity; tables have rows i, columns t, written
    # in the stable (i, t) order of their flattened grid, with the key
    # cells formatted once per distinct i and t. u is S on Z_p^n and Ztilde
    # on every sphere of norm >= p, the same rows bit for bit
    s = survival(state, times)
    z = ztilde_table(state, x_exps, times)
    u = np.where((np.asarray(x_exps) >= 1)[:, None], z, s)
    order = np.lexsort((np.tile(times, len(x_exps)), np.repeat(x_exps, len(times))))
    rows, cols = np.divmod(order, len(times))
    i_cells, t_cells = format_cells(x_exps), format_cells(times)
    keys, digests = [i_cells[rows], t_cells[cols]], {}
    for name, table in (("u_profile.csv", u), ("ztilde.csv", z)):
        columns = keys + [table.ravel()[order]]
        digests[name] = _write_csv(out / name, ["norm_exp", "t", "value"], columns)

    defects = [audit.defect for audit in conservation_audits(state, times)]
    columns = [t_cells, s, defects]
    header = ["t", "value", "conservation_defect"]
    digests["survival.csv"] = _write_csv(out / "survival.csv", header, columns)

    pos_exps = [i for i in x_exps if i >= 1] or list(range(1, 11))
    pos_times = [t for t in times if t > 0] or [1.0]
    report: dict = {"schema_version": SCHEMA_VERSION}
    if -state.space.n < cfg.landscape.gamma < 0:
        deep = [i for i in pos_exps if i >= 2] or list(range(2, 13))
        decay = decay_bound_check(state, deep, pos_times, l=1)
        report["decay_bounds"] = {
            "l": 1,
            "c0": decay.c0,
            # nan if any margin is nan, wherever it sits
            "min_uniform_margin": float(decay.uniform_margins.min()),
            "min_claim_margin": float(decay.claim_margins.min()),
            "min_decay_margin": float(decay.decay_margins.min()),
            "all_nonnegative": decay.all_nonnegative,
            "x_exps": deep,
            "times": pos_times,
        }
    else:
        # only the uniform 2 t |x|^{-n} bound applies outside gamma in (-n,0);
        # its points are in the Ztilde table unless a default filled them in
        rows = [r for r, i in enumerate(x_exps) if i >= 1]
        cols = [c for c, t in enumerate(times) if t > 0]
        z_pos = (
            z[np.ix_(rows, cols)]
            if rows and cols
            else ztilde_table(state, pos_exps, pos_times)
        )
        # Python's float pow, once per row: numpy's power differs from it in
        # the last bit at some p^k, and would move the report's bytes
        space = state.space
        scale = np.array([float(space.p) ** (-i * space.n) for i in pos_exps])
        margins = 2.0 * np.array(pos_times) * scale[:, None] - z_pos
        report["decay_bounds"] = {
            # nan if any margin is nan, as in the other branch
            "min_uniform_margin": float(margins.min()),
            "all_nonnegative": bool((margins >= 0).all()),
            "note": "exponential decay bound needs gamma in (-n, 0)",
        }
    digests["bounds_report.json"] = _write_json(out / "bounds_report.json", report)
    _write_manifest(out, "kernel", cfg, digests, t0)
    return 0


def cmd_simulate(cfg: RunConfig, out: Path, workers: int = 1) -> int:
    t0 = time.perf_counter()
    times = [t for t in cfg.kernel.times if 0 < t <= cfg.sim.horizon]
    batch = run_paths(cfg.sim, query_times=times, workers=workers)

    flags = np.array([b"0", b"1"])  # the 0/1 columns, as text
    columns = [
        np.arange(len(batch.tau)),
        batch.tau,
        flags[np.isnan(batch.tau).view(np.uint8)],
        flags[batch.exited.view(np.uint8)],
    ]
    header = ["path_index", "tau", "censored", "exited"]
    digests = {
        "fpt_samples.csv": _write_csv(out / "fpt_samples.csv", header, columns, blank_nan=("tau",))
    }

    estimates = survival_estimates(batch)
    header = ["t", "estimate", "stderr", "n_paths"]
    columns = [[getattr(e, name) for e in estimates] for name in header]
    digests["survival_mc.csv"] = _write_csv(out / "survival_mc.csv", header, columns)
    _write_manifest(out, "simulate", cfg, digests, t0)
    return 0


def cmd_fpt(cfg: RunConfig, out: Path) -> int:
    t0 = time.perf_counter()
    state = HeatState(cfg.landscape)
    h, T = cfg.fpt.h, cfg.fpt.horizon
    ts = np.arange(0.0, T + h / 2.0, h)
    mixture = first_passage_mixture(state, T)
    columns = [ts, g_grid(state, ts), mixture.density(ts)]
    digests = {"g_f.csv": _write_csv(out / "g_f.csv", ["t", "g", "f"], columns)}

    rec = recurrence_diagnostic(state, cfg.fpt.s_ladder, cfg.fpt.recurrence_threshold)
    columns = [rec.s_values, rec.g_values]
    digests["laplace_ladder.csv"] = _write_csv(out / "laplace_ladder.csv", ["s", "G"], columns)
    digests["recurrence_verdict.json"] = _write_json(
        out / "recurrence_verdict.json",
        {
            "schema_version": SCHEMA_VERSION,
            "verdict": rec.verdict,
            "hypothesis_met": rec.hypothesis_met,
            "note": rec.note,
            "threshold": rec.threshold,
            "strictly_increasing": rec.strictly_increasing,
            "exceeded_threshold": rec.exceeded_threshold,
            "f0_proxy": rec.f0_proxy,
            "s_values": list(rec.s_values),
            "g_values": list(rec.g_values),
            "return_probability_censored": mixture.cdf(),
            "mixture_poles": int(mixture.mu.size),
            "mixture_bound": mixture.bound,
        },
    )
    _write_manifest(out, "fpt", cfg, digests, t0)
    return 0


# ---------------------------------------------------------------------------
# verify: the cross-module invariant battery
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4)
def _log_factorials(n: int) -> np.ndarray:
    """log m! for m = 0..n, one table per n (verify scores several counts
    out of the same number of paths)."""
    log_fact = np.fromiter(map(math.lgamma, range(1, n + 2)), float, n + 1)
    log_fact.setflags(write=False)
    return log_fact


#: A tail is summed over its terms within this factor of its largest.
_TAIL_CUT = 2.0**-120


def _log_pmf(i0: int, i1: int, n: int, q: float) -> np.ndarray:
    """log P(K = i) under Binomial(n, q) for i = i0..i1 - 1, by the same
    operations at every i and whatever the range, so exp of an entry is
    one fixed double per (i, n, q)."""
    i = np.arange(i0, i1)
    log_fact = _log_factorials(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_qs = np.where(i > 0, i * np.log(q), 0.0)
        log_qs += np.where(i < n, (n - i) * np.log1p(-q), 0.0)
    return log_fact[n] - log_fact[i] - log_fact[n - i] + log_qs


def _dropped_term(log_term: float) -> float:
    """A bound on each pmf term farther from the mode than one whose log is
    log_term: the exact pmf is log-concave, so it falls away from the mode,
    the computed logs are within far less than 1 of the exact ones, and exp
    returns 0 below -745.14."""
    return 0.0 if log_term < -747.0 else math.exp(log_term + 1.0) + 2.0**-1074


def _window(a: int, b: int, n: int, q: float, mode: int) -> tuple[np.ndarray, float]:
    """The terms of the tail a..b within _TAIL_CUT of its largest (at the
    mode clamped to [a, b]), found in a range of 14 sigma + 32 terms on
    each side of it, and a bound on the sum of the terms left out."""
    c = min(max(mode, a), b)
    w = int(14.0 * math.sqrt(n * q * (1.0 - q))) + 32  # holds the window at every n, q tried
    i0 = max(a, c - w)
    log_p = _log_pmf(i0, min(b, c + w) + 1, n, q)
    if log_p[c - i0] == -math.inf:  # q is 0 or 1: every term is 0
        return log_p[:0], 0.0
    kept = np.flatnonzero(log_p >= log_p[c - i0] + math.log(_TAIL_CUT))
    lo, hi = int(kept[0]), int(kept[-1])
    # each term left out on a side is bounded by the nearest one computed:
    # the first outside the window or, past the range, the range's end
    left, right = log_p[max(lo - 1, 0)], log_p[min(hi + 1, len(log_p) - 1)]
    dropped = (i0 + lo - a) * _dropped_term(left) + (b - i0 - hi) * _dropped_term(right)
    return np.exp(log_p[lo : hi + 1]), dropped


def _tail_sum(a: int, b: int, n: int, q: float, terms: np.ndarray, dropped: float) -> float:
    """math.fsum of every term of the tail a..b, from its window's terms when
    the left-out mass and the window sum's rounding error together stay
    inside the half ulp above it; else over the whole tail."""
    kept = np.sort(terms)[::-1].tolist()  # largest first: fsum keeps fewer partials
    s = math.fsum(kept)
    if dropped and not math.fsum([-s] + kept) + dropped < math.ulp(s) / 2 * (1 - 2**-40):
        pmf = np.exp(_log_pmf(a, b + 1, n, q))
        s = math.fsum(pmf[pmf != 0.0])
    return s


def binomial_tail_z(k: int, n: int, q: float) -> float:
    """The exact two-sided tail of k under Binomial(n, q), as a normal z:
    -Phi^{-1}(min(P(K <= k), P(K >= k), 1/2)), inf when it underflows.

    Unlike a plug-in z score it divides by no estimated stderr, which is 0
    when no path (or every path) counted.

    Each tail is the ``math.fsum`` of the pmf terms exp(log n! - log i! -
    log (n - i)! + i log q + (n - i) log(1 - q)), and the value is that
    full-support sum bit for bit, from O(sigma) terms: the tail that can be
    below 1/2 (the lower one when k is below the mode) is summed over the
    window of its terms within 2^-120 of its largest, the pmf being
    log-concave so that every term outside is smaller. That sum stands when
    a rounding certificate holds: the terms left out (their count times
    the largest of them, with slack) plus the ``fsum``'s own rounding error
    stay within the half ulp above it; otherwise the whole tail is summed.
    The other tail is taken as >= 1/2 when a rounded-down ``np.sum`` of its
    own window shows it, and summed the same way only when that fails.
    """
    from statistics import NormalDist  # here, so that only verify loads it

    mode = min(int((n + 1) * q), n)
    near, far = ((0, k), (k, n)) if k < mode else ((k, n), (0, k))
    tail = min(_tail_sum(*near, n, q, *_window(*near, n, q, mode)), 0.5)
    terms, dropped = _window(*far, n, q, mode)
    if np.sum(terms) * (1.0 - len(terms) * 2.0**-52) < 0.5:  # np.sum errs by < len/2 ulps
        tail = min(tail, _tail_sum(*far, n, q, terms, dropped))
    return math.inf if tail == 0.0 else abs(NormalDist().inv_cdf(tail))


def mc_agreement(
    batch: PathBatch, s_exact: list[float], t_fpt: float, integral: float, slack: float
) -> tuple[float, float, int]:
    """verify's Monte Carlo checks as :func:`binomial_tail_z` scores: the
    worst over the query times of the count of paths outside Z_p^n against
    Binomial(N, 1 - S(t)), and the count returned by t_fpt against
    Binomial(N, q), q the point of [integral - slack, integral + slack]
    nearest the observed fraction; also that count."""
    n = len(batch.tau)
    z_survival = max(
        (
            binomial_tail_z(int(k), n, max(0.0, 1.0 - s))
            for k, s in zip((~batch.inside_at).sum(axis=0), s_exact)
        ),
        default=0.0,
    )
    p_mc, _ = fpt_cdf_estimate(batch, t_fpt)
    returned = round(p_mc * n)
    q = min(max(min(max(p_mc, integral - slack), integral + slack), 0.0), 1.0)
    return z_survival, binomial_tail_z(returned, n, q), returned


def _worst(observed: np.ndarray, threshold: np.ndarray) -> int:
    """The index where observed is largest against its threshold; past a
    threshold of 0, a positive observed counts as infinitely large."""
    ratio = np.where(observed > 0, np.inf, 0.0)
    return int(np.argmax(np.divide(observed, threshold, out=ratio, where=threshold > 0)))


def run_verify_checks(
    cfg: RunConfig, cache: SpectralCache | None = None, workers: int = 1,
    stages: dict | None = None,
) -> list[dict]:
    """Execute every cross-module check; a tampered cache may be injected
    (test hook) to prove the battery actually bites. ``stages`` receives
    each check's seconds since the previous check (the two Monte Carlo
    checks share their work, which counts to the first)."""
    params = cfg.landscape
    space = params.space
    state = HeatState(params, cache=cache)
    cache = state.cache
    checks: list[dict] = []
    stages = {} if stages is None else stages
    marks = [time.perf_counter()]

    def add(name: str, observed: float, threshold: float, extra: str = ""):
        marks.append(time.perf_counter())
        stages[name] = marks[-1] - marks[-2]
        passed = bool(observed <= threshold)
        checks.append(dict(name=name, observed=float(observed), threshold=float(threshold),
                           passed=passed, detail=extra))

    # spectral series vs direct character-sum quadrature
    err = max(
        abs((1.0 - cache.one_minus(k)) - spectral_by_quadrature(params, k))
        for k in range(-3, 4)
    )
    add("spectral_vs_quadrature", err, 1e-10)

    # unit-ball indicator reproduces its closed-form transform
    ub = SpectralCache(UnitBallKernel(space), -6, 6)
    err = max(abs(ub.jhat(k) - float(k <= 0)) for k in range(-6, 7))
    add("indicator_self_dual", err, 1e-12)

    # conservation incl. the zero-jump atom, on certified windows
    audits = conservation_audits(state, (0.1, 0.5, 1.0, 5.0, 20.0))
    w = max(audits, key=lambda a: a.tail_bound)
    evidence = f"tail_bound={w.tail_bound:.3g} window={list(w.window)} t={w.t:g}"
    add("conservation", max(a.defect for a in audits), 1e-8, evidence)

    # Chapman-Kolmogorov on the lumped norm chain
    pairs = ((0.5, 0.5), (1.0, 2.0))
    ck = max(chapman_kolmogorov_defect(state, t, s) for t, s in pairs)
    depths, escapes = zip(*escape_depths(params, [t + s for t, s in pairs]))
    evidence = f"depth<={max(depths)} escape<={max(escapes):.3g}"
    add("chapman_kolmogorov", ck, 1e-6, evidence)

    # evolution-equation residual and the time-derivative series
    exps, times = [ZERO_NORM, 1, 2, 3], [0.1, 0.5, 1.0, 2.0, 5.0]
    res = np.max(np.abs(pde_residual(state, exps, times)))
    add("evolution_residual", res, 1e-6, f"{len(exps) * len(times)} points")

    h_fd = 1e-3
    shifts = (-2 * h_fd, -h_fd, h_fd, 2 * h_fd)

    def ddt(f) -> float:
        """Five-point central difference of f at (t - 2h, t - h, t + h,
        t + 2h): error h^4 f^(5) / 30 plus eps / h."""
        return (f[0] - 8 * f[1] + 8 * f[2] - f[3]) / (12 * h_fd)

    fd_err = max(
        abs(du_dt(state, i, t) - ddt(u_table(state, [i], [t + d for d in shifts])[0]))
        for i, t in ((2, 1.0), (ZERO_NORM, 0.5), (1, 2.0))
    )
    add("du_dt_vs_finite_difference", fd_err, 1e-6)

    # survival flux balance S' = g - C S, one survival call for all stencils
    # and one g_grid call for their centres
    c_ext = exterior_mass(params)
    flux_ts = (0.5, 1.0, 2.0)
    surv = survival(state, [t + d for t in flux_ts for d in (*shifts, 0.0)]).reshape(-1, 5)
    flux = g_grid(state, flux_ts)
    ode = max(abs(ddt(f) - (g - c_ext * f[4])) for g, f in zip(flux, surv))
    add("survival_flux_balance", ode, 1e-6)

    # Laplace series vs direct quadrature of g. The trapezoid errs by at
    # most (h^2/8) int |(e^{-st} g)''| (its Peano kernel), and with g =
    # sum_j v_j d_j (e^{-lambda_j t} - 1) that integral is at most sum_j
    # |v_j d_j| (2s + lambda_j); its m terms of at most h kappa round by m
    # eps h kappa. The tail past T, at most kappa e^{-sT} / s, is allowed
    # for in the observed gap
    lap_T, lap_h, lap_s = 50.0, 1e-2, np.array([0.5, 1.0, 2.0])
    quadrature = laplace_g_quadrature(state, lap_s, horizon=lap_T, h=lap_h)
    gap = abs(laplace_G(state, lap_s).value - quadrature) - c_ext * np.exp(-lap_s * lap_T) / lap_s
    v, d, lam, kappa = spectral_measure(state)
    trapezoid = lap_h**2 / 8.0 * np.sum(np.abs(v * d) * (2.0 * lap_s[:, None] + lam), axis=1)
    roundoff = (round(lap_T / lap_h) + 1) * _EPS * lap_h * c_ext
    k = _worst(gap, trapezoid + roundoff)
    add("laplace_series_vs_quadrature", gap[k], trapezoid[k] + roundoff,
        f"s={lap_s[k]:g} trapezoid bound={trapezoid[k]:.3g} roundoff={roundoff:.3g}")

    # Monte Carlo vs analytic survival, and the first-passage triangle: the
    # count returned by T against the mixture's P(tau <= T), within its bound
    sim = cfg.sim._replace(max_paths=cfg.verify_paths)  # and the same jump table
    mc_times = [t for t in (0.5, 1.0, 2.0) if t <= sim.horizon]
    batch = run_paths(sim, query_times=mc_times, workers=workers)
    t_tri = min(cfg.fpt.horizon, sim.horizon)
    mixture = first_passage_mixture(state, t_tri)
    try:
        p_tri = mixture.cdf()
    except SeriesDiverged:  # below -bound, no probability: every return counts against it
        p_tri = -math.inf
    z_survival, z_triangle, returned = mc_agreement(
        batch, survival(state, mc_times).tolist(), t_tri, p_tri, mixture.bound
    )
    add("mc_survival_within_3_sigma", z_survival, 3.0, f"paths={sim.max_paths}")
    add("fpt_triangle_mc_vs_mixture", z_triangle, 3.0,
        f"T={t_tri} returned={returned}/{sim.max_paths} mixture={p_tri:.6g}")

    # the mixture's transform against the renewal identity F = G / (1 + G)
    # over the same measure. Rounding: the K terms of the transform, each
    # of relative error O(eps) in mu_k and rho_k, 8 (K + 2) eps sum_k
    # |term_k|, and G's J + 1 nonnegative terms, (J + 10) eps F. rho_0's
    # cancellation moves f by at most the mixture's roundoff bound at every
    # t, so its transform by that over s. The mixture lumps the entries j
    # >= N (lambda_j T below LUMP_RATE_TIME) into the atom, which raises G
    # by at most 2 kappa sum_{j>=N} v_j lambda_j / s^2 and F by that over
    # (1 + G)^2 (past the measure both sides lump alike); with every entry
    # lumped the empty mixture also drops f = kappa e^{-kappa t}. Each pole
    # moves F most near its own rate, so the s read include every |mu_k|
    rates = np.abs(mixture.mu[mixture.mu != 0.0]).tolist()
    s_all = np.array(sorted({*cfg.fpt.s_ladder, 1e3, 10.0, 1.0, *rates}, reverse=True))
    ev = laplace_G(state, s_all)
    identity = ev.value / (1.0 + ev.value)
    value, size = mixture.transform(s_all)
    gap = abs(value - identity)
    rounding = _EPS * (8.0 * (mixture.mu.size + 2) * size + (ev.inner_terms_max + 10) * identity)
    cancel = mixture.roundoff_bound / s_all
    n = mixture.poles.size - 1
    lumped = 2.0 * kappa * float(np.sum(v[n:] * lam[n:])) / (s_all * (1.0 + ev.value)) ** 2
    lumped += 0.0 if n else kappa / (s_all + kappa)
    bound = rounding + cancel + lumped
    k = _worst(gap, bound)
    add("fpt_mixture_vs_laplace", gap[k], bound[k],
        f"s={s_all[k]:g} T={t_tri} poles={mixture.mu.size} rounding={rounding[k]:.3g} "
        f"roundoff/s={cancel[k]:.3g} lumped={lumped[k]:.3g}")
    return checks


def cmd_verify(cfg: RunConfig, out: Path, workers: int = 1) -> int:
    t0 = time.perf_counter()
    stages: dict[str, float] = {}
    checks = run_verify_checks(cfg, workers=workers, stages=stages)
    passed = all(c["passed"] for c in checks)
    report = {"schema_version": SCHEMA_VERSION, "passed": passed, "checks": checks}
    digests = {"verify_report.json": _write_json(out / "verify_report.json", report)}
    _write_manifest(out, "verify", cfg, digests, t0, stages)
    for c in checks:
        status = "ok " if c["passed"] else "FAIL"
        print(f"[{status}] {c['name']}: {c['observed']:.3e} <= {c['threshold']:.3e}")
    if not passed:
        failed = ", ".join(c["name"] for c in checks if not c["passed"])
        print(f"verify failed: {failed}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _worker_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


#: Each command's function and its one-line description, as ``--help`` lists it.
COMMANDS = {
    "landscape": (cmd_landscape, "spectral table and integrability diagnostics"),
    "kernel": (cmd_kernel, "heat-kernel profiles, survival, decay bounds"),
    "simulate": (cmd_simulate, "Monte Carlo first-passage and survival estimates"),
    "fpt": (cmd_fpt, "flux, first-passage density, Laplace ladder, recurrence"),
    "verify": (cmd_verify, "run the cross-module invariant battery"),
}


def build_parser() -> argparse.ArgumentParser:
    """One flat parser: the command is a positional, so the options may
    come before or after it."""
    parser = argparse.ArgumentParser(
        prog="ultradiff",
        description="Ultrametric diffusion on Q_p^n: spectral kernels, heat kernels,\n"
        "exact jump simulation, first-passage analysis.",
        epilog="commands:\n" + "".join(f"  {k:<10} {v}\n" for k, (_, v) in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=COMMANDS, metavar="command",
                        help="one of the commands listed below")
    parser.add_argument("--config", required=True, help="path to the run config JSON")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--workers", type=_worker_count, help="simulate and verify only: "
                        "parallel path workers, default 1 (at most the CPU count are started)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    mc = args.command in MC_COMMANDS
    if args.workers is not None and not mc:
        parser.error(f"argument --workers: not allowed with {args.command}, "
                     f"only with {' and '.join(MC_COMMANDS)}")
    try:
        cfg = load_run_config(args.config, seed_override=args.seed)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    out = resolve_out_dir(cfg, args.out, args.command)
    out.mkdir(parents=True, exist_ok=True)
    run = COMMANDS[args.command][0]
    try:
        return run(cfg, out, workers=args.workers or 1) if mc else run(cfg, out)
    except UltradiffError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
