"""Command-line front end: reproducible runs with manifests.

Subcommands (all take --config, and optionally --out and --seed):

* ``landscape`` — spectral table and integrability diagnostics;
* ``kernel``    — heat-kernel profiles, survival, decay-bound report;
* ``simulate``  — Monte Carlo paths: first-passage samples and survival
  estimates with standard errors;
* ``fpt``       — flux g, Volterra-solved first-passage density f, Laplace
  ladder, recurrence verdict;
* ``verify``    — the cross-module invariant battery; nonzero exit on any
  failed check.

Every command is deterministic given (config, seed): artifacts are written
with 17-significant-digit numeric fields and listed with sha256 checksums
in a per-run ``manifest.json``, whose timing fields (wall clock, verify's
``stages``) alone differ between reruns. The commands hand numpy columns
to ``_write_csv`` (``_csv.write_csv``), which writes each cell with the
bytes of ``'%.17g' % x`` from certified digits, in row blocks. The default
output root can be set with the ``ULTRADIFF_OUT`` environment variable.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

import numpy as np

from . import __version__
from ._csv import write_csv as _write_csv
from .errors import ConfigError, UltradiffError
from .heat import (
    HeatState,
    chapman_kolmogorov_defect,
    conservation_audits,
    decay_bound_check,
    du_dt,
    escape_depths,
    pde_residual,
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
    spectral,
    spectral_bound_check,
    spectral_by_quadrature,
    spectral_gap_at_one,
)
from .fpt import (
    g_grid,
    laplace_G,
    laplace_g_quadrature,
    recurrence_diagnostic,
    solve_volterra,
)
from .padic import SpaceParams, ZERO_NORM, is_prime
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


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FptBlock:
    h: float
    horizon: float
    s_ladder: tuple[float, ...]
    recurrence_threshold: float = 1e3


@dataclass(frozen=True)
class KernelBlock:
    times: tuple[float, ...]
    x_exps: tuple[int, ...]


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run configuration (one JSON document of record)."""

    landscape: LandscapeParams
    sim: SimConfig
    fpt: FptBlock
    kernel: KernelBlock
    verify_paths: int
    out_dir: str | None
    raw: dict

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
        depth_cap=_get(simb, "sim.depth_cap", int, default=64, required=False),
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


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_manifest(
    out: Path, command: str, cfg: RunConfig, artifacts: list[str], t0: float,
    stages: dict[str, float] | None = None,
) -> None:
    checks = {}
    for name in sorted(artifacts):
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        checks[name] = digest
    _write_json(
        out / "manifest.json",
        {
            "schema_version": SCHEMA_VERSION,
            "tool": "ultradiff",
            "tool_version": __version__,
            "command": command,
            "wall_clock_s": time.perf_counter() - t0,
            "config": cfg.resolved_echo(),
            "artifacts": checks,
            **({"rng_protocol": RNG_PROTOCOL} if command in MC_COMMANDS else {}),
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
    columns = [ks, 1.0 - cache.values, cache.values]
    _write_csv(out / "spectral.csv", ["k", "jhat", "one_minus_jhat"], columns)

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
    _write_json(out / "diagnostics.json", diag)
    _write_manifest(out, "landscape", cfg, ["spectral.csv", "diagnostics.json"], t0)
    return 0


def cmd_kernel(cfg: RunConfig, out: Path) -> int:
    t0 = time.perf_counter()
    state = HeatState(cfg.landscape)
    times = cfg.kernel.times
    x_exps = cfg.kernel.x_exps

    # one engine call per quantity; tables have rows i, columns t, written
    # in the stable (i, t) order of their flattened grid
    u = u_table(state, x_exps, times)
    z = ztilde_table(state, x_exps, times)
    i_flat, t_flat = np.repeat(x_exps, len(times)), np.tile(times, len(x_exps))
    order = np.lexsort((t_flat, i_flat))
    keys = [i_flat[order], t_flat[order]]
    for name, table in (("u_profile.csv", u), ("ztilde.csv", z)):
        columns = keys + [table.ravel()[order]]
        _write_csv(out / name, ["norm_exp", "t", "value"], columns)

    defects = [audit.defect for audit in conservation_audits(state, times)]
    columns = [times, survival(state, times), defects]
    _write_csv(out / "survival.csv", ["t", "value", "conservation_defect"], columns)

    pos_exps = [i for i in x_exps if i >= 1] or list(range(1, 11))
    pos_times = [t for t in times if t > 0] or [1.0]
    report: dict = {"schema_version": SCHEMA_VERSION}
    if -state.space.n < cfg.landscape.gamma < 0:
        deep = [i for i in pos_exps if i >= 2] or list(range(2, 13))
        decay = decay_bound_check(state, deep, pos_times, l=1)
        report["decay_bounds"] = {
            "l": 1,
            "c0": decay.c0,
            "min_uniform_margin": min(decay.uniform_margins),
            "min_claim_margin": min(decay.claim_margins),
            "min_decay_margin": min(decay.decay_margins),
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
        margins = [
            2.0 * t * float(state.space.p) ** (-i * state.space.n) - v
            for i, row in zip(pos_exps, z_pos.tolist())
            for t, v in zip(pos_times, row)
        ]
        report["decay_bounds"] = {
            "min_uniform_margin": min(margins),
            "all_nonnegative": all(m >= 0 for m in margins),
            "note": "exponential decay bound needs gamma in (-n, 0)",
        }
    _write_json(out / "bounds_report.json", report)
    _write_manifest(
        out,
        "kernel",
        cfg,
        ["u_profile.csv", "ztilde.csv", "survival.csv", "bounds_report.json"],
        t0,
    )
    return 0


def cmd_simulate(cfg: RunConfig, out: Path, workers: int = 1) -> int:
    t0 = time.perf_counter()
    times = [t for t in cfg.kernel.times if 0 < t <= cfg.sim.horizon]
    batch = run_paths(cfg.sim, query_times=times, workers=workers)

    columns = [
        np.arange(len(batch.tau)),
        batch.tau,
        np.isnan(batch.tau).astype(int),
        batch.exited.astype(int),
    ]
    header = ["path_index", "tau", "censored", "exited"]
    _write_csv(out / "fpt_samples.csv", header, columns, blank_nan=("tau",))

    estimates = survival_estimates(batch)
    header = ["t", "estimate", "stderr", "n_paths"]
    columns = [[getattr(e, name) for e in estimates] for name in header]
    _write_csv(out / "survival_mc.csv", header, columns)
    _write_manifest(out, "simulate", cfg, ["fpt_samples.csv", "survival_mc.csv"], t0)
    return 0


def cmd_fpt(cfg: RunConfig, out: Path) -> int:
    t0 = time.perf_counter()
    state = HeatState(cfg.landscape)
    h, T = cfg.fpt.h, cfg.fpt.horizon
    ts = np.arange(0.0, T + h / 2.0, h)
    g = g_grid(state, ts)
    grid = solve_volterra(g, h)
    columns = [ts, g, grid.f_for_export()]
    _write_csv(out / "g_f.csv", ["t", "g", "f"], columns)

    rec = recurrence_diagnostic(
        cfg.landscape, state.cache, cfg.fpt.s_ladder, cfg.fpt.recurrence_threshold
    )
    columns = [rec.s_values, rec.g_values]
    _write_csv(out / "laplace_ladder.csv", ["s", "G"], columns)
    _write_json(
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
            "return_probability_censored": grid.integral_f(),
            "volterra_max_residual": float(np.abs(grid.residual()).max()),
        },
    )
    _write_manifest(
        out,
        "fpt",
        cfg,
        ["g_f.csv", "laplace_ladder.csv", "recurrence_verdict.json"],
        t0,
    )
    return 0


# ---------------------------------------------------------------------------
# verify: the cross-module invariant battery
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4)
def _log_factorials(n: int) -> np.ndarray:
    """log m! for m = 0..n, one table per n (verify scores several counts
    out of the same number of paths)."""
    log_fact = np.array(list(map(math.lgamma, range(1, n + 2))), dtype=float)
    log_fact.setflags(write=False)
    return log_fact


def binomial_tail_z(k: int, n: int, q: float) -> float:
    """The exact two-sided tail of k under Binomial(n, q), as a normal z:
    -Phi^{-1}(min(P(K <= k), P(K >= k), 1/2)), inf when it underflows.

    Unlike a plug-in z score it divides by no estimated stderr, which is 0
    when no path (or every path) counted.
    """
    i = np.arange(n + 1)
    log_fact = _log_factorials(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_qs = np.where(i > 0, i * np.log(q), 0.0)
        log_qs += np.where(i < n, (n - i) * np.log1p(-q), 0.0)
    pmf = np.exp(log_fact[n] - log_fact - log_fact[::-1] + log_qs)
    # only the nonzero terms: the rest underflowed to exact zeros
    tail = min(*(math.fsum(x[x != 0.0]) for x in (pmf[: k + 1], pmf[k:])), 0.5)
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
    q = min(max(p_mc, integral - slack, 0.0), integral + slack, 1.0)
    return z_survival, binomial_tail_z(returned, n, q), returned


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
    ub = UnitBallKernel(space)
    err = max(
        abs(spectral(ub, k) - (1.0 if k <= 0 else 0.0)) for k in range(-6, 7)
    )
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
    c_ext = exterior_mass(params)
    flux_ts = (0.5, 1.0, 2.0)
    surv = survival(state, [t + d for t in flux_ts for d in (*shifts, 0.0)]).reshape(-1, 5)
    ode = max(
        abs(ddt(f) - (g_grid(state, [t])[0] - c_ext * f[4])) for t, f in zip(flux_ts, surv)
    )
    add("survival_flux_balance", ode, 1e-6)

    # Volterra solver against the closed-form exponential-flux oracle
    h = cfg.fpt.h
    ts = np.arange(0.0, 10.0 + h / 2, h)
    a, b = 0.5, 1.0
    synthetic = solve_volterra(a * np.exp(-b * ts), h)
    err = float(np.max(np.abs(synthetic.f - a * np.exp(-(a + b) * ts))))
    add("volterra_synthetic_oracle", err, 50.0 * h * h)
    # the solve satisfies its trapezoid equations, so the residual is
    # roundoff; a scheme that drops a quadrature weight leaves O(h) here
    add(
        "volterra_residual",
        float(np.max(np.abs(synthetic.residual()))),
        1e-12 * max(1.0, float(np.max(np.abs(synthetic.g)))),
        "roundoff bound 1e-12 max(1, max|g|)",
    )

    # Laplace series vs direct quadrature of g
    lap_T, lap_s = 50.0, (0.5, 1.0, 2.0)
    quadrature = laplace_g_quadrature(state, lap_s, horizon=lap_T, h=1e-2)
    err = max(
        abs(laplace_G(params, cache, s).value - q)
        - c_ext * math.exp(-s * lap_T) / s  # quadrature's own tail allowance
        for s, q in zip(lap_s, quadrature)
    )
    add("laplace_series_vs_quadrature", err, 1e-4)

    # Monte Carlo vs analytic survival, and the first-passage triangle
    sim = SimConfig(
        landscape=params,
        horizon=cfg.sim.horizon,
        max_paths=cfg.verify_paths,
        seed=cfg.sim.seed,
        j_max=cfg.sim.j_max,
        depth_cap=cfg.sim.depth_cap,
    )
    mc_times = [t for t in (0.5, 1.0, 2.0) if t <= sim.horizon]
    batch = run_paths(sim, query_times=mc_times, workers=workers)
    t_tri = min(cfg.fpt.horizon, sim.horizon)
    grid = solve_volterra(g_grid(state, np.arange(0.0, t_tri + h / 2, h)), h)
    integral = grid.integral_f(t_tri)
    z_survival, z_triangle, returned = mc_agreement(
        batch, survival(state, mc_times).tolist(), t_tri, integral, 10.0 * h * h
    )
    add("mc_survival_within_3_sigma", z_survival, 3.0, f"paths={sim.max_paths}")
    add(
        "fpt_triangle_mc_vs_volterra",
        z_triangle,
        3.0,
        f"T={t_tri} returned={returned}/{sim.max_paths} volterra={integral:.6g}",
    )
    return checks


def cmd_verify(cfg: RunConfig, out: Path, workers: int = 1) -> int:
    t0 = time.perf_counter()
    stages: dict[str, float] = {}
    checks = run_verify_checks(cfg, workers=workers, stages=stages)
    passed = all(c["passed"] for c in checks)
    _write_json(
        out / "verify_report.json",
        {
            "schema_version": SCHEMA_VERSION,
            "passed": passed,
            "checks": checks,
        },
    )
    _write_manifest(out, "verify", cfg, ["verify_report.json"], t0, stages)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultradiff",
        description="Ultrametric diffusion on Q_p^n: spectral kernels, heat "
        "kernels, exact jump simulation, first-passage analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("landscape", "spectral table and integrability diagnostics"),
        ("kernel", "heat-kernel profiles, survival, decay bounds"),
        ("simulate", "Monte Carlo first-passage and survival estimates"),
        ("fpt", "flux, first-passage density, Laplace ladder, recurrence"),
        ("verify", "run the cross-module invariant battery"),
    ]:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="path to the run config JSON")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument(
            "--seed", type=int, default=None, help="override the config seed"
        )
        if name in MC_COMMANDS:
            sp.add_argument(
                "--workers",
                type=_worker_count,
                default=1,
                help="parallel path workers (at most the CPU count are started)",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_run_config(args.config, seed_override=args.seed)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    out = resolve_out_dir(cfg, args.out, args.command)
    out.mkdir(parents=True, exist_ok=True)
    try:
        if args.command == "landscape":
            return cmd_landscape(cfg, out)
        if args.command == "kernel":
            return cmd_kernel(cfg, out)
        if args.command == "simulate":
            return cmd_simulate(cfg, out, workers=args.workers)
        if args.command == "fpt":
            return cmd_fpt(cfg, out)
        if args.command == "verify":
            return cmd_verify(cfg, out, workers=args.workers)
    except UltradiffError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
