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
in a per-run ``manifest.json`` (whose wall-clock field is the one value
allowed to differ between identical reruns). The default output root can
be set with the ``ULTRADIFF_OUT`` environment variable.
"""

from __future__ import annotations

import argparse
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
from .errors import ConfigError, UltradiffError
from .heat import (
    HeatState,
    chapman_kolmogorov_defect,
    conservation_audit,
    decay_bound_check,
    du_dt,
    escape_depth,
    pde_residual,
    survival,
    u_profile,
    u_radial_profile,
    ztilde,
    ztilde_radial_profile,
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
    g_of_t,
    laplace_G,
    laplace_g_quadrature,
    recurrence_diagnostic,
    return_probability,
    solve_volterra,
)
from .padic import SpaceParams, ZERO_NORM, is_prime
from .sim import SimConfig, fpt_cdf_estimate, run_paths, survival_estimates

SCHEMA_VERSION = 1
OUT_ENV_VAR = "ULTRADIFF_OUT"
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


def _get(block: dict, path: str, typ, default=None, required=True):
    head, _, key = path.rpartition(".")
    if key not in block:
        if required:
            raise ConfigError(f"{path}: missing required field")
        return default
    val = block[key]
    if typ is float and isinstance(val, int) and not isinstance(val, bool):
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
    steps = fpt_T / h
    if abs(steps - round(steps)) > 1e-9:
        raise ConfigError(f"fpt.T: must be an integer multiple of h, got T={fpt_T}, h={h}")
    ladder = fptb.get("s_ladder")
    if not isinstance(ladder, list) or not ladder or any(
        not _is_a(s, (int, float)) or s <= 0 for s in ladder
    ):
        raise ConfigError("fpt.s_ladder: must be a nonempty list of positive numbers")
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigError("fpt.s_ladder: must be strictly decreasing")
    fpt = FptBlock(
        h=h,
        horizon=fpt_T,
        s_ladder=tuple(float(s) for s in ladder),
        recurrence_threshold=_get(
            fptb, "fpt.recurrence_threshold", float, default=1e3, required=False
        ),
    )

    kern = raw.get("kernel", {})
    if not isinstance(kern, dict):
        raise ConfigError("kernel: must be a block")
    times = kern.get("times", [0.1, 0.5, 1.0, 2.0, 5.0])
    x_exps = kern.get("x_exps", list(range(-5, 11)))
    if not isinstance(times, list) or any(
        not _is_a(t, (int, float)) or t < 0 for t in times
    ):
        raise ConfigError("kernel.times: must be a list of nonnegative numbers")
    # Ztilde and the decay bounds scale by p^{-n i}, which must stay a double
    if not isinstance(x_exps, list) or any(
        not _is_a(i, int) or abs(i) * n * params.space.log_p >= _LOG_FLOAT_MAX
        for i in x_exps
    ):
        raise ConfigError("kernel.x_exps: must be integers i with p^(n|i|) finite")
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


def _write_csv(path: Path, header: list[str], rows) -> None:
    """str cells as they are; numbers, as Python floats or ints, in .17g."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join([c if isinstance(c, str) else f"{c:.17g}" for c in row]))
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_manifest(
    out: Path, command: str, cfg: RunConfig, artifacts: list[str], t0: float
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
    ks = range(cache.k_min, cache.k_max + 1)
    rows = [[k, 1.0 - om, om] for k, om in zip(ks, cache.values.tolist())]
    _write_csv(out / "spectral.csv", ["k", "jhat", "one_minus_jhat"], rows)

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

    u_rows, z_rows = [], []
    for t in times:
        u_prof = u_radial_profile(state, x_exps, t)
        z_prof = ztilde_radial_profile(state, x_exps, t)
        u_rows += [[i, t, u_prof.values[i]] for i in x_exps]
        z_rows += [[i, t, z_prof.values[i]] for i in x_exps]
    u_rows.sort(key=lambda r: (r[0], r[1]))
    z_rows.sort(key=lambda r: (r[0], r[1]))
    _write_csv(out / "u_profile.csv", ["norm_exp", "t", "value"], u_rows)
    _write_csv(out / "ztilde.csv", ["norm_exp", "t", "value"], z_rows)

    s_rows = []
    for t in times:
        audit = conservation_audit(state, t)
        s_rows.append([t, survival(state, t), audit.defect])
    _write_csv(out / "survival.csv", ["t", "value", "conservation_defect"], s_rows)

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
        # only the uniform 2 t |x|^{-n} bound applies outside gamma in (-n,0)
        margins = [
            2.0 * t * float(state.space.p) ** (-i * state.space.n)
            - ztilde(state, i, t)
            for i in pos_exps
            for t in pos_times
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

    rows = []
    for idx in range(cfg.sim.max_paths):
        tau = batch.tau[idx]
        censored = math.isnan(tau)
        rows.append(
            [
                str(idx),
                "" if censored else float(tau),
                "1" if censored else "0",
                "1" if batch.exited[idx] else "0",
            ]
        )
    _write_csv(
        out / "fpt_samples.csv", ["path_index", "tau", "censored", "exited"], rows
    )

    est_rows = [
        [e.t, e.estimate, e.stderr, str(e.n_paths)] for e in survival_estimates(batch)
    ]
    _write_csv(
        out / "survival_mc.csv", ["t", "estimate", "stderr", "n_paths"], est_rows
    )
    _write_manifest(out, "simulate", cfg, ["fpt_samples.csv", "survival_mc.csv"], t0)
    return 0


def cmd_fpt(cfg: RunConfig, out: Path) -> int:
    t0 = time.perf_counter()
    state = HeatState(cfg.landscape)
    h, T = cfg.fpt.h, cfg.fpt.horizon
    ts = np.arange(0.0, T + h / 2.0, h)
    g = g_grid(state, ts)
    grid = solve_volterra(g, h)
    f_out = grid.f_for_export()
    rows = zip(ts.tolist(), g.tolist(), f_out.tolist())
    _write_csv(out / "g_f.csv", ["t", "g", "f"], rows)

    cache = state.cache
    ladder_rows = [
        [s, laplace_G(cfg.landscape, cache, s).value] for s in cfg.fpt.s_ladder
    ]
    _write_csv(out / "laplace_ladder.csv", ["s", "G"], ladder_rows)

    rec = recurrence_diagnostic(
        cfg.landscape, cache, cfg.fpt.s_ladder, cfg.fpt.recurrence_threshold
    )
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
            "return_probability_censored": return_probability(grid),
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


def binomial_tail_z(k: int, n: int, q: float) -> float:
    """The exact two-sided tail of k under Binomial(n, q), as a normal z:
    -Phi^{-1}(min(P(K <= k), P(K >= k), 1/2)), inf when it underflows.

    Unlike a plug-in z score it divides by no estimated stderr, which is 0
    when no path (or every path) counted.
    """
    i = np.arange(n + 1)
    log_fact = np.array([math.lgamma(m + 1.0) for m in range(n + 1)])
    with np.errstate(divide="ignore", invalid="ignore"):
        log_qs = np.where(i > 0, i * np.log(q), 0.0)
        log_qs += np.where(i < n, (n - i) * np.log1p(-q), 0.0)
    pmf = np.exp(log_fact[n] - log_fact - log_fact[::-1] + log_qs)
    tail = min(math.fsum(pmf[: k + 1]), math.fsum(pmf[k:]), 0.5)
    return math.inf if tail == 0.0 else abs(NormalDist().inv_cdf(tail))


def run_verify_checks(
    cfg: RunConfig, cache: SpectralCache | None = None, workers: int = 1
) -> list[dict]:
    """Execute every cross-module check; a tampered cache may be injected
    (test hook) to prove the battery actually bites."""
    params = cfg.landscape
    space = params.space
    state = HeatState(params, cache=cache)
    cache = state.cache
    checks: list[dict] = []

    def add(name: str, observed: float, threshold: float, extra: str = ""):
        checks.append(
            {
                "name": name,
                "observed": float(observed),
                "threshold": float(threshold),
                "passed": bool(observed <= threshold),
                "detail": extra,
            }
        )

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
    audits = [conservation_audit(state, t) for t in (0.1, 0.5, 1.0, 5.0, 20.0)]
    w = max(audits, key=lambda a: a.tail_bound)
    evidence = f"tail_bound={w.tail_bound:.3g} window={list(w.window)} t={w.t:g}"
    add("conservation", max(a.defect for a in audits), 1e-8, evidence)

    # Chapman-Kolmogorov on the lumped norm chain
    pairs = ((0.5, 0.5), (1.0, 2.0))
    ck = max(chapman_kolmogorov_defect(state, t, s) for t, s in pairs)
    depths, escapes = zip(*(escape_depth(params, t + s) for t, s in pairs))
    evidence = f"depth<={max(depths)} escape<={max(escapes):.3g}"
    add("chapman_kolmogorov", ck, 1e-6, evidence)

    # evolution-equation residual and the time-derivative series
    pts = [(i, t) for i in (ZERO_NORM, 1, 2, 3) for t in (0.1, 0.5, 1.0, 2.0, 5.0)]
    res = max(abs(pde_residual(state, i, t)) for i, t in pts)
    add("evolution_residual", res, 1e-6, f"{len(pts)} points")

    def ddt(f, t: float, h: float = 1e-3) -> float:
        """Five-point central difference: error h^4 f^(5) / 30 plus eps / h."""
        return (f(t - 2 * h) - 8 * f(t - h) + 8 * f(t + h) - f(t + 2 * h)) / (12 * h)

    fd_err = max(
        abs(du_dt(state, i, t) - ddt(lambda s: u_profile(state, i, s), t))
        for i, t in ((2, 1.0), (ZERO_NORM, 0.5), (1, 2.0))
    )
    add("du_dt_vs_finite_difference", fd_err, 1e-6)

    # survival flux balance S' = g - C S
    c_ext = exterior_mass(params)
    ode = max(
        abs(
            ddt(lambda s: survival(state, s), t)
            - (g_of_t(state, t) - c_ext * survival(state, t))
        )
        for t in (0.5, 1.0, 2.0)
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
    lap_T = 50.0
    err = max(
        abs(
            laplace_G(params, cache, s).value
            - laplace_g_quadrature(state, s, horizon=lap_T, h=1e-2)
        )
        - c_ext * math.exp(-s * lap_T) / s  # quadrature's own tail allowance
        for s in (0.5, 1.0, 2.0)
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
    # exact two-sided Binomial(N, 1 - S(t)) tail of the count of paths outside
    worst_z = max(
        (
            binomial_tail_z(int(k), sim.max_paths, max(0.0, 1.0 - survival(state, t)))
            for k, t in zip((~batch.inside_at).sum(axis=0), mc_times)
        ),
        default=0.0,
    )
    add("mc_survival_within_3_sigma", worst_z, 3.0, f"paths={sim.max_paths}")

    # exact Binomial(N, q) tail of the count of paths returned by T, with q
    # the point of [I - 10h^2, I + 10h^2] (the quadrature allowance on
    # I = int_0^T f) nearest the observed fraction
    t_tri = min(cfg.fpt.horizon, sim.horizon)
    grid = solve_volterra(g_grid(state, np.arange(0.0, t_tri + h / 2, h)), h)
    p_mc, _ = fpt_cdf_estimate(batch, t_tri)
    returned = round(p_mc * sim.max_paths)
    integral, slack = grid.integral_f(t_tri), 10.0 * h * h
    q = min(max(p_mc, integral - slack, 0.0), integral + slack, 1.0)
    add(
        "fpt_triangle_mc_vs_volterra",
        binomial_tail_z(returned, sim.max_paths, q),
        3.0,
        f"T={t_tri} returned={returned}/{sim.max_paths} volterra={integral:.6g}",
    )
    return checks


def cmd_verify(cfg: RunConfig, out: Path, workers: int = 1) -> int:
    t0 = time.perf_counter()
    checks = run_verify_checks(cfg, workers=workers)
    passed = all(c["passed"] for c in checks)
    _write_json(
        out / "verify_report.json",
        {
            "schema_version": SCHEMA_VERSION,
            "passed": passed,
            "checks": checks,
        },
    )
    _write_manifest(out, "verify", cfg, ["verify_report.json"], t0)
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
        if name in ("simulate", "verify"):
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
