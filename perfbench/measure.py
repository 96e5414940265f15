"""The timed loop inside the worker: iterations, gates and metrics.

Untraced iterations give the end-to-end metrics. With tracing on, the
loop alternates an untraced and a traced iteration; the traced ones give
the per-layer metrics, and the difference of the two medians of
``wall_s`` is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import statistics
import time
import traceback
from collections import defaultdict
from pathlib import Path

import checks
from calibrate import REFERENCE_S, reference_seconds
from spans import Tracer, layer_self_times, span_times
from workloads import COMMANDS, Step

# the speed factor of a step is the median over it and its two neighbours
# on each side: one 3 ms reference sample is noisier than the slow spells
# it tracks are short
SMOOTH_HALF_WIDTH = 2

HEAT_PROFILE = ("heat.u_radial_profile", "heat.ztilde_radial_profile",
                "heat.u_profile", "heat.ztilde", "heat.du_dt")


def run_iteration(cli, steps: list[Step], seed: int, tracer: Tracer | None = None) -> dict:
    """Run every step once.

    Returns per step label the raw seconds, the speed factor from the
    reference load timed before and after the step (``calibrate.py``),
    and the exit code.
    """
    seconds, factor, codes, errors = {}, {}, {}, {}
    ref = reference_seconds()
    for step in steps:
        argv = step.argv(seed)
        # each CLI command normally starts on a fresh heap; start each step
        # without the previous step's garbage, outside the timing
        gc.collect()
        root = tracer.span(f"cli.{step.command}") if tracer else contextlib.nullcontext()
        # the CLI prints verify's check lines; keep them out of the result
        with contextlib.redirect_stdout(io.StringIO()), root:
            t0 = time.perf_counter()
            try:
                codes[step.label] = cli.main(argv)
            except Exception:  # a crashed command is a failed operation
                codes[step.label] = None
                errors[step.label] = traceback.format_exc(limit=3)
            seconds[step.label] = time.perf_counter() - t0
        ref_after = reference_seconds()
        factor[step.label] = REFERENCE_S / (0.5 * (ref + ref_after))
        ref = ref_after
    return {"seconds": seconds, "factor": factor, "codes": codes, "errors": errors}


def check_iteration(steps: list[Step], it: dict, first_hashes: dict | None,
                    ledger: checks.Ledger) -> dict:
    """Gate one iteration's artifacts; returns its manifest hashes."""
    hashes = {}
    for step in steps:
        out = Path(step.out)
        code = it["codes"][step.label]
        report = out / "verify_report.json"
        if step.command == "verify" and code is not None and report.exists():
            passed, items = checks.verify_report(out)
            for c in items:
                ledger.check(c["passed"], f"{step.label}: verify check {c['name']} "
                             f"observed {c['observed']:.3e} > {c['threshold']:.3e}")
            ledger.check(passed, f"{step.label}: verify_report passed is false")
        if not ledger.check(code == 0, f"{step.label}: exit code {code} "
                            f"{it['errors'].get(step.label, '')}"):
            continue
        hashes[step.label] = checks.artifact_hashes(out)
        ledger.check(checks.manifest_matches(out), f"{step.label}: manifest sha256 mismatch")
        if first_hashes is not None:
            ledger.check(hashes[step.label] == first_hashes.get(step.label),
                         f"{step.label}: artifacts differ from the first iteration")
        if step.expect_recurrent:
            ok, detail = checks.fpt_verdict_holds(out)
            ledger.check(ok, f"{step.label}: recurrence gate failed: {detail}")

    # Monte Carlo survival against the analytic survival of the same config
    by_config = defaultdict(dict)
    for step in steps:
        if step.label in hashes:  # the command succeeded
            by_config[step.config][step.command] = Path(step.out)
    pairs = [(o["kernel"], o["simulate"]) for o in by_config.values()
             if "kernel" in o and "simulate" in o]
    n_comparisons = sum(checks.count_mc_points(sim) for _, sim in pairs)
    for kern, sim in pairs:
        for t, z, limit, ok in checks.survival_agreement(kern, sim, n_comparisons):
            ledger.check(ok, f"{sim}: MC survival at t={t}: |z|={z:.3g} > {limit:.3g}")
    return hashes


def command_seconds(steps: list[Step], step_seconds: dict) -> dict:
    """Seconds per command, summed over the steps that run it."""
    out = {c: 0.0 for c in COMMANDS}
    for step in steps:
        out[step.command] += step_seconds[step.label]
    return out


def layer_metrics(tracer: Tracer, artifact_bytes: int, factor: float) -> dict:
    """Per-layer metrics of one traced iteration, with span seconds scaled
    by the iteration's speed ``factor`` (inclusive unless the name ends in
    ``self_s``)."""
    inc, slf = ({k: v * factor for k, v in d.items()} for d in span_times(tracer.spans))
    layer = layer_self_times(slf)
    c = tracer.counts
    paths, run_s = c.get("sim.paths", 0), inc.get("sim.run_paths", 0.0)
    draws = c.get("sim.jump_draws", 0)
    m = {
        "sim.run_paths_s": run_s,
        "sim.us_per_path": 1e6 * run_s / paths if paths else 0.0,
        "sim.mc_paths_per_s": paths / run_s if run_s else 0.0,
        "sim.paths": paths,
        "sim.jumps_per_path": c.get("sim.jumps", 0) / paths if paths else 0.0,
        "sim.moving_jump_fraction": c.get("sim.moving_jumps", 0) / draws if draws else 0.0,
        "sim.jump_table_build_s": inc.get("sim.jump_table_build", 0.0),
        "sim.jump_table_entries": c.get("sim.jump_table_entries", 0),
        "padic.split_stream_s": inc.get("padic.split_stream", 0.0),
        "padic.split_stream_calls": sum(rec[0] == "padic.split_stream" for rec in tracer.spans),
        "fpt.g_grid_s": inc.get("fpt.g_grid", 0.0),
        "fpt.grid_points": c.get("fpt.grid_points", 0),
        "fpt.solve_volterra_s": inc.get("fpt.solve_volterra", 0.0),
        "fpt.residual_s": inc.get("fpt.residual", 0.0),
        "fpt.laplace_G_s": inc.get("fpt.laplace_G", 0.0),
        "fpt.laplace_G_calls": c.get("fpt.laplace_G_calls", 0),
        "fpt.laplace_inner_terms": c.get("fpt.laplace_inner_terms", 0),
        "heat.profile_s": sum(inc.get(n, 0.0) for n in HEAT_PROFILE),
        "heat.survival_s": inc.get("heat.survival", 0.0),
        "heat.conservation_audit_s": inc.get("heat.conservation_audit", 0.0),
        "heat.conservation_audit_calls": c.get("heat.conservation_audit_calls", 0),
        "heat.decay_bound_check_s": inc.get("heat.decay_bound_check", 0.0),
        "heat.chapman_kolmogorov_s": inc.get("heat.chapman_kolmogorov_defect", 0.0),
        "heat.pde_residual_s": inc.get("heat.pde_residual", 0.0),
        "landscape.normalize_s": inc.get("landscape.normalize", 0.0),
        "landscape.spectral_cache_build_s": inc.get("landscape.spectral_cache_build", 0.0),
        "landscape.spectral_cache_entries": c.get("landscape.spectral_cache_entries", 0),
        "cli.artifact_bytes": artifact_bytes,
        "trace.spans": len(tracer.spans),
    }
    for name in layer:
        m[f"{name}.self_s"] = layer[name]
    for cmd in COMMANDS:
        m[f"cli.{cmd}.self_s"] = slf.get(f"cli.{cmd}", 0.0)
    return m


def _median_of(rows: list[dict]) -> dict:
    """Median per key; counts stay whole numbers (the lower median)."""
    out = {}
    for k in rows[0]:
        vals = [r[k] for r in rows]
        ints = all(isinstance(v, int) for v in vals)
        out[k] = statistics.median_low(vals) if ints else statistics.median(vals)
    return out


def smoothed(factors: list[float], half_width: int = SMOOTH_HALF_WIDTH) -> list[float]:
    """Running median of the speed factors, in the order the steps ran."""
    return [statistics.median(factors[max(0, i - half_width): i + half_width + 1])
            for i in range(len(factors))]


def run_plan(cli, plan: dict) -> dict:
    """Iterate the plan's steps for its seconds; gate and measure each pass.

    Each step's seconds are scaled to the reference speed measured around
    it (``smoothed``), and span seconds by their iteration's mean factor.
    Timings are medians per step over the iterations of one mode, summed
    over the steps.
    """
    steps = [Step(**s) for s in plan["steps"]]
    seed, seconds, traced = plan["seed"], plan["seconds"], plan["trace"]
    modes = ("plain", "traced") if traced else ("plain",)
    ledger = checks.Ledger()
    first_hashes = None
    iterations, durations, missing = [], defaultdict(list), set()

    start = time.perf_counter()
    while True:
        mode = modes[len(iterations) % len(modes)]
        t_iter = time.perf_counter()
        tracer = Tracer() if mode == "traced" else None
        if tracer:
            with tracer.installed():
                it = run_iteration(cli, steps, seed, tracer)
            missing.update(tracer.missing)
            it["bytes"] = sum(checks.artifact_bytes(Path(s.out)) for s in steps)
        else:
            it = run_iteration(cli, steps, seed)
        hashes = check_iteration(steps, it, first_hashes, ledger)
        if first_hashes is None:
            first_hashes = hashes
        iterations.append((mode, tracer, it))
        durations[mode].append(time.perf_counter() - t_iter)
        elapsed = time.perf_counter() - start
        upcoming = durations[modes[len(iterations) % len(modes)]]
        if len(iterations) >= len(modes) and elapsed + statistics.median(upcoming) > seconds:
            break

    factors = iter(smoothed([f for _, _, it in iterations for f in it["factor"].values()]))
    raw, scaled, traced_rows, spans_out = defaultdict(list), defaultdict(list), [], []
    for mode, tracer, it in iterations:
        raw[mode].append(it["seconds"])
        scaled[mode].append({k: v * next(factors) for k, v in it["seconds"].items()})
        if tracer:
            factor = sum(scaled[mode][-1].values()) / sum(it["seconds"].values())
            traced_rows.append(layer_metrics(tracer, it["bytes"], factor))
            spans_out.append({"spans": tracer.spans, "counts": tracer.counts,
                              "speed_factor": factor})

    plain = command_seconds(steps, _median_of(scaled["plain"]))
    result = {
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.failures,
        "step_seconds_raw": dict(raw),
        "step_seconds": dict(scaled),
        "artifacts": first_hashes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": __import__("numpy").__version__,
        "missing_targets": sorted(missing),
    }
    if traced:
        layers = _median_of(traced_rows)
        for cmd in COMMANDS:
            layers[f"cli.{cmd}_s"] = plain[cmd]
        traced_s = command_seconds(steps, _median_of(scaled["traced"]))
        layers["trace.wall_s"] = sum(traced_s.values())
        layers["trace.untraced_wall_s"] = sum(plain.values())
        layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
        result["per_layer"] = layers
        spans_json = json.dumps({"iterations": spans_out}, separators=(",", ":"))
        Path(plan["spans"]).write_text(spans_json)
    else:
        result["end_to_end"] = {
            "wall_s": sum(plain.values()),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    return result
