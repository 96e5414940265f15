"""Self-test of the benchmark (not part of the package's test suite).

    python3 -m pytest perfbench -q

Checks the self-time arithmetic, that every wrapper fires and is removed,
the Monte Carlo agreement gate, a tiny run of each workload through
``run.py``, and that ``run.py`` refuses a directory without the package.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import measure
import workloads
from spans import TARGETS, Tracer, _resolve, layer_self_times, span_times

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_arithmetic():
    spans = [
        ["cli.fpt", 0.0, 10.0, -1],
        ["fpt.g_grid", 1.0, 4.0, 0],
        ["fpt.g_grid", 2.0, 3.0, 1],  # re-entry: not counted twice inclusive
        ["heat.survival", 5.0, 9.0, 0],
        ["padic.split_stream", 6.0, 6.5, 3],
        ["cli.kernel", 11.0, 12.0, -1],
    ]
    inc, slf = span_times(spans)
    assert inc == {"cli.fpt": 10.0, "fpt.g_grid": 3.0, "heat.survival": 4.0,
                   "padic.split_stream": 0.5, "cli.kernel": 1.0}
    assert slf == {"cli.fpt": 3.0, "fpt.g_grid": 3.0, "heat.survival": 3.5,
                   "padic.split_stream": 0.5, "cli.kernel": 1.0}
    layers = layer_self_times(slf)
    assert layers == {"padic": 0.5, "landscape": 0.0, "heat": 3.5, "sim": 0.0,
                      "fpt": 3.0, "cli": 4.0}
    # self times partition the root spans' time
    assert sum(layers.values()) == pytest.approx(11.0)


def _originals():
    out = {}
    for t in TARGETS:
        owner = _resolve(t.owner)
        out[(t.owner, t.attr)] = (owner.__dict__[t.attr] if isinstance(owner, type)
                                  else getattr(owner, t.attr))
    return out


def test_every_wrapper_fires_and_is_removed(tmp_path):
    import ultradiff.cli as cli

    before = _originals()
    desk = workloads.build_steps("desk", ROOT, tmp_path / "desk", smoke=True)
    sweep = workloads.build_steps("sweep", ROOT, tmp_path / "sweep", smoke=True)
    gamma_pos = [s for s in sweep if s.label == "p2n2g0.5c0.2/kernel"]
    tracer = Tracer()
    with tracer.installed():
        assert _originals() != before
        it = measure.run_iteration(cli, desk + gamma_pos, seed=20240810, tracer=tracer)
    assert _originals() == before
    assert not tracer.missing
    assert set(it["codes"].values()) == {0}

    names = {rec[0] for rec in tracer.spans}
    assert {t.span for t in TARGETS if t.span_each_call} <= names
    assert tracer.counts["sim.jump_draws"] > tracer.counts["sim.moving_jumps"] > 0
    parents = {(rec[0], tracer.spans[rec[3]][0]) for rec in tracer.spans if rec[3] >= 0}
    # the wrappers at fpt's own import site fire, not only cli's
    assert ("fpt.laplace_G", "fpt.recurrence_diagnostic") in parents
    assert ("fpt.g_grid", "fpt.laplace_g_quadrature") in parents
    assert ("padic.split_stream", "sim.run_paths") in parents
    # 6 ladder points in the CSV, 6 again in the recurrence diagnostic, 3 in verify
    assert tracer.counts["fpt.laplace_G_calls"] == 15


def test_mc_gate_is_valid_at_small_counts_and_bites():
    n, alpha = 2000, 1e-4 / 300
    # one path out of 2000 where 0.05 are expected: no alarm
    s = 1.0 - 0.05 / n
    assert abs((1.0 - 1.0 / n) - s) <= checks.bernstein_deviation(s, n, alpha)
    # twenty out where 0.05 are expected: alarm
    assert abs((1.0 - 20.0 / n) - s) > checks.bernstein_deviation(s, n, alpha)
    # at a large variance the limit is a few null standard errors
    se = (0.25 / n) ** 0.5
    limit = checks.bernstein_deviation(0.5, n, alpha) / se
    assert 5.0 < limit < 7.0
    assert 10 * se > checks.bernstein_deviation(0.5, n, alpha)


def _run(args, cwd):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload,trace", [
    ("desk", 0), ("desk", 1), ("fpt_long", 1), ("sweep", 1),
])
def test_smoke_run(workload, trace):
    proc = _run(["--workload", workload, "--seed", "20240810", "--seconds", "1",
                 "--trace", str(trace), "--smoke"], ROOT)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in res["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "desk", "--seed", "1", "--seconds", "1", "--trace", "0"],
                tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
