"""Smoke runs of the scripts under scripts/ on tiny arguments, each as its
own process (verify_sweep in this one, on a two-point grid), so that a
change to the API they call shows up here."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import verify_sweep
from ultradiff.heat import HeatState, survival
from ultradiff.landscape import normalize
from ultradiff.padic import SpaceParams

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_run_pipeline_smoke(tmp_path):
    cfg = json.loads((ROOT / "configs" / "desk.json").read_text())
    cfg["sim"].update(horizon=2.0, paths=500)
    cfg["fpt"].update(T=2.0, h=0.02)
    cfg["kernel"] = {"times": [0.5, 1.0, 2.0], "x_exps": [-1, 0, 1, 2]}
    cfg["verify"] = {"paths": 500}
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(cfg))
    proc = run_script(
        "run_pipeline.py", "--config", config, "--out", tmp_path / "runs", cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    assert "recurrence verdict" in proc.stdout
    for command in ("landscape", "kernel", "simulate", "fpt", "verify"):
        assert (tmp_path / "runs" / command / "manifest.json").exists(), command
    # the summary reads one analytic survival line per kernel time
    table = proc.stdout.split("S(t) Monte Carlo\n")[1].splitlines()[:3]
    assert [float(line.split()[0]) for line in table] == [0.5, 1.0, 2.0]


def test_landscape_sweep_smoke(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_script(
        "landscape_sweep.py",
        "--gammas", -0.5, 0.5, "--c1s", 1.0, "--times", 0.5, 2.0,
        "--horizon", 1.0, "--out", out,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = out.read_text().splitlines()
    assert header == "gamma,c1,exterior_mass,gap_at_one,S(0.5),S(2),int_f_0_1"
    assert len(rows) == 2
    for row in rows:
        assert row == ",".join("%.17g" % float(v) for v in row.split(","))
        gamma, c1, *_, s_half, s_two, int_f = map(float, row.split(","))
        state = HeatState(normalize(SpaceParams(p=2, n=1), gamma, c1))
        assert [s_half, s_two] == [survival(state, 0.5), survival(state, 2.0)]
        assert 0.0 < int_f < 1.0


def test_import_cost_smoke(tmp_path):
    proc = run_script("import_cost.py", "--runs", 1, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("1 runs, PYTHONDONTWRITEBYTECODE=1")
    ms = {line[:34].strip(): float(line[34:]) for line in lines[1:] if line[34:].strip()}
    parts = ("interpreter start", "import ultradiff.cli", "load_run_config")
    assert sum(ms[k] for k in parts) == pytest.approx(ms["start to ready"], abs=0.2)
    modules = [k for k in ms if k.startswith("ultradiff.")]
    assert {"ultradiff.cli", "ultradiff.padic", "ultradiff.sim"} <= set(modules)
    assert sum(ms[k] for k in modules) + ms["ultradiff"] == pytest.approx(
        ms["ultradiff, all modules"], abs=0.1 * len(modules)
    )
    assert ms["numpy"] > 0.0


def test_verify_sweep_json_smoke(tmp_path, monkeypatch, capsys):
    # in process, on two points of the grid
    monkeypatch.setattr(verify_sweep, "GRID", [verify_sweep.GRID[0], verify_sweep.GRID[-1]])
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert verify_sweep.run(["--paths", "100", "--json", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "0 of 2 points fail"
    assert outs[0].read_bytes() == outs[1].read_bytes()
    points = json.loads(outs[0].read_text())
    assert [tuple(pt[k] for k in ("p", "n", "gamma", "c1")) for pt in points] == verify_sweep.GRID
    for pt in points:
        names = [c["name"] for c in pt["checks"]]
        assert "fpt_triangle_mc_vs_mixture" in names and len(set(names)) == len(names)
        for check in pt["checks"]:
            assert set(check) == {"name", "observed", "threshold", "passed", "detail"}
            assert check["passed"]
    # before the last line, each check's worst observed/threshold over the
    # grid and its point, as the JSON gives them (the second run's lines)
    summary = lines[-2 - len(names) : -1]
    assert summary[0] == "worst observed/threshold per check:"
    for name, line in zip(names, summary[1:]):
        ratios = [c["observed"] / c["threshold"] for pt in points for c in pt["checks"]
                  if c["name"] == name]
        worst = max(range(len(ratios)), key=ratios.__getitem__)  # the first of equals
        label = verify_sweep.point_label(*verify_sweep.GRID[worst])
        assert line.split() == [name, f"{ratios[worst]:.3g}", "at", *label.split()]


def test_bench_pairs_summary_on_fixed_numbers():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    parent = [26.0, 26.5, 25.8, 26.2, 27.0, 26.1, 25.9, 26.4, 26.3, 26.6]
    change = [24.4, 24.9, 24.2, 24.5, 26.9, 24.3, 24.1, 24.8, 24.6, 26.7]
    s = bench_pairs.summarize(parent, change, "lower")
    # inclusive quartiles of the parent: 26.025, 26.25, 26.475
    assert s["parent"] == pytest.approx((26.025, 26.25, 26.475))
    assert s["change"][1] == pytest.approx(24.55)
    assert (s["wins"], s["pairs"]) == (9, 10)  # pair 9 is lost: 26.7 > 26.6
    assert s["gap"] == pytest.approx(1.7) and s["parent_iqr"] == pytest.approx(0.45)
    assert s["holds"]
    # 8 of 10 pairs is not enough, however large the gap
    assert not bench_pairs.summarize(parent, change[:8] + [30.0, 30.0], "lower")["holds"]
    # a gap inside the parent's spread is not a gain, though every pair is won
    assert not bench_pairs.summarize(parent, [p - 0.01 for p in parent], "lower")["holds"]
    # for a higher-is-better metric the roles turn round
    up = bench_pairs.summarize(change, parent, "higher")
    assert up["wins"] == 9 and up["gap"] == pytest.approx(1.7)
    assert "change better in 9 of 10" in bench_pairs.report("fpt_long wall_s", s)
    with pytest.raises(ValueError):
        bench_pairs.summarize(parent, change[:3], "lower")
