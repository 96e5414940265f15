"""CLI surface: config validation, artifact schemas, determinism, verify."""

import hashlib
import json
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import ultradiff.cli as cli
from conftest import GRID, verify_sweep
from ultradiff.cli import (
    _log_factorials,
    _write_csv,
    binomial_tail_z,
    load_run_config,
    main,
    run_verify_checks,
)
from ultradiff.errors import ConfigError
from ultradiff.heat import HeatState, conservation_audits, survival, u_table, ztilde_table
from ultradiff.landscape import SpectralCache

ROOT = Path(__file__).resolve().parent.parent

BASE_CONFIG = {
    "landscape": {"p": 2, "n": 1, "gamma": -0.5, "c1": 1.0},
    "sim": {"horizon": 4.0, "paths": 2000, "seed": 20240810, "j_max": 8},
    "fpt": {
        "h": 0.02,
        "T": 4.0,
        "s_ladder": [0.1, 0.01, 0.001, 0.0001, 1e-05, 1e-06],
    },
    "kernel": {"times": [0.1, 0.5, 1.0, 2.0], "x_exps": list(range(-3, 9))},
    "verify": {"paths": 4000},
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE_CONFIG))
    return path


def write_config(tmp_path, mutate):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    mutate(cfg)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    return path


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_load_config_round_trip(config_path):
    cfg = load_run_config(config_path)
    assert cfg.landscape.space.p == 2
    assert cfg.sim.seed == 20240810
    echo = cfg.resolved_echo()
    assert echo["landscape"]["norm_const"] > 0
    assert echo["sim"]["jump_truncation_defect"] < 1e-12


def test_gamma_boundary_rejected_with_message(tmp_path):
    path = write_config(tmp_path, lambda c: c["landscape"].update(gamma=-1.0))
    with pytest.raises(ConfigError, match="-n") as exc:
        load_run_config(path)
    assert "gamma" in str(exc.value)


def test_gamma_boundary_cli_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, lambda c: c["landscape"].update(gamma=-1.0))
    code = main(["landscape", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "gamma" in capsys.readouterr().err


#: an empty list and numbers that are no finite double (JSON NaN, Infinity,
#: or an integer past the largest double), each rejected by name
NON_FINITE_CASES = [
    pytest.param(
        lambda c: c["kernel"].update(x_exps=[]), "kernel.x_exps", id="kernel.x_exps-empty"
    ),
    pytest.param(
        lambda c: c["kernel"].update(times=[math.nan]), "kernel.times", id="kernel.times-nan"
    ),
    pytest.param(
        lambda c: c["kernel"].update(times=[0.5, math.inf]),
        "kernel.times",
        id="kernel.times-inf",
    ),
    pytest.param(lambda c: c["fpt"].update(h=math.nan), "fpt.h", id="fpt.h-nan"),
    pytest.param(
        lambda c: c["fpt"].update(s_ladder=[math.inf, 1.0]),
        "fpt.s_ladder",
        id="fpt.s_ladder-inf",
    ),
    pytest.param(lambda c: c["fpt"].update(T=math.inf), "fpt.T", id="fpt.T-inf"),
    pytest.param(lambda c: c["fpt"].update(T=10**400), "fpt.T", id="fpt.T-huge-int"),
    pytest.param(
        lambda c: c["landscape"].update(gamma=math.nan),
        "landscape.gamma",
        id="landscape.gamma-nan",
    ),
    pytest.param(
        lambda c: c["landscape"].update(c1=math.inf), "landscape.c1", id="landscape.c1-inf"
    ),
    pytest.param(
        lambda c: c["sim"].update(horizon=math.nan), "sim.horizon", id="sim.horizon-nan"
    ),
]


#: fpt fields that are finite numbers but out of range: a negative horizon
#: (the flux grid would be empty) and a recurrence threshold that every
#: G > 0 exceeds, which would make the verdict vacuous
FPT_RANGE_CASES = [
    pytest.param(lambda c: c["fpt"].update(T=-1), "fpt.T", id="fpt.T-negative"),
    pytest.param(
        lambda c: c["fpt"].update(recurrence_threshold=-5),
        "fpt.recurrence_threshold",
        id="fpt.recurrence_threshold-negative",
    ),
    pytest.param(
        lambda c: c["fpt"].update(recurrence_threshold=0.0),
        "fpt.recurrence_threshold",
        id="fpt.recurrence_threshold-zero",
    ),
]


@pytest.mark.parametrize(
    "mutate,field",
    [
        (lambda c: c["landscape"].update(p=4), "landscape.p"),
        (lambda c: c["landscape"].pop("c1"), "landscape.c1"),
        (lambda c: c["sim"].update(horizon=-1.0), "sim.horizon"),
        (lambda c: c["sim"].update(j_max=2), "sim.j_max"),
        (lambda c: c["fpt"].update(h=0.0), "fpt.h"),
        (lambda c: c["fpt"].update(T=4.0101), "fpt.T"),
        (lambda c: c["fpt"].update(s_ladder=[0.1, 0.2]), "fpt.s_ladder"),
        (lambda c: c["kernel"].update(times=[-1.0]), "kernel.times"),
        # explicit ids keep the ids above free of duplicate-name suffixes
        pytest.param(lambda c: c.update(verify="paths"), "verify", id="verify-block"),
        pytest.param(
            lambda c: c.update(output={"dir": 7}), "output.dir", id="output.dir-type"
        ),
        pytest.param(
            lambda c: c["kernel"].update(times=[0.5, True]),
            "kernel.times",
            id="kernel.times-bool",
        ),
        pytest.param(
            lambda c: c["kernel"].update(x_exps=[1, False]),
            "kernel.x_exps",
            id="kernel.x_exps-bool",
        ),
        pytest.param(
            lambda c: c["fpt"].update(s_ladder=[True, 0.1]),
            "fpt.s_ladder",
            id="fpt.s_ladder-bool",
        ),
        pytest.param(
            lambda c: c["kernel"].update(x_exps=[1, 1100]),
            "kernel.x_exps",
            id="kernel.x_exps-overflow",
        ),
        pytest.param(
            lambda c: c["kernel"].update(x_exps=[-1100, 1]),
            "kernel.x_exps",
            id="kernel.x_exps-underflow",
        ),
        *NON_FINITE_CASES,
        *FPT_RANGE_CASES,
    ],
)
def test_field_level_messages(tmp_path, mutate, field):
    path = write_config(tmp_path, mutate)
    with pytest.raises(ConfigError) as exc:
        load_run_config(path)
    assert field in str(exc.value)


@pytest.mark.parametrize("mutate,field", NON_FINITE_CASES)
def test_non_finite_fields_exit_2(tmp_path, mutate, field, capsys):
    path = write_config(tmp_path, mutate)
    code = main(["kernel", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"config error: {field}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fpt", "verify"])
@pytest.mark.parametrize("mutate,field", FPT_RANGE_CASES)
def test_fpt_range_errors_exit_2(tmp_path, mutate, field, command, capsys):
    path = write_config(tmp_path, mutate)
    code = main([command, "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"config error: {field}" in capsys.readouterr().err


def test_zero_horizon_still_runs(tmp_path):
    path = write_config(tmp_path, lambda c: c["fpt"].update(T=0))
    for command in ("fpt", "verify"):
        run_cmd(command, path, tmp_path / command)
    rows = (tmp_path / "fpt" / "g_f.csv").read_text().splitlines()
    assert rows == ["t,g,f", "0,0,0"]


@pytest.mark.parametrize("command", ["landscape", "fpt"])
def test_every_command_validates_the_whole_config(tmp_path, command, capsys):
    """load_run_config validates every block, the Monte Carlo's jump table
    included, whatever the command: at sim.j_max = 2 the truncated jump
    mass fails, and landscape and fpt, which never jump, exit 2 naming it."""
    cfg = json.loads((ROOT / "configs" / "desk.json").read_text())
    cfg["sim"]["j_max"] = 2
    path = tmp_path / "desk.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match="sim.j_max"):
        load_run_config(path)
    assert main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "config error: sim.j_max" in capsys.readouterr().err


def test_seed_override(config_path):
    assert load_run_config(config_path, seed_override=7).sim.seed == 7


# ---------------------------------------------------------------------------
# commands and artifacts
# ---------------------------------------------------------------------------


def run_cmd(name, config_path, out_dir, extra=()):
    code = main([name, "--config", str(config_path), "--out", str(out_dir), *extra])
    assert code == 0, name
    return out_dir


def test_landscape_artifacts(config_path, tmp_path):
    out = run_cmd("landscape", config_path, tmp_path / "lnd")
    lines = (out / "spectral.csv").read_text().splitlines()
    assert lines[0] == "k,jhat,one_minus_jhat"
    for line in lines[1:]:
        k, jhat, om = line.split(",")
        assert float(om) >= 0.0 and -1.0 <= float(jhat) <= 1.0
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["divergence"]["verdict"] == "diverges"
    assert diag["gap_vs_series_diff"] <= 1e-10
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["artifacts"]) == {"spectral.csv", "diagnostics.json"}


def test_kernel_artifacts(config_path, tmp_path):
    out = run_cmd("kernel", config_path, tmp_path / "krn")
    surv = (out / "survival.csv").read_text().splitlines()
    assert surv[0] == "t,value,conservation_defect"
    for line in surv[1:]:
        t, value, defect = map(float, line.split(","))
        assert float(defect) < 1e-8
        if t == 0.1:
            assert 0.98 < value < 1.0
    bounds = json.loads((out / "bounds_report.json").read_text())
    assert bounds["decay_bounds"]["all_nonnegative"]
    u_lines = (out / "u_profile.csv").read_text().splitlines()
    assert u_lines[0] == "norm_exp,t,value"


def test_kernel_writes_nan_minimum_for_any_nan_margin(config_path, tmp_path, monkeypatch):
    # a nan spectral value at |x| = p^5, a middle row of the decay-bound
    # points (norm exponents 2..8): each min_* field is nan, as it is for
    # a nan in the first row, and the flag is false
    one_minus = SpectralCache.one_minus
    monkeypatch.setattr(
        SpectralCache, "one_minus",
        lambda self, k: math.nan if k == 1 - 5 else one_minus(self, k),
    )
    out = run_cmd("kernel", config_path, tmp_path / "krn")
    bounds = json.loads((out / "bounds_report.json").read_text())["decay_bounds"]
    assert bounds["x_exps"] == list(range(2, 9))
    for name in ("min_uniform_margin", "min_claim_margin", "min_decay_margin"):
        assert math.isnan(bounds[name]), name
    assert bounds["all_nonnegative"] is False


def test_kernel_uniform_margin_outside_the_decay_range(tmp_path, monkeypatch):
    # gamma >= 0, at 64 times: only the uniform bound 2 t |x|^{-n} applies,
    # and its margin is the minimum over the Ztilde cells with i >= 1, bit
    # for bit; a nan in a middle cell makes it nan, as in the other branch
    times, x_exps = [0.05 * 400 ** (k / 63) for k in range(64)], list(range(-10, 31))

    def mutate(cfg):
        cfg["landscape"] = {"p": 2, "n": 2, "gamma": 0.5, "c1": 0.2}
        cfg["sim"]["j_max"] = 7
        cfg["kernel"] = {"times": times, "x_exps": x_exps}

    path = write_config(tmp_path, mutate)
    z = ztilde_table(HeatState(load_run_config(path).landscape), x_exps, times)
    margins = [
        2.0 * t * 2.0 ** (-2 * i) - z[r, c]
        for r, i in enumerate(x_exps) if i >= 1
        for c, t in enumerate(times)
    ]
    out = run_cmd("kernel", path, tmp_path / "krn")
    bounds = json.loads((out / "bounds_report.json").read_text())["decay_bounds"]
    assert bounds["min_uniform_margin"] == min(margins)
    assert bounds["all_nonnegative"] is all(m >= 0 for m in margins)

    table = cli.ztilde_table

    def with_nan(*args):
        cells = table(*args)
        cells[x_exps.index(10), 30] = math.nan
        return cells

    monkeypatch.setattr(cli, "ztilde_table", with_nan)
    out = run_cmd("kernel", path, tmp_path / "nan")
    bounds = json.loads((out / "bounds_report.json").read_text())["decay_bounds"]
    assert math.isnan(bounds["min_uniform_margin"]) and bounds["all_nonnegative"] is False


def test_kernel_tables_match_a_per_cell_rendering(tmp_path):
    # unsorted keys and a repeated time: the key cells, formatted once per
    # distinct i and t, must land in the stable (i, t) order of the rows
    times, x_exps = [2.0, 0.05, 7.3, 0.0, 0.05, 0.5], [3, -10, 0, 12, 1, -1, 2]
    path = write_config(tmp_path, lambda c: c["kernel"].update(times=times, x_exps=x_exps))
    out = run_cmd("kernel", path, tmp_path / "krn")
    state = HeatState(load_run_config(path).landscape)

    def rendered(rows):
        return "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows)

    for name, table in (("u_profile.csv", u_table), ("ztilde.csv", ztilde_table)):
        values = table(state, x_exps, times)
        rows = [(i, t, values[r, c]) for r, i in enumerate(x_exps) for c, t in enumerate(times)]
        rows.sort(key=lambda row: row[:2])  # stable: repeated (i, t) keep grid order
        assert (out / name).read_text() == "norm_exp,t,value\n" + rendered(rows)
    defects = [a.defect for a in conservation_audits(state, times)]
    rows = list(zip(times, survival(state, times).tolist(), defects))
    assert (out / "survival.csv").read_text() == (
        "t,value,conservation_defect\n" + rendered(rows)
    )


def test_simulate_artifacts_and_cross_check(config_path, tmp_path):
    out = run_cmd("simulate", config_path, tmp_path / "sim")
    krn = run_cmd("kernel", config_path, tmp_path / "krn")
    surv = {
        float(l.split(",")[0]): float(l.split(",")[1])
        for l in (krn / "survival.csv").read_text().splitlines()[1:]
    }
    mc_lines = (out / "survival_mc.csv").read_text().splitlines()
    assert mc_lines[0] == "t,estimate,stderr,n_paths"
    for line in mc_lines[1:]:
        t, est, stderr, n = line.split(",")
        assert abs(float(est) - surv[float(t)]) <= 3.0 * float(stderr)
    fpt_lines = (out / "fpt_samples.csv").read_text().splitlines()
    assert fpt_lines[0] == "path_index,tau,censored,exited"
    assert len(fpt_lines) == 1 + BASE_CONFIG["sim"]["paths"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["sim"]["jump_truncation_defect"] < 1e-12


def test_fpt_artifacts(config_path, tmp_path):
    out = run_cmd("fpt", config_path, tmp_path / "fpt")
    lines = (out / "g_f.csv").read_text().splitlines()
    assert lines[0] == "t,g,f"
    first = lines[1].split(",")
    assert float(first[1]) == 0.0  # g(0) = 0
    fs = [float(l.split(",")[2]) for l in lines[1:]]
    h = BASE_CONFIG["fpt"]["h"]
    assert all(f >= 0.0 for f in fs)
    assert sum(fs) * h <= 1.0  # integral of a (sub)density
    verdict = json.loads((out / "recurrence_verdict.json").read_text())
    assert verdict["verdict"] == "recurrent (numerically supported)"
    assert verdict["f0_proxy"] > 0.999
    ladder = (out / "laplace_ladder.csv").read_text().splitlines()
    assert ladder[0] == "s,G"
    gs = [float(l.split(",")[1]) for l in ladder[1:]]
    assert all(a < b for a, b in zip(gs, gs[1:]))


def test_verify_passes(config_path, tmp_path):
    out = tmp_path / "ver"
    code = main(["verify", "--config", str(config_path), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert report["passed"]
    assert len(report["checks"]) >= 10
    # seconds per check in the manifest, outside the hashed artifacts
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["stages"]) == {c["name"] for c in report["checks"]}
    assert all(s >= 0.0 for s in manifest["stages"].values())
    assert set(manifest["artifacts"]) == {"verify_report.json"}


def test_verify_mc_check_exact_at_tiny_exit_rate(tmp_path):
    # C1 = 5: of 2000 paths about 0.056 are expected outside Z_p at t = 0.5,
    # so most runs see none, where the plug-in stderr is 0
    def mutate(cfg):
        cfg["landscape"]["c1"] = 5.0
        cfg["sim"]["j_max"] = 2
        cfg["verify"]["paths"] = 2000

    checks = run_verify_checks(load_run_config(write_config(tmp_path, mutate)))
    mc = next(c for c in checks if c["name"] == "mc_survival_within_3_sigma")
    assert mc["passed"], mc


@pytest.mark.parametrize("p, n, gamma, c1", GRID)
def test_verify_across_grid(p, n, gamma, c1, tmp_path):
    # 100 paths, the fewest config validation accepts: the Monte Carlo
    # checks must not degenerate when no path leaves or returns
    path = tmp_path / "point.json"
    path.write_text(
        json.dumps(verify_sweep.point_config(p, n, gamma, c1, paths=100, seed=20240810))
    )
    checks = run_verify_checks(load_run_config(path))
    assert [c for c in checks if not c["passed"]] == []


def test_verify_exits_zero_near_gamma_minus_n(tmp_path):
    # the quadrature oracle's lower tail passes J(p^m) = inf here
    path = tmp_path / "point.json"
    path.write_text(
        json.dumps(verify_sweep.point_config(2, 1, -0.97, 1.0, paths=100, seed=20240810))
    )
    out = tmp_path / "ver"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "verify_report.json").read_text())
    assert [c["name"] for c in report["checks"] if not c["passed"]] == []


def test_verify_exits_zero_where_the_quadrature_tail_is_longest(tmp_path):
    # gamma/n = -0.9989: the quadrature's lower tail settles only after
    # about 15 600 spheres, past a 10 000-sphere walk
    path = tmp_path / "point.json"
    path.write_text(
        json.dumps(verify_sweep.point_config(5, 1, -0.9989, 0.49, paths=100, seed=20240810))
    )
    out = tmp_path / "ver"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 0
    checks = json.loads((out / "verify_report.json").read_text())["checks"]
    assert [c["name"] for c in checks if not c["passed"]] == []
    quad = next(c for c in checks if c["name"] == "spectral_vs_quadrature")
    assert quad["observed"] <= quad["threshold"] == 1e-10


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_rejected(config_path, tmp_path, workers, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", str(config_path), "--out", str(tmp_path),
              "--workers", workers])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["landscape", "kernel", "fpt"])
def test_workers_rejected_outside_the_monte_carlo_commands(config_path, tmp_path, command,
                                                           capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(config_path), "--out", str(tmp_path / "o"),
              "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_options_may_come_before_the_command(config_path, tmp_path):
    options = ["--config", str(config_path), "--seed", "7", "--workers", "1"]
    before = tmp_path / "before"
    assert main([*options, "--out", str(before), "simulate"]) == 0
    after = run_cmd("simulate", config_path, tmp_path / "after", options[2:])
    assert json.loads((before / "manifest.json").read_text())["config"]["sim"]["seed"] == 7
    for name in ("fpt_samples.csv", "survival_mc.csv"):
        assert (before / name).read_bytes() == (after / name).read_bytes()


@pytest.mark.parametrize("argv", [["simulat"], [], ["kernel", "fpt"]])
def test_unknown_or_missing_command_exits_2(config_path, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", str(config_path)])
    assert exc.value.code == 2
    assert "usage: ultradiff" in capsys.readouterr().err


def test_verify_detects_corrupted_cache(config_path):
    cfg = load_run_config(config_path)
    cache = SpectralCache.build(cfg.landscape)
    cache.values[-cache.k_min] *= 1.5  # tamper with the k = 0 spectral value
    checks = run_verify_checks(cfg, cache=cache)
    failed = [c["name"] for c in checks if not c["passed"]]
    assert failed, "corrupted cache must trip at least one invariant"
    assert any(
        name in failed
        for name in (
            "spectral_vs_quadrature",
            "conservation",
            "evolution_residual",
            "survival_flux_balance",
        )
    )


def test_verify_reports_a_negated_flux_red(monkeypatch):
    """With g negated the flux balance S' = g - kappa S and the quadrature
    of g's transform both read red (the triangle reads the mixture, not
    g)."""
    import ultradiff.fpt as fpt_module

    g_grid = cli.g_grid

    def negated(state, ts):
        return -g_grid(state, ts)

    monkeypatch.setattr(cli, "g_grid", negated)
    monkeypatch.setattr(fpt_module, "g_grid", negated)
    checks = run_verify_checks(load_run_config(ROOT / "configs" / "desk.json"))
    failed = {c["name"] for c in checks if not c["passed"]}
    assert {"survival_flux_balance", "laplace_series_vs_quadrature"} <= failed


def test_flux_checks_catch_a_flux_weight_without_its_sphere_fraction(monkeypatch):
    """d_j without its lone -mass(S_{r+j+1}) / (p^n - 1) term, next to the
    cache's lambda and kappa_r, in the measure of every ball B_r:
    survival_flux_balance, where that d meets S from the heat series, the
    Laplace check (G still reads the true measure) and evolution_residual,
    where the inflow into each B_r meets du/dt, all read red."""
    import ultradiff.heat as heat_module
    from ultradiff.heat import spectral_measure
    from ultradiff.landscape import log_sphere_mass

    def mutant(state, r=0):
        v, d, lam, kappa = spectral_measure(state, r)
        mass = np.exp(log_sphere_mass(state.landscape, np.arange(r + 1, r + lam.size + 1)))
        return v, d + mass / (float(state.space.p) ** state.space.n - 1.0), lam, kappa

    monkeypatch.setattr(heat_module, "spectral_measure", mutant)
    checks = {c["name"]: c for c in run_verify_checks(load_run_config(ROOT / "configs" / "desk.json"))}
    for name in ("survival_flux_balance", "laplace_series_vs_quadrature", "evolution_residual"):
        assert not checks[name]["passed"], checks[name]


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def artifact_bytes(out_dir):
    found = {}
    for f in sorted(Path(out_dir).iterdir()):
        if f.name == "manifest.json":
            manifest = json.loads(f.read_text())
            # the timing fields: the wall clock, and verify's seconds per
            # check, of which only the check names must repeat
            manifest.pop("wall_clock_s")
            if "stages" in manifest:
                manifest["stages"] = sorted(manifest["stages"])
            found[f.name] = json.dumps(manifest, sort_keys=True)
        else:
            found[f.name] = f.read_bytes()
    return found


@pytest.mark.parametrize("command", ["landscape", "kernel", "simulate", "fpt", "verify"])
def test_reruns_byte_identical(command, config_path, tmp_path):
    # the rerun goes into a directory whose every artifact path, manifest
    # included, holds junk longer than the real file: files are written in
    # place, so each must be cut to length
    a = run_cmd(command, config_path, tmp_path / "a")
    (tmp_path / "b").mkdir()
    for f in a.iterdir():
        (tmp_path / "b" / f.name).write_bytes(b"junk,\n" * (f.stat().st_size // 6 + 100))
    b = run_cmd(command, config_path, tmp_path / "b")
    assert artifact_bytes(a) == artifact_bytes(b)
    # and the manifest's digests are those of the files as they stand
    listed = json.loads((b / "manifest.json").read_text())["artifacts"]
    assert sorted(listed) == sorted(f.name for f in b.iterdir() if f.name != "manifest.json")
    for name, digest in listed.items():
        assert hashlib.sha256((b / name).read_bytes()).hexdigest() == digest


def test_seed_changes_samples(config_path, tmp_path):
    a = run_cmd("simulate", config_path, tmp_path / "a")
    b = run_cmd("simulate", config_path, tmp_path / "b", extra=("--seed", "1"))
    assert (a / "fpt_samples.csv").read_bytes() != (b / "fpt_samples.csv").read_bytes()


def test_seventeen_digit_round_trip(config_path, tmp_path):
    from ultradiff.heat import HeatState, survival

    out = run_cmd("kernel", config_path, tmp_path / "krn")
    cfg = load_run_config(config_path)
    state = HeatState(cfg.landscape)
    line = (out / "survival.csv").read_text().splitlines()[2]
    t_txt, v_txt, _ = line.split(",")
    assert float(v_txt) == survival(state, float(t_txt))


def test_out_env_var(config_path, tmp_path, monkeypatch):
    monkeypatch.setenv("ULTRADIFF_OUT", str(tmp_path / "root"))
    monkeypatch.chdir(tmp_path)
    code = main(["landscape", "--config", str(config_path)])
    assert code == 0
    assert (tmp_path / "root" / "landscape" / "spectral.csv").exists()


# ---------------------------------------------------------------------------
# kernel tables and the ladder: the same bytes from fewer engine calls
# ---------------------------------------------------------------------------

KERNEL_ARTIFACTS = ("u_profile.csv", "ztilde.csv", "survival.csv", "bounds_report.json")

#: sha256 of the kernel artifacts as the telescoped sphere series writes
#: them (numpy 2.4, x86-64); a change of platform may move a last bit of
#: exp, which scripts/compare_artifacts.py then measures against its tolerance
KERNEL_DIGESTS = {
    "desk": {
        "u_profile.csv": "1cc0cba38e8ee95c6baa358482b485575fac267a8d304ff2a3d18d5f44af2b03",
        "ztilde.csv": "a8841e8a4b89361e91a4b162074e788fc7012a8bf8b0ca3dc6225d8f85037d23",
        "survival.csv": "6fd9a2b26e48cdb190a2241023adb2b16f1f121dc5a371e493609f59f653fe38",
        "bounds_report.json": "fa4f987682749b0c4c7d5a1d12be8f1d9e73cab03826d041af7e304f38d00962",
    },
    "p2n2g0.5c0.2": {
        "u_profile.csv": "85d3ba58541b8271e65e1b17c886455b1ca62f8c30d26c8d6b55eacc978ec22c",
        "ztilde.csv": "ef5cf571ca9389a6f099c423d32ab206358f17b6d7fd04e6aa798a0cb101bc6c",
        "survival.csv": "1838e3f2e59daa62d3884934c8341fa1851d97bd0857925c3dc15727c1e1391b",
        "bounds_report.json": "5ce591f8e055465674f22dd7af9912fca853ac6ce8fe2c5930557fe4668c6d0a",
    },
}


def kernel_config(tmp_path, point):
    """configs/desk.json, or its gamma > 0 variant on 64 times from 0.05 to
    20 and x_exps -10..30."""
    path = ROOT / "configs" / "desk.json"
    if point == "desk":
        return path
    cfg = json.loads(path.read_text())
    cfg["landscape"] = {"p": 2, "n": 2, "gamma": 0.5, "c1": 0.2}
    cfg["kernel"] = {
        "times": [0.05 * (20.0 / 0.05) ** (k / 63) for k in range(64)],
        "x_exps": list(range(-10, 31)),
    }
    out = tmp_path / f"{point}.json"
    out.write_text(json.dumps(cfg))
    return out


@pytest.mark.parametrize("point", sorted(KERNEL_DIGESTS))
def test_kernel_artifact_digests(point, tmp_path):
    out = run_cmd("kernel", kernel_config(tmp_path, point), tmp_path / "krn")
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in KERNEL_ARTIFACTS
    }
    assert digests == KERNEL_DIGESTS[point]


def test_fpt_evaluates_the_ladder_once(config_path, tmp_path, monkeypatch):
    import ultradiff.fpt as fpt_module

    calls = []
    laplace_G = fpt_module.laplace_G

    def counted(state, s, *args, **kwargs):
        calls.append(s)
        return laplace_G(state, s, *args, **kwargs)

    monkeypatch.setattr(fpt_module, "laplace_G", counted)
    out = run_cmd("fpt", config_path, tmp_path / "fpt")
    ladder = BASE_CONFIG["fpt"]["s_ladder"]
    assert calls == [ladder]  # one call for the whole ladder
    verdict = json.loads((out / "recurrence_verdict.json").read_text())
    rows = (out / "laplace_ladder.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[1]) for r in rows] == verdict["g_values"]


def test_verify_evaluates_heat_checks_as_tables(monkeypatch):
    import ultradiff.fpt as fpt_module
    import ultradiff.heat as heat_module

    series_calls, grids = [], []
    sphere_series, g_grid = heat_module.sphere_series, fpt_module.g_grid

    def counted_series(*args, **kwargs):
        series_calls.append(1)
        return sphere_series(*args, **kwargs)

    def counted_grid(state, ts):
        grids.append((len(ts), float(ts[0]), float(ts[-1])))
        return g_grid(state, ts)

    monkeypatch.setattr(heat_module, "sphere_series", counted_series)
    monkeypatch.setattr(fpt_module, "g_grid", counted_grid)
    checks = run_verify_checks(load_run_config(ROOT / "configs" / "desk.json"))
    assert all(c["passed"] for c in checks)
    # 133 one-point series before the heat and flux checks became tables
    assert len(series_calls) <= 40
    # the Laplace check's [0, 50] grid is built once for its three s
    assert grids.count((5001, 0.0, 50.0)) == 1


def test_log_factorial_table_is_built_once_per_n():
    table = _log_factorials(2000)
    assert table.tolist() == [math.lgamma(m + 1.0) for m in range(2001)]
    assert _log_factorials(2000) is table
    assert not table.flags.writeable


@pytest.mark.parametrize("n", [1, 7, 2000, 20000])
def test_binomial_tail_z_sums_only_nonzero_terms(n):
    def unfiltered(k, n, q):
        """binomial_tail_z with fsum over every pmf term, zeros included."""
        i = np.arange(n + 1)
        log_fact = _log_factorials(n)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_qs = np.where(i > 0, i * np.log(q), 0.0)
            log_qs += np.where(i < n, (n - i) * np.log1p(-q), 0.0)
        pmf = np.exp(log_fact[n] - log_fact - log_fact[::-1] + log_qs)
        tail = min(math.fsum(pmf[: k + 1]), math.fsum(pmf[k:]), 0.5)
        return math.inf if tail == 0.0 else abs(NormalDist().inv_cdf(tail))

    for q in (0.0, 1e-9, 2.8e-5, 0.01, 0.3, 0.5, 0.97, 1.0):
        for k in sorted({0, 1, n // 2, round(n * q), n - 1, n}):
            assert binomial_tail_z(k, n, q) == unfiltered(k, n, q), (k, q)


@st.composite
def tail_cases(draw, ns):
    """(k, n, q) where a windowed tail could part from the full sum: q at
    0, 1, the least subnormal, 1 - 2^-53, anywhere in [0, 1] or putting the
    mode at a drawn count; k at 0, n, the mode and its neighbours, 3 and 40
    sigma from it (where tails underflow), or anywhere."""
    n = draw(ns)
    m = draw(st.integers(0, n))
    q = draw(st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 2.0**-53, (m + 0.5) / (n + 1)])
             | st.floats(0.0, 1.0))
    mode, sigma = min(int((n + 1) * q), n), math.sqrt(n * q * (1.0 - q))
    near = [0, n, mode - 1, mode, mode + 1] + [round(mode + f * sigma) for f in (-40, -3, 3, 40)]
    k = draw(st.sampled_from(near) | st.integers(0, n))
    return min(max(k, 0), n), n, q


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tail_cases(st.integers(1, 3000) | st.just(20000)))
def test_binomial_tail_z_is_the_full_support_sum(case):
    assert binomial_tail_z(*case) == oracles.binomial_tail_z(*case)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(tail_cases(st.just(10**6)))
def test_binomial_tail_z_is_the_full_support_sum_at_a_million(case):
    assert binomial_tail_z(*case) == oracles.binomial_tail_z(*case)


@pytest.mark.parametrize(
    "k, n, q", [(0, 20000, 0.5), (20000, 20000, 0.3), (0, 50, 1.0 - 2.0**-53), (480000, 10**6, 0.5)]
)
def test_binomial_tail_z_is_inf_where_the_tail_underflows(k, n, q):
    assert binomial_tail_z(k, n, q) == oracles.binomial_tail_z(k, n, q) == math.inf


def log_pmf_ranges(monkeypatch):
    """The (i0, i1) of every log-pmf evaluation binomial_tail_z makes."""
    ranges, log_pmf = [], cli._log_pmf

    def counted(i0, i1, n, q):
        ranges.append((i0, i1))
        return log_pmf(i0, i1, n, q)

    monkeypatch.setattr(cli, "_log_pmf", counted)
    return ranges


def test_binomial_tail_z_sums_the_whole_tail_when_the_certificate_fails(monkeypatch):
    # at a 2^-40 cut the terms left out outweigh half an ulp of the sum, so
    # every tail summed is summed whole; at n = 20000 and these q the
    # windows lie inside the tails, so a whole-tail range is that fallback
    monkeypatch.setattr(cli, "_TAIL_CUT", 2.0**-40)
    ranges = log_pmf_ranges(monkeypatch)
    n = 20000
    for q in (0.05, 0.3, 0.5, 0.9):
        mode, sigma = int((n + 1) * q), math.sqrt(n * q * (1.0 - q))
        for k in (mode - 1, mode, mode + 1, round(mode - 3 * sigma), round(mode + 3 * sigma)):
            ranges.clear()
            assert binomial_tail_z(k, n, q) == oracles.binomial_tail_z(k, n, q), (k, q)
            assert {(0, k + 1), (k, n + 1)} & set(ranges), (k, q)


def test_binomial_tail_z_evaluates_o_sigma_terms(monkeypatch):
    # a range of w = 14 sigma + 32 log-pmf entries on each side of the mode
    # (both sides for the tail that holds it, one for the other) holds each
    # window, and nothing more is evaluated while the certificate holds:
    # at most 3 w + 2 <= 42 sigma + 98 entries, of a support of 10^6 + 1
    ranges = log_pmf_ranges(monkeypatch)
    n = 10**6
    for q in (1e-6, 1e-3, 0.05, 0.5, 0.97):
        mode, sigma = int((n + 1) * q), math.sqrt(n * q * (1.0 - q))
        for f in (-40, -3, -1, 0, 1, 3, 40):
            k = min(max(round(mode + f * sigma), 0), n)
            ranges.clear()
            binomial_tail_z(k, n, q)
            assert sum(i1 - i0 for i0, i1 in ranges) <= 42.0 * sigma + 98.0, (k, q)


# ---------------------------------------------------------------------------
# the CSV writer: whole tables have the bytes of the per-cell writer
# ---------------------------------------------------------------------------


def write_csv_per_cell(path, header, rows):
    """The per-cell writer that _write_csv replaced, kept as its oracle."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join([c if isinstance(c, str) else f"{c:.17g}" for c in row]))
    path.write_text("\n".join(lines) + "\n")


SPECIAL_NUMBERS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, 0.1, 1.0 / 3.0, -2.5e-17, 2**60, -(2**60), -7, 0, 1,
]
TEXT_CELLS = (["", "a", "x y", "-0", "nan"] * 4)[: len(SPECIAL_NUMBERS)]


@pytest.mark.parametrize(
    "columns",
    [
        pytest.param(
            [
                list(range(len(SPECIAL_NUMBERS))),
                SPECIAL_NUMBERS,
                TEXT_CELLS,
                SPECIAL_NUMBERS[::-1],
            ],
            id="mixed",
        ),
        pytest.param([[1.5], [""]], id="one-row"),
        pytest.param([[], [], []], id="zero-rows"),
        pytest.param(
            [
                [2**53, -(2**53), 0, -7, 10**16, 1],  # %d
                [2**53 + 1, 0, 0, 0, 0, 0],  # past 2**53: %.17g rounds it
                [10**17 - 1, -(10**17 - 1), 1, 2, 3, 4],
                [True, False, True, True, False, True],  # bools are not ints here
                [1, 2.5, -3, 0.0, 2**53, -0.0],  # ints and floats mixed
                [1, True, 0, False, 1, 1],
            ],
            id="int-columns",
        ),
        pytest.param(
            [
                np.arange(len(SPECIAL_NUMBERS)),
                np.array(SPECIAL_NUMBERS),
                np.array(SPECIAL_NUMBERS[::-1]),
                np.array([2**53, -(2**53), 2**53 + 1, 2**62, -7, 0] * 3)[:17],
                np.arange(17) % 3 == 0,
                np.arange(17, dtype=np.uint8),
            ],
            id="ndarrays",
        ),
        pytest.param([np.array([]), np.array([], dtype=int)], id="ndarray-zero-rows"),
    ],
)
def test_write_csv_matches_per_cell_oracle(tmp_path, columns):
    header = [f"c{k}" for k in range(len(columns))]
    _write_csv(tmp_path / "new.csv", header, columns)
    write_csv_per_cell(tmp_path / "old.csv", header, zip(*columns))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_int_columns_within_2_53_are_written_with_d(tmp_path):
    assert "%d" % (2**53 + 1) != "%.17g" % (2**53 + 1) == "9007199254740992"

    def written(column):
        _write_csv(tmp_path / "c.csv", ["c"], [column])
        return (tmp_path / "c.csv").read_text()

    for column in ([2**53, -(2**53), 0, 5], np.array([2**53, -(2**53), 0, 5])):
        assert written(column) == "c\n" + "".join("%d\n" % v for v in column)
    for column in ([2**53 + 1], [-(2**53) - 1], [True, 1], [1, 2.5], [1.0], []):
        assert written(column) == "c\n" + "".join("%.17g\n" % v for v in column), column
    assert written(["", "a"]) == "c\n\na\n"


#: sha256 of the landscape, kernel, fpt, simulate and verify artifacts at
#: configs/desk.json as the per-cell writer wrote them (numpy 2.4, x86-64);
#: the kernel ones are KERNEL_DIGESTS["desk"], here from a run in sequence
DESK_DIGESTS = {
    "landscape/spectral.csv": "fe63836188791eb16ebbda41eb2b63a4d4549dd1ceab3bab968dfb4c703424bf",
    **{f"kernel/{name}": digest for name, digest in KERNEL_DIGESTS["desk"].items()},
    "fpt/g_f.csv": "1fda7a17439d275b132070707a0c44e87abed2820f001b444857eac5871758ab",
    "fpt/laplace_ladder.csv": "05b4f6a4915548f607898ea906273005795c1564b18c9e970bd9c66ea5e851e0",
    "simulate/fpt_samples.csv": "ef0af890f031496ebc7a5f91158c753bd91798f97fe524c6edd5349963b196e1",
    "simulate/survival_mc.csv": "2e945972d5aa078d83aef89edfa63928315e31822aa0d82ea0511de20b896c59",
    "verify/verify_report.json": "0a644d296e0a970d1fd226820fbaf61806188209a39c2ac15af7e5b21a85c085",
}


def test_desk_artifact_digests(tmp_path):
    for command in ("landscape", "kernel", "fpt", "simulate", "verify"):
        run_cmd(command, ROOT / "configs" / "desk.json", tmp_path / command)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in DESK_DIGESTS
    }
    assert digests == DESK_DIGESTS
