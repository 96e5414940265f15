"""CLI surface: config validation, artifact schemas, determinism, verify."""

import json
from pathlib import Path

import pytest

from conftest import GRID, verify_sweep
from ultradiff.cli import load_run_config, main, run_verify_checks
from ultradiff.errors import ConfigError
from ultradiff.landscape import SpectralCache


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
    ],
)
def test_field_level_messages(tmp_path, mutate, field):
    path = write_config(tmp_path, mutate)
    with pytest.raises(ConfigError) as exc:
        load_run_config(path)
    assert field in str(exc.value)


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


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_below_one_rejected(config_path, tmp_path, workers, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", str(config_path), "--out", str(tmp_path),
              "--workers", workers])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


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


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def artifact_bytes(out_dir):
    found = {}
    for f in sorted(Path(out_dir).iterdir()):
        if f.name == "manifest.json":
            manifest = json.loads(f.read_text())
            manifest.pop("wall_clock_s")  # the one timing field
            found[f.name] = json.dumps(manifest, sort_keys=True)
        else:
            found[f.name] = f.read_bytes()
    return found


@pytest.mark.parametrize("command", ["landscape", "kernel", "simulate", "fpt", "verify"])
def test_reruns_byte_identical(command, config_path, tmp_path):
    a = run_cmd(command, config_path, tmp_path / "a")
    b = run_cmd(command, config_path, tmp_path / "b")
    assert artifact_bytes(a) == artifact_bytes(b)


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
