"""CLI surface: config validation, artifact schemas, determinism, verify."""

import hashlib
import json
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest

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


# ---------------------------------------------------------------------------
# kernel tables and the ladder: the same bytes from fewer engine calls
# ---------------------------------------------------------------------------

KERNEL_ARTIFACTS = ("u_profile.csv", "ztilde.csv", "survival.csv", "bounds_report.json")

#: sha256 of the kernel artifacts as the per-time, per-point code wrote them
#: (numpy 2.4, x86-64); a change of platform may move a last bit of exp,
#: which scripts/compare_artifacts.py then measures against its tolerance
KERNEL_DIGESTS = {
    "desk": {
        "u_profile.csv": "0089d189102792d5d45abac5d87004e942f6fb4dec7abeac65246f76cce7570e",
        "ztilde.csv": "f1a8053673fd591b532a532681c39b17edcab630a4d9d7be12022bddb7246f98",
        "survival.csv": "0d88f776b7cd4b5625cc3947225416e7457d7705515002551fb265500c27edc7",
        "bounds_report.json": "fa4f987682749b0c4c7d5a1d12be8f1d9e73cab03826d041af7e304f38d00962",
    },
    "p2n2g0.5c0.2": {
        "u_profile.csv": "9d8b3ae3cb46a31ad17eb32e8c722f6536f13f36f72942c554aa9cee54061c03",
        "ztilde.csv": "26f63d739a300a60fbf45ff8aa8258f18ded561999c39499962ece5dc9cb14de",
        "survival.csv": "d1dc914db48f44ceef0c4ba675da4037381dcb83560bdaf1cc0569f6f002cbc8",
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

    def counted(params, cache, s, *args, **kwargs):
        calls.append(s)
        return laplace_G(params, cache, s, *args, **kwargs)

    monkeypatch.setattr(fpt_module, "laplace_G", counted)
    out = run_cmd("fpt", config_path, tmp_path / "fpt")
    ladder = BASE_CONFIG["fpt"]["s_ladder"]
    assert calls == ladder
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

    for module in (heat_module, fpt_module):
        monkeypatch.setattr(module, "sphere_series", counted_series)
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


#: sha256 of the landscape, fpt, simulate and verify artifacts at configs/desk.json
#: as the per-cell writer wrote them (numpy 2.4, x86-64)
DESK_DIGESTS = {
    "landscape/spectral.csv": "fe63836188791eb16ebbda41eb2b63a4d4549dd1ceab3bab968dfb4c703424bf",
    "fpt/g_f.csv": "83978330614d48778f677804e3578eea6f02c156eb2990171a30fb607f8ca74c",
    "fpt/laplace_ladder.csv": "fb87ff5e9bebd0f93943032367b4169d73bb136150910ded7fcfb30891ec38f1",
    "simulate/fpt_samples.csv": "db1e9a62c79e88656f2db47ff089b06063b4cca2633d9b97834a941620e056a4",
    "simulate/survival_mc.csv": "5417e4cb21f4440397b6c36f4c01d4012c8f63326245330f8c3134c6b1781158",
    # recorded before verify's heat and flux checks were evaluated as tables
    "verify/verify_report.json": "cbf7c263f9785fc0075c335eb98fdf8d4c6c74fb6fa7b03de852b12fb9f06c2a",
}


def test_desk_artifact_digests(tmp_path):
    for command in ("landscape", "fpt", "simulate", "verify"):
        run_cmd(command, ROOT / "configs" / "desk.json", tmp_path / command)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in DESK_DIGESTS
    }
    assert digests == DESK_DIGESTS
