"""Acceptance battery: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion. Desk scale: p = 2, n = 1, gamma = -1/2, C1 = 1 unless
a criterion says otherwise; Monte Carlo criteria use 10^5 paths.
"""

import json
import math

import numpy as np
import pytest
from scipy import stats

from conftest import at
from oracles import nonintegrable_demo, quadrature_residual
import ultradiff.fpt as fpt
from ultradiff.cli import main
from ultradiff.heat import (
    chapman_kolmogorov_defect,
    conservation_audits,
    decay_bound_check,
    du_dt,
    pde_residual,
    survival,
    u_table,
    ztilde_table,
)
from ultradiff.landscape import (
    SpectralCache,
    UnitBallKernel,
    divergence_diagnostic,
    exterior_mass,
    spectral_by_quadrature,
)
from ultradiff.padic import ZERO_NORM, split_stream
from ultradiff.sim import (
    JumpNormTable,
    SimConfig,
    fpt_cdf_estimate,
    moving_norms,
    run_paths,
    survival_estimates,
)

MC_PATHS = 100_000
MC_SEED = 20240810


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def mc_batch(desk_params):
    config = SimConfig(
        landscape=desk_params,
        horizon=10.0,
        max_paths=MC_PATHS,
        seed=MC_SEED,
        j_max=8,
    )
    return config, run_paths(config, query_times=(0.5, 1.0, 2.0))


def test_criterion_01_spectral_correctness(desk_params, desk_state):
    cache = desk_state.cache
    worst = max(
        abs(cache.jhat(k) - spectral_by_quadrature(desk_params, k))
        for k in range(-3, 4)
    )
    range_ok = all(
        0.0 <= cache.one_minus(k) and abs(cache.jhat(k)) <= 1.0
        for k in range(-40, 41)
    )
    report(
        1,
        worst <= 1e-10 and range_ok,
        f"series vs quadrature {worst:.2e} <= 1e-10; range over [-40,40] ok={range_ok}",
    )


def test_criterion_02_indicator_oracle(desk_space):
    ub = SpectralCache(UnitBallKernel(desk_space), -20, 20)
    worst = max(
        abs(ub.jhat(k) - (1.0 if k <= 0 else 0.0)) for k in range(-20, 21)
    )
    report(2, worst <= 1e-12, f"unit-ball indicator reproduced to {worst:.2e} <= 1e-12")


def test_criterion_03_conservation(desk_state):
    worst = 0.0
    for audit in conservation_audits(desk_state, (0.1, 0.5, 1.0, 5.0, 20.0)):
        worst = max(worst, audit.defect)
        # the density alone carries 1 - e^{-t}: the rest is the zero-jump atom
        worst = max(worst, abs(audit.density_mass - (-math.expm1(-audit.t))))
    report(
        3,
        worst <= 1e-8,
        f"kernel mass (atom e^-t + density) = 1 within {worst:.2e} <= 1e-8",
    )


def test_criterion_04_decay_bounds(desk_state):
    space = desk_state.space
    i, t = np.arange(1, 11), np.array([0.1, 1.0, 10.0])
    bound = 2.0 * t[None, :] * float(space.p) ** (-i[:, None] * space.n)
    uniform_ok = bool(np.all(ztilde_table(desk_state, i, t) <= bound))
    rep = decay_bound_check(desk_state, range(2, 13), (0.1, 1.0, 10.0), l=1)
    report(
        4,
        uniform_ok and rep.all_nonnegative,
        f"uniform bound ok={uniform_ok}; exponential bound margins >= 0 "
        f"with C0={rep.c0:.3f} (min decay margin {min(rep.decay_margins):.2e})",
    )


def test_criterion_05_evolution_residual(desk_state):
    pts = [(i, t) for i in (ZERO_NORM, 1, 2, 3) for t in (0.1, 0.5, 1.0, 2.0, 5.0)]
    worst = max(abs(pde_residual(desk_state, i, t)) for i, t in pts)
    h = 1e-4
    worst_fd = max(
        abs(
            du_dt(desk_state, i, t)
            - (at(u_table, desk_state, i, t + h) - at(u_table, desk_state, i, t - h))
            / (2 * h)
        )
        for i, t in ((2, 1.0), (ZERO_NORM, 0.5), (1, 2.0))
    )
    report(
        5,
        worst <= 1e-6 and worst_fd <= 1e-6,
        f"du/dt = J*u - u residual {worst:.2e} at {len(pts)} points; "
        f"derivative vs finite differences {worst_fd:.2e} (both <= 1e-6)",
    )


def test_criterion_06_semigroup(desk_state):
    worst = max(
        chapman_kolmogorov_defect(desk_state, t, s)
        for t, s in ((0.5, 0.5), (1.0, 2.0))
    )
    report(6, worst <= 1e-6, f"Chapman-Kolmogorov defect {worst:.2e} <= 1e-6")


def test_criterion_07_survival_flux_balance(desk_state):
    c_ext = exterior_mass(desk_state.landscape)
    h = 1e-4
    worst = max(
        abs(
            (survival(desk_state, t + h) - survival(desk_state, t - h)) / (2 * h)
            - (fpt.g_grid(desk_state, [t])[0] - c_ext * survival(desk_state, t))
        )
        for t in (0.5, 1.0, 2.0)
    )
    report(7, worst <= 1e-6, f"|S' - (g - C S)| = {worst:.2e} <= 1e-6")


def test_criterion_08_monte_carlo_agreement(desk_params, desk_state, mc_batch):
    _, batch = mc_batch
    worst_sigma = max(
        abs(est.estimate - survival(desk_state, est.t)) / est.stderr
        for est in survival_estimates(batch)
    )
    # law of the coset-moving jump norms run_paths draws: chi-square against
    # the exact table restricted to j >= 1, at the 99% level
    table = JumpNormTable.build(desk_params, j_max=8)
    words = split_stream(777, 0).bit_generator.random_raw(MC_PATHS)
    draws = moving_norms(table, (words >> 11).astype(np.float64) * 2.0**-53)
    moving = np.flatnonzero(table.js >= 1)[::-1]
    pooled_p, pooled_c = [], []
    acc_p, acc_c = 0.0, 0
    for idx in moving:
        acc_p += table.probs[idx] / (1.0 - table.prob_nonmoving)
        acc_c += int(np.sum(draws == table.js[idx]))
        if acc_p * MC_PATHS >= 10:
            pooled_p.append(acc_p)
            pooled_c.append(acc_c)
            acc_p, acc_c = 0.0, 0
    pooled_p[-1] += acc_p
    pooled_c[-1] += acc_c
    expected = np.array(pooled_p) * MC_PATHS
    chi2 = float(((np.array(pooled_c) - expected) ** 2 / expected).sum())
    chi2_crit = float(stats.chi2.ppf(0.99, len(expected) - 1))
    report(
        8,
        worst_sigma <= 3.0 and chi2 <= chi2_crit,
        f"survival within {worst_sigma:.2f} sigma (<= 3) at 1e5 paths; "
        f"jump-law chi2 {chi2:.1f} <= {chi2_crit:.1f} (99%)",
    )


def test_criterion_09_volterra_solver(desk_state):
    # the closed-form f satisfies the renewal (Volterra) equation: its
    # trapezoid residual on the real flux is the quadrature's error, O(h^2)
    mixture = fpt.first_passage_mixture(desk_state, 10.0)
    resids = []
    for h in (0.04, 0.02, 0.01):
        ts = np.arange(0.0, 10.0 + h / 2, h)
        res = quadrature_residual(fpt.g_grid(desk_state, ts), mixture.density(ts), h)
        resids.append(float(np.max(np.abs(res))))
    orders = [math.log2(r1 / r2) for r1, r2 in zip(resids, resids[1:])]
    report(
        9,
        min(orders) >= 1.8,
        f"renewal residual of the mixture's f: observed order {min(orders):.2f} >= 1.8, "
        f"max residuals {['%.1e' % r for r in resids]}",
    )


def test_criterion_10_first_passage_triangle(desk_state, mc_batch):
    _, batch = mc_batch
    mixture = fpt.first_passage_mixture(desk_state, 10.0)
    p_mc, se = fpt_cdf_estimate(batch, 10.0)
    gap = abs(p_mc - mixture.cdf())
    band = 3.0 * se + mixture.bound
    report(
        10,
        gap <= band,
        f"|P_MC(tau <= 10) - P(tau <= 10)| = {gap:.2e} <= 3 sigma + bound = {band:.2e}",
    )


def test_criterion_11_recurrence(desk_params, desk_state):
    ladder = [10.0 ** (-k) for k in range(1, 7)]
    rep = fpt.recurrence_diagnostic(desk_state, ladder)
    before_end = any(v > 1e3 for v in rep.g_values[:-1])
    div = divergence_diagnostic(desk_params, m_terms=20)
    log_growth = div.partial_log_sums[20] - div.partial_log_sums[10]
    ok = (
        rep.strictly_increasing
        and before_end
        and rep.f0_proxy > 0.999
        and all(a <= b for a, b in zip(div.partial_log_sums, div.partial_log_sums[1:]))
        and log_growth >= 10.0
    )
    report(
        11,
        ok,
        f"G increasing down the ladder, G(1e-5)={rep.g_values[-2]:.0f} > 1e3, "
        f"G/(1+G)={rep.f0_proxy:.6f} > 0.999; log-sum growth {log_growth:.2e} >= 10",
    )


def test_criterion_12_nonintegrability_demo():
    demo = nonintegrable_demo(p=2, rate=1.0, m_terms=100)
    limit = demo.limit_increment
    inc_ok = abs(demo.increments[-1] - limit) <= 0.01 * limit
    linear_ok = demo.partial_sums[-1] >= 0.9 * limit * 100
    report(
        12,
        inc_ok and linear_ok,
        f"increments reach {demo.increments[-1]:.4f} (limit {limit}) within 1% "
        f"by m=100; partial sum {demo.partial_sums[-1]:.1f} grows linearly",
    )


def test_criterion_13_cli_reproducibility(tmp_path):
    config = {
        "landscape": {"p": 2, "n": 1, "gamma": -0.5, "c1": 1.0},
        "sim": {"horizon": 4.0, "paths": 2000, "seed": MC_SEED, "j_max": 8},
        "fpt": {"h": 0.02, "T": 4.0, "s_ladder": [0.1, 0.01, 0.001, 1e-4, 1e-5, 1e-6]},
        "kernel": {"times": [0.1, 0.5, 1.0, 2.0], "x_exps": list(range(-3, 9))},
        "verify": {"paths": 4000},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    mismatches = []
    for command in ("landscape", "kernel", "simulate", "fpt", "verify"):
        outs = []
        for run in ("a", "b"):
            out = tmp_path / command / run
            code = main(
                [command, "--config", str(cfg_path), "--out", str(out)]
            )
            assert code == 0, command
            outs.append(out)
        for f in sorted(outs[0].iterdir()):
            other = outs[1] / f.name
            if f.name == "manifest.json":
                # the timing fields may differ; of verify's stages, only
                # the check names must repeat
                just = [
                    {
                        k: sorted(v) if k == "stages" else v
                        for k, v in json.loads(p.read_text()).items()
                        if k != "wall_clock_s"
                    }
                    for p in (f, other)
                ]
                if just[0] != just[1]:
                    mismatches.append(f"{command}/{f.name}")
            elif f.read_bytes() != other.read_bytes():
                mismatches.append(f"{command}/{f.name}")
    report(
        13,
        not mismatches,
        "all five commands byte-identical across reruns"
        + ("" if not mismatches else f"; mismatches: {mismatches}"),
    )
