"""Named mutants: plausible defects that ``verify`` must read red.

Each mutant is a monkeypatch of one computation, and each must turn a named
check red at the desk point with observed >= 10 times its threshold
(DeMillo, Lipton & Sayward, IEEE Computer 11(4) (1978) 34). The first
entries cover the closed-form first-passage mixture, which
``fpt_mixture_vs_volterra`` holds to the Volterra solve on verify's grid.
"""

from pathlib import Path

import pytest

import ultradiff.cli as cli
from ultradiff.cli import load_run_config, run_verify_checks

ROOT = Path(__file__).resolve().parent.parent


def drop_residue_at_minus_kappa(mixture):
    """The pole at -kappa without its residue r_0: rho_0 = r_0 + r_pair
    becomes r_pair = rho_pair / delta."""
    rho = mixture.rho.copy()
    rho[0] = rho[mixture.pair] / (mixture.mu[mixture.pair] - mixture.mu[0])
    return mixture._replace(rho=rho)


def first_zero_at_bracket_midpoint(mixture):
    """The zero of S-hat in the first interval moved to its midpoint, as a
    root solver that stopped at its first bisection would leave it."""
    mu = mixture.mu.copy()
    mu[1] = 0.5 * (mixture.poles[0] + mixture.poles[1])
    return mixture._replace(mu=mu)


@pytest.mark.parametrize("mutant", [drop_residue_at_minus_kappa, first_zero_at_bracket_midpoint])
def test_mixture_mutant_reads_red(monkeypatch, mutant):
    build = cli.first_passage_mixture
    monkeypatch.setattr(cli, "first_passage_mixture", lambda state, T: mutant(build(state, T)))
    checks = run_verify_checks(load_run_config(ROOT / "configs" / "desk.json"))
    [check] = [c for c in checks if c["name"] == "fpt_mixture_vs_volterra"]
    assert not check["passed"]
    assert check["observed"] >= 10.0 * check["threshold"], check
