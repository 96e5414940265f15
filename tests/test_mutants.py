"""Named mutants: plausible defects that ``verify`` must read red.

Each mutant is a monkeypatch of one computation, and each must turn a named
check red with observed far above its threshold (DeMillo, Lipton & Sayward,
IEEE Computer 11(4) (1978) 34). The first entries cover the closed-form
first-passage mixture, which ``fpt_mixture_vs_laplace`` holds to the
renewal identity F = G/(1+G): each reads at least 10^6 times that check's
derived threshold at the desk point and at two points of the verify grid.
"""

import json
from pathlib import Path

import pytest

import ultradiff.cli as cli
from conftest import verify_sweep
from ultradiff.cli import load_run_config, run_verify_checks

ROOT = Path(__file__).resolve().parent.parent

#: desk (configs/desk.json itself), (3, 2, -1, 1), where rho_0's
#: cancellation sets the threshold, (2, 2, 0.5, 0.2), gamma > 0 with nine
#: poles, and (5, 1, -0.95, 5), whose rates (1e-12 and below) sit far under
#: the s-ladder, so only s at the poles' own rates sees a moved zero
MUTANT_POINTS = [None, (3, 2, -1.0, 1.0), (2, 2, 0.5, 0.2), (5, 1, -0.95, 5.0)]


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
def test_mixture_mutant_reads_red(monkeypatch, tmp_path, mutant):
    build = cli.first_passage_mixture
    monkeypatch.setattr(cli, "first_passage_mixture", lambda state, T: mutant(build(state, T)))
    for point in MUTANT_POINTS:
        path = ROOT / "configs" / "desk.json"
        if point:
            path = tmp_path / "point.json"
            path.write_text(json.dumps(verify_sweep.point_config(*point, paths=100, seed=20240810)))
        checks = run_verify_checks(load_run_config(path))
        [check] = [c for c in checks if c["name"] == "fpt_mixture_vs_laplace"]
        assert check["observed"] >= 1e6 * check["threshold"], (point, check)
