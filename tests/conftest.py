"""Shared fixtures: the desk-scale parameter set used across the suite, and
the 54-point grid of scripts/verify_sweep.py for the tests that sweep it."""

import importlib.util
from pathlib import Path

import pytest

from ultradiff.heat import HeatState
from ultradiff.landscape import normalize
from ultradiff.padic import SpaceParams

_SWEEP = Path(__file__).resolve().parent.parent / "scripts" / "verify_sweep.py"
_spec = importlib.util.spec_from_file_location("verify_sweep", _SWEEP)
verify_sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(verify_sweep)

#: (p, n, gamma, C1) for p in {2, 3, 5}, n in {1, 2}, gamma in
#: {-0.95 n, -0.5 n, 0.5}, C1 in {0.2, 1, 5}.
GRID = verify_sweep.GRID


def at(table, state, i, t):
    """One entry of a heat table (``u_table``, ``ztilde_table``): the value
    at norm exponent i and time t, from the one-point table."""
    return table(state, [i], [t])[0, 0]


@pytest.fixture(scope="session")
def desk_space():
    return SpaceParams(p=2, n=1)


@pytest.fixture(scope="session")
def desk_params(desk_space):
    return normalize(desk_space, gamma=-0.5, c1=1.0)


@pytest.fixture(scope="session")
def desk_state(desk_params):
    return HeatState(desk_params)


@pytest.fixture(scope="session")
def state_p3n2():
    return HeatState(normalize(SpaceParams(p=3, n=2), gamma=-0.5, c1=1.0))
