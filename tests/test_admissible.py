"""The heat tables across the admissible parameter space.

A seeded hypothesis search over every (p, n, gamma, C1) that config
validation accepts, in the ranges of the verify grid and beyond it: every
entry of the Ztilde and u tables over x_exps -12..5 and t in {0.1, 1, 10}
(and at the drawn cell's time, which an example sets far past the grid)
is finite and nonnegative, and one drawn cell of the sphere masses (or of
their slope) matches the high-precision bracket of the heat series within
its rounding bound. A sign test alone cannot see a wrong positive value or
a wrong 0.0; the oracle cell can.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import HeatOracle
from ultradiff.errors import UltradiffError
from ultradiff.heat import HeatState, sphere_masses, u_table, ztilde_table
from ultradiff.landscape import normalize
from ultradiff.padic import SpaceParams

X_EXPS = list(range(-12, 6))
TIMES = [0.1, 1.0, 10.0]


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 11, 13]),
    n=st.integers(1, 3),
    gamma_per_n=st.one_of(
        st.floats(-1.0, 0.0, exclude_min=True, exclude_max=True),
        st.floats(0.0, 3.0, exclude_min=True, exclude_max=True),
    ),
    log_c1=st.floats(math.log(0.05), math.log(20.0)),
    i=st.sampled_from(X_EXPS),
    t=st.sampled_from(TIMES),
    slope=st.booleans(),
)
# the deep cells where the subtracting form of the series went wrong, and
# three configs where it wrote negative Ztilde at p^n >= 25
@example(p=7, n=3, gamma_per_n=2 / 3, log_c1=math.log(3.0), i=-8, t=1.0, slope=False)
@example(p=13, n=2, gamma_per_n=0.5, log_c1=0.0, i=-12, t=0.1, slope=False)
@example(p=13, n=2, gamma_per_n=-0.5, log_c1=0.0, i=-12, t=1.0, slope=True)
@example(p=13, n=2, gamma_per_n=0.86, log_c1=math.log(0.26), i=-12, t=0.1, slope=False)
@example(p=7, n=2, gamma_per_n=2.32, log_c1=math.log(0.21), i=-12, t=0.1, slope=False)
@example(p=5, n=2, gamma_per_n=1.28, log_c1=math.log(4.46), i=-12, t=0.1, slope=True)
# a peaked landscape at a long time, where |delta_a| t passes 709 on the
# spheres where J rises and e^{|delta_a| t} would overflow
@example(p=2, n=1, gamma_per_n=3.0, log_c1=math.log(0.05), i=0, t=1e4, slope=False)
@example(p=2, n=1, gamma_per_n=3.0, log_c1=math.log(0.05), i=-12, t=1e4, slope=True)
def test_heat_tables_are_nonnegative_and_match_the_oracle(
    p, n, gamma_per_n, log_c1, i, t, slope
):
    try:
        state = HeatState(normalize(SpaceParams(p=p, n=n), gamma_per_n * n, math.exp(log_c1)))
    except UltradiffError:
        return  # a named refusal of the config is an allowed outcome
    times = sorted({*TIMES, t})
    for table in (ztilde_table(state, X_EXPS, times), u_table(state, X_EXPS, times)):
        assert np.all(np.isfinite(table)) and np.all(table >= 0.0)
    oracle = HeatOracle(state.landscape)
    value, terms = oracle.sphere_mass(i, t, slope)
    got = sphere_masses(state, [i], [t], slope)[0, 0]
    assert abs(got - value) <= oracle.rounding_bound(terms), (got, float(value))
