#!/usr/bin/env python3
"""Sweep the landscape parameters and tabulate relaxation observables.

For a grid of (gamma, c1) this writes one CSV row per parameter point:
the exterior jump mass C, the spectral gap at |xi| = 1, survival at a few
times, and the censored return probability from the Volterra-solved
first-passage density. Useful for eyeballing how the barrier structure
steers relaxation and return.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from ultradiff.cli import _write_csv
from ultradiff.fpt import g_grid, solve_volterra
from ultradiff.heat import HeatState, survival
from ultradiff.landscape import exterior_mass, normalize, spectral_gap_at_one
from ultradiff.padic import SpaceParams


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=2)
    ap.add_argument("--n", type=int, default=1)
    ap.add_argument("--gammas", type=float, nargs="+", default=[-0.9, -0.5, -0.1])
    ap.add_argument("--c1s", type=float, nargs="+", default=[0.5, 1.0, 2.0])
    ap.add_argument("--times", type=float, nargs="+", default=[0.5, 1.0, 5.0])
    ap.add_argument("--horizon", type=float, default=20.0)
    ap.add_argument("--h", type=float, default=0.02)
    ap.add_argument("--out", default="runs/landscape_sweep.csv")
    args = ap.parse_args(argv)

    space = SpaceParams(p=args.p, n=args.n)
    ts = np.arange(0.0, args.horizon + args.h / 2, args.h)
    header = (
        ["gamma", "c1", "exterior_mass", "gap_at_one"]
        + [f"S({t:g})" for t in args.times]
        + [f"int_f_0_{args.horizon:g}"]
    )
    rows = []
    for gamma in args.gammas:
        for c1 in args.c1s:
            params = normalize(space, gamma, c1)
            state = HeatState(params)
            grid = solve_volterra(g_grid(state, ts), args.h)
            rows.append(
                [gamma, c1, exterior_mass(params), spectral_gap_at_one(params)]
                + survival(state, args.times).tolist()
                + [grid.integral_f()]
            )
            print(
                f"gamma={gamma:+.2f} c1={c1:4.2f}: C={rows[-1][2]:.4f} "
                f"gap={rows[-1][3]:.4f} return<= {rows[-1][-1]:.4f}"
            )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_csv(out, header, list(zip(*rows)))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
