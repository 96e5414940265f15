#!/usr/bin/env python3
"""Run the verify battery over the 54-point parameter grid.

    python3 scripts/verify_sweep.py [--paths 2000] [--seed 20240810] [--json PATH]

The grid is p in {2, 3, 5}, n in {1, 2}, gamma in {-0.95 n, -0.5 n, 0.5}
and C1 in {0.2, 1, 5}. Every other setting comes from configs/desk.json,
except the Monte Carlo path count and j_max, the smallest one whose jump
mass beyond p^j_max is below the simulator's truncation tolerance. Prints
one line per point: its failing checks (observed vs threshold), then the
truncation evidence of the two windowed checks (the Chapman-Kolmogorov
chain depth and escape bound, the conservation window and its tail bound).
Then, for each check, its largest observed/threshold ratio over the grid
and the point where it occurs, so that the margin of every threshold
shows. Exits 1 if any point fails or does not load. Every point is
expected to pass, so the last line should read "0 of 54 points fail".
Takes 1-2 s at 2000 or 20000 paths on a 2-vCPU machine. The test suite runs the same
grid, the same configs and checks at 100 paths
(tests/test_cli.py::test_verify_across_grid).

--json PATH also writes every point's full check list (name, observed,
threshold, passed, detail), or its load error, as JSON with exact floats,
so the outputs of two source trees can be compared byte for byte
(PYTHONPATH=OTHER/src python3 scripts/verify_sweep.py --json b.json, then
cmp a.json b.json).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

from ultradiff.cli import load_run_config, run_verify_checks
from ultradiff.errors import UltradiffError
from ultradiff.landscape import jmass_tail, normalize
from ultradiff.padic import SpaceParams
from ultradiff.sim import TRUNCATION_TOLERANCE

DESK = Path(__file__).resolve().parent.parent / "configs" / "desk.json"


#: The 54 (p, n, gamma, C1) points; the test suite sweeps the same list.
GRID = [
    (p, n, gamma, c1)
    for p in (2, 3, 5)
    for n in (1, 2)
    for gamma in (-0.95 * n, -0.5 * n, 0.5)
    for c1 in (0.2, 1.0, 5.0)
]


def smallest_j_max(p: int, n: int, gamma: float, c1: float) -> int:
    params = normalize(SpaceParams(p=p, n=n), gamma, c1)
    j = 1
    while jmass_tail(params, j) >= TRUNCATION_TOLERANCE:
        j += 1
    return j


def point_config(
    p: int, n: int, gamma: float, c1: float, paths: int, seed: int
) -> dict:
    """configs/desk.json moved to one grid point, with the smallest j_max."""
    desk = json.loads(DESK.read_text())
    cfg = dict(desk, landscape={"p": p, "n": n, "gamma": gamma, "c1": c1})
    cfg["sim"] = dict(desk["sim"], j_max=smallest_j_max(p, n, gamma, c1), seed=seed)
    cfg["verify"] = {"paths": paths}
    return cfg


def point_label(p: int, n: int, gamma: float, c1: float) -> str:
    return f"p={p} n={n} gamma={gamma:+.2f} C1={c1:g}"


def worst_ratios(points: list[dict]) -> dict[str, tuple[float, str]]:
    """Each check's largest observed/threshold over the points that ran,
    with the point's label: the margin of every threshold on this grid (a
    positive observed against a threshold of 0 reads inf)."""
    worst: dict[str, tuple[float, str]] = {}
    for pt in points:
        label = point_label(pt["p"], pt["n"], pt["gamma"], pt["c1"])
        for c in pt.get("checks", ()):
            observed, threshold = c["observed"], c["threshold"]
            ratio = observed / threshold if threshold else math.inf if observed > 0 else 0.0
            if c["name"] not in worst or ratio > worst[c["name"]][0]:
                worst[c["name"]] = (ratio, label)
    return worst


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--paths", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=20240810)
    ap.add_argument("--json", type=Path, metavar="PATH",
                    help="write every point's checks here as JSON")
    args = ap.parse_args(argv)

    bad, points = 0, []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "point.json"
        for p, n, gamma, c1 in GRID:
            label = point_label(p, n, gamma, c1)
            cfg = point_config(p, n, gamma, c1, args.paths, args.seed)
            j_max = cfg["sim"]["j_max"]
            path.write_text(json.dumps(cfg))
            point = dict(p=p, n=n, gamma=gamma, c1=c1, j_max=j_max)
            try:
                checks = run_verify_checks(load_run_config(path))
            except UltradiffError as e:
                bad += 1
                points.append(dict(point, error=str(e)))
                print(f"{label} j_max={j_max}: error: {e}", flush=True)
                continue
            points.append(dict(point, checks=checks))
            failed = [c for c in checks if not c["passed"]]
            bad += bool(failed)
            verdict = ", ".join(
                f"{c['name']} {c['observed']:.3g} > {c['threshold']:.3g}"
                + (f" ({c['detail']})" if c["detail"] else "")
                for c in failed
            )
            evidence = "; ".join(
                f"{c['name']} {c['detail']}"
                for c in checks
                if c["name"] in ("chapman_kolmogorov", "conservation")
            )
            print(f"{label} j_max={j_max}: {verdict or 'ok'} [{evidence}]",
                  flush=True)
    if args.json:
        args.json.write_text(json.dumps(points, indent=1) + "\n")
    print("worst observed/threshold per check:")
    for name, (ratio, label) in worst_ratios(points).items():
        print(f"  {name:<30} {ratio:.3g} at {label}")
    print(f"{bad} of {len(GRID)} points fail")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(run())
