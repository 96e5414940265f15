"""Alternating benchmark pairs of two checkouts, and the rule they are read by.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload fpt_long --pairs 10 [--seed 1]

Pair i runs ``perfbench/run.py --workload W --seed SEED+i --seconds S
--trace 0`` in each checkout (from its root, so each imports its own
``src/``), the parent first in even pairs and the change first in odd ones;
S is the ``run_seconds`` of the parent's ``BENCHMARK.json``. Each pair's
metrics are printed as one JSON line. For each end-to-end metric that
``BENCHMARK.json`` declares, it prints each side's median and quartiles,
the pairs the change wins, and whether a gain holds by the rule: the
change is better in at least 9 of 10 pairs, and the median gap is larger
than the parent's interquartile range.
A run that fails, or reports ``failed`` > 0, stops the script.

The benchmark's ``peak_rss_mb`` moves with the length of the checkout's
path, so the script warns when the two paths differ in length.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9  # at least 9 of 10 pairs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), the quartiles taken inclusively."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """The rule on one metric's pairs (parent[i] and change[i] ran as pair
    i); ``better`` is "lower" or "higher"."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same number of parent and change values, at least one")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    gap = sign * (pq[1] - cq[1])  # > 0 where the change is better
    iqr = pq[2] - pq[0]
    return {
        "parent": pq,
        "change": cq,
        "wins": wins,
        "pairs": len(parent),
        "gap": gap,
        "parent_iqr": iqr,
        "relative": (cq[1] - pq[1]) / pq[1] if pq[1] else math.nan,
        "holds": wins >= math.ceil(WIN_SHARE * len(parent)) and gap > iqr,
    }


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["failed"]:
        raise RuntimeError(f"{root}: {result['failed']} failed operations at seed {seed}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def _quartiles_text(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} ({q[0]:.6g}-{q[2]:.6g})"


def report(name: str, s: dict) -> str:
    """One line: the medians and quartiles, the wins, the gap and the verdict."""
    return (f"{name}: parent {_quartiles_text(s['parent'])} -> "
            f"change {_quartiles_text(s['change'])} "
            f"({100 * s['relative']:+.1f}%), change better in {s['wins']} of {s['pairs']}, "
            f"gap {s['gap']:.4g} vs parent IQR {s['parent_iqr']:.4g}: "
            f"gain {'holds' if s['holds'] else 'not shown'}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="pair i runs at seed SEED + i")
    args = ap.parse_args(argv)
    roots = [args.parent.resolve(), args.change.resolve()]
    if len(str(roots[0])) != len(str(roots[1])):
        print(f"warning: the checkout paths differ in length ({len(str(roots[0]))} and "
              f"{len(str(roots[1]))} characters); peak_rss_mb moves with it", file=sys.stderr)
    declared = json.loads((roots[0] / "BENCHMARK.json").read_text())
    runs: list[list[dict]] = [[], []]
    for i in range(args.pairs):
        seed = args.seed + i
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            runs[side].append(run_once(roots[side], args.workload, seed, declared["run_seconds"]))
        pair = {"workload": args.workload, "seed": seed,
                "parent": runs[0][-1], "change": runs[1][-1]}
        print(json.dumps(pair), flush=True)
    for metric in declared["end_to_end"]:
        name = metric["name"]
        s = summarize([r[name] for r in runs[0]], [r[name] for r in runs[1]], metric["better"])
        print(report(f"{args.workload} {name}", s))
    return 0


if __name__ == "__main__":
    sys.exit(main())
