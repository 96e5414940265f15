#!/usr/bin/env python3
"""Run the full desk-scale pipeline and print a one-screen summary.

Drives the five CLI commands against configs/desk.json into a single
output root (default ./runs/pipeline), then reads the artifacts back and
summarizes: spectral gap, survival curve, Monte Carlo agreement, Laplace
ladder, and the recurrence verdict.
"""

import argparse
import json
import sys
from pathlib import Path

from ultradiff.cli import main as cli_main

REPO = Path(__file__).resolve().parents[1]


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", default=str(REPO / "configs" / "desk.json"))
    ap.add_argument("--out", default="runs/pipeline")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args(argv)

    root = Path(args.out)
    for command in ("landscape", "kernel", "simulate", "fpt", "verify"):
        cmd = [command, "--config", args.config, "--out", str(root / command)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        if command in ("simulate", "verify"):
            cmd += ["--workers", str(args.workers)]
        print(f"== ultradiff {command}")
        code = cli_main(cmd)
        if code != 0:
            print(f"{command} failed with exit code {code}", file=sys.stderr)
            return code

    diag = json.loads((root / "landscape" / "diagnostics.json").read_text())
    verdict = json.loads((root / "fpt" / "recurrence_verdict.json").read_text())
    print("\n== summary")
    print(f"spectral gap at |xi|=1 : {diag['gap_at_one']:.6f}")
    print(f"divergence diagnostic  : {diag['divergence']['verdict']}")
    surv = (root / "kernel" / "survival.csv").read_text().splitlines()[1:]
    mc = (root / "simulate" / "survival_mc.csv").read_text().splitlines()[1:]
    mc_by_t = {line.split(",")[0]: line.split(",")[1:3] for line in mc}
    print("t        S(t) analytic   S(t) Monte Carlo")
    for line in surv:
        t, value, _ = line.split(",")
        est, se = mc_by_t.get(t, ("-", "-"))
        extra = f"{float(est):.4f} +- {float(se):.4f}" if est != "-" else "-"
        print(f"{float(t):<8g} {float(value):<15.6f} {extra}")
    print(f"recurrence verdict     : {verdict['verdict']}")
    print(f"G/(1+G) at s=1e-6      : {verdict['f0_proxy']:.6f}")
    print(f"P(tau<=T), closed form : {verdict['return_probability_censored']:.4f}"
          "  (censored at the horizon T)")
    return 0


if __name__ == "__main__":
    sys.exit(run())
