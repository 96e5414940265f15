#!/usr/bin/env python3
"""Where a fresh process's start-up time goes, up to the point a command
could run.

    python3 scripts/import_cost.py [--runs 21] [--config configs/desk.json]

Each run starts a new interpreter as the benchmark's workers do
(``PYTHONDONTWRITEBYTECODE=1``, ``PYTHONPATH=src`` of this checkout), which
runs ``import ultradiff.cli`` and ``load_run_config(config)``. Start to
ready is the time from just before the process is started to the moment the
config is loaded, taken from ``time.monotonic`` on both sides; the child
also marks the start of its own code and the end of the import, which
splits that time into interpreter start, the import and the config load.

A second interpreter per run does the same under ``-X importtime``, whose
per-module self times split the imports into those the interpreter makes
before the code starts (``site`` and its hooks), and then numpy, the
standard library, and each ``ultradiff`` module; the sum of the
``ultradiff`` lines is the package's own share of the cold import.
``-X importtime`` slows the import a little, so its totals run above the
plain ones. Every figure printed is the median over the runs, in
milliseconds.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DESK = ROOT / "configs" / "desk.json"

_CHILD = """
import sys, time
start = time.monotonic()
sys.stderr.write("start of code\\n")
import ultradiff.cli as cli
imported = time.monotonic()
cli.load_run_config(sys.argv[1])
print(repr(start), repr(imported), repr(time.monotonic()))
"""


def _env() -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    return env


def timed_run(config: Path) -> dict[str, float]:
    """Seconds from launch to ready, split at the child's two marks."""
    launch = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(config)],
        env=_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    start, imported, ready = map(float, proc.stdout.split())
    return {
        "start to ready": ready - launch,
        "  interpreter start": start - launch,
        "  import ultradiff.cli": imported - start,
        "  load_run_config": ready - imported,
    }


def importtime_run(config: Path) -> dict[str, float]:
    """Self seconds per group of the ``-X importtime`` report: what the
    interpreter imports before the code starts, then numpy, the standard
    library, and each ultradiff module."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", _CHILD, str(config)],
        env=_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    groups: dict[str, float] = defaultdict(float)
    started = False
    for line in proc.stderr.splitlines():
        started = started or line == "start of code"
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = (field.strip() for field in line[len("import time:"):].split("|"))
        top = name.split(".")[0]
        if not started:
            group = "interpreter start"
        else:
            group = "numpy" if top == "numpy" else name if top == "ultradiff" else "stdlib"
        groups[group] += int(self_us) * 1e-6
    groups["ours"] = sum(v for k, v in groups.items() if k.startswith("ultradiff"))
    return groups


def _median_ms(samples: list[dict[str, float]], key: str) -> float:
    return 1e3 * statistics.median(s.get(key, 0.0) for s in samples)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=21, help="fresh interpreters of each kind")
    parser.add_argument("--config", type=Path, default=DESK, help="config to load")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    timed, split = [], []
    for _ in range(args.runs):  # interleaved, so drift hits both alike
        timed.append(timed_run(args.config))
        split.append(importtime_run(args.config))
    print(f"{args.runs} runs, PYTHONDONTWRITEBYTECODE=1, config {args.config.name}; medians in ms")
    for key in timed[0]:
        print(f"{key:<34}{_median_ms(timed, key):8.1f}")
    print("import self time (-X importtime)")
    for key, label in (("interpreter start", "before the code (site)"), ("numpy", "numpy"),
                       ("stdlib", "stdlib"), ("ours", "ultradiff, all modules")):
        print(f"  {label:<32}{_median_ms(split, key):8.1f}")
    for key in sorted({k for s in split for k in s if k.startswith("ultradiff")}):
        print(f"    {key:<30}{_median_ms(split, key):8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
