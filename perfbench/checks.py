"""Correctness gates run on each iteration's artifacts (outside the timing).

Every gate is one operation in the benchmark's ``attempted`` count; a
gate that does not hold adds one to ``failed``. The gates are:

* every command exits 0, and its manifest's sha256s match the files;
* an iteration reproduces the first iteration's artifacts byte for byte
  (the CLI's determinism contract: same config, same seed);
* every check in ``verify_report.json`` passed;
* on ``fpt_long``, the verdict is recurrent and the censored return
  probability does not exceed the G/(1+G) proxy;
* on ``sweep``, each Monte Carlo survival estimate agrees with the
  analytic S(t) of the same point (:func:`survival_agreement`).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

RECURRENT = "recurrent (numerically supported)"

# Chance that correct code fails the Monte Carlo agreement gate, per
# iteration and over all of its comparisons together.
MC_FALSE_ALARM = 1e-4


@dataclass
class Ledger:
    """Counts operations and keeps the first few failure messages."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


def artifact_hashes(out: Path) -> dict:
    """The manifest's {artifact: sha256}, or {} when it is missing."""
    path = out / "manifest.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text())["artifacts"]


def manifest_matches(out: Path) -> bool:
    listed = artifact_hashes(out)
    return bool(listed) and all(
        (out / name).exists()
        and hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
        for name, digest in listed.items()
    )


def artifact_bytes(out: Path) -> int:
    names = list(artifact_hashes(out)) + ["manifest.json"]
    return sum((out / n).stat().st_size for n in names if (out / n).exists())


def verify_report(out: Path) -> tuple[bool, list[dict]]:
    report = json.loads((out / "verify_report.json").read_text())
    return bool(report["passed"]), report["checks"]


def fpt_verdict_holds(out: Path) -> tuple[bool, str]:
    v = json.loads((out / "recurrence_verdict.json").read_text())
    ok = v["verdict"] == RECURRENT and v["return_probability_censored"] <= v["f0_proxy"]
    return ok, (
        f"verdict={v['verdict']!r} censored={v['return_probability_censored']!r} "
        f"f0_proxy={v['f0_proxy']!r}"
    )


def bernstein_deviation(s: float, n: int, alpha: float) -> float:
    """Largest |estimate - s| that correct code exceeds with probability at
    most ``alpha``, for the mean of n Bernoulli(s) draws.

    Bernstein's inequality gives P(|est - s| >= e) <= 2 exp(-n e^2 /
    (2 s(1-s) + 2e/3)); this is its root in e. Unlike a normal quantile of
    the z-score it stays valid when n s(1-s) is small.
    """
    log_term = math.log(2.0 / alpha)
    var = s * (1.0 - s)
    return (log_term / 3.0 + math.sqrt(log_term**2 / 9.0 + 2.0 * n * log_term * var)) / n


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def survival_agreement(kernel_out: Path, simulate_out: Path, n_comparisons: int):
    """Yield (t, z, z_limit, ok) for each Monte Carlo survival point.

    z uses the stderr under the null, sqrt(S(1-S)/N) with S the analytic
    survival, so it does not degenerate when no path has left. Each
    comparison gets MC_FALSE_ALARM / n_comparisons of the false-alarm
    budget (a union bound over the iteration).
    """
    analytic = {r["t"]: float(r["value"]) for r in _rows(kernel_out / "survival.csv")}
    alpha = MC_FALSE_ALARM / max(n_comparisons, 1)
    for r in _rows(simulate_out / "survival_mc.csv"):
        s, est, n = analytic[r["t"]], float(r["estimate"]), int(r["n_paths"])
        dev, limit = abs(est - s), bernstein_deviation(s, n, alpha)
        null_se = math.sqrt(s * (1.0 - s) / n)
        if null_se > 0.0:
            z, z_limit = dev / null_se, limit / null_se
        else:
            z, z_limit = (0.0 if dev == 0.0 else math.inf), math.inf
        yield float(r["t"]), z, z_limit, dev <= limit


def count_mc_points(simulate_out: Path) -> int:
    return len(_rows(simulate_out / "survival_mc.csv"))
