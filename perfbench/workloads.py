"""The benchmark's workloads: which CLI commands run, on which configs.

Every workload is a closed loop with one caller: the commands of one
iteration run back to back, and the next iteration starts when the last
command returns. ``desk`` uses ``configs/desk.json`` as shipped; the other
workloads derive their configs from it. The workload seed reaches the
program only through each command's ``--seed`` flag.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path

DESK_CONFIG = Path("configs") / "desk.json"

# (p, n, gamma, C1, j_max): moving-jump fractions from 0.14 to 0.99, one
# point with gamma > 0 (the other decay-bound branch in `kernel`)
SWEEP_POINTS = (
    (2, 1, -0.5, 0.2, 7),
    (2, 2, -1.0, 0.3, 7),
    (3, 2, -1.0, 1.0, 3),
    (5, 1, -0.7, 0.3, 2),
    (3, 1, -0.3, 0.5, 3),
    (2, 2, 0.5, 0.2, 7),
)

WORKLOADS = ("desk", "fpt_long", "sweep")
COMMANDS = ("landscape", "kernel", "simulate", "fpt", "verify")


@dataclass(frozen=True)
class Step:
    """One CLI invocation of an iteration."""

    label: str  # unique within the workload, e.g. "p3/kernel"
    command: str
    config: str
    out: str
    # the recurrence verdict must hold (the long-horizon fpt run)
    expect_recurrent: bool = False

    def argv(self, seed: int) -> list[str]:
        argv = [self.command, "--config", self.config, "--out", self.out,
                "--seed", str(seed)]
        if self.command in ("simulate", "verify"):
            argv += ["--workers", "1"]
        return argv


def geometric_times(lo: float, hi: float, count: int) -> list[float]:
    return [lo * (hi / lo) ** (k / (count - 1)) for k in range(count)]


def _write(cfg: dict, path: Path) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n")
    return str(path)


def build_steps(workload: str, root: Path, run_dir: Path, smoke: bool = False) -> list[Step]:
    """Write the workload's configs under ``run_dir`` and list its steps.

    ``smoke`` shrinks path counts and horizons so the self-test runs each
    workload in seconds; timed runs never set it.
    """
    desk = json.loads((root / DESK_CONFIG).read_text())
    cfg_dir, out_dir = run_dir / "configs", run_dir / "out"

    if workload == "desk":
        config = str(root / DESK_CONFIG)
        if smoke:
            cfg = copy.deepcopy(desk)
            cfg["sim"]["paths"] = 1000
            cfg["verify"]["paths"] = 2000
            config = _write(cfg, cfg_dir / "desk.json")
        return [Step(c, c, config, str(out_dir / c)) for c in COMMANDS]

    if workload == "fpt_long":
        # T = 400 at the desk h = 0.01: m = 40 001 grid points, the horizon
        # where the censored return probability reaches 0.98
        cfg = copy.deepcopy(desk)
        cfg["fpt"]["T"] = 40.0 if smoke else 400.0
        config = _write(cfg, cfg_dir / "fpt_long.json")
        return [Step("fpt", "fpt", config, str(out_dir / "fpt"), expect_recurrent=True)]

    if workload == "sweep":
        steps = []
        for p, n, gamma, c1, j_max in SWEEP_POINTS:
            point = f"p{p}n{n}g{gamma}c{c1}"
            cfg = copy.deepcopy(desk)
            cfg["landscape"] = {"p": p, "n": n, "gamma": gamma, "c1": c1}
            cfg["sim"]["j_max"] = j_max
            cfg["sim"]["paths"] = 200 if smoke else 2000
            cfg["kernel"] = {
                "times": geometric_times(0.05, 20.0, 8 if smoke else 64),
                "x_exps": list(range(-10, 31)),
            }
            config = _write(cfg, cfg_dir / f"{point}.json")
            for c in ("landscape", "kernel", "fpt", "simulate"):
                steps.append(Step(f"{point}/{c}", c, config, str(out_dir / point / c)))
        return steps

    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
