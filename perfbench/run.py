"""ultradiff benchmark: wall time of the CLI commands, and per-layer spans.

    python3 perfbench/run.py --workload {desk,fpt_long,sweep} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout; it imports ``ultradiff`` from that
checkout's ``src/`` and reads ``configs/desk.json``. Each run starts
fresh interpreters with BLAS/OpenMP pinned to one thread: a few that only
import the package and load the first config (set-up time), then one that
runs the workload for ``--seconds`` (see ``worker.py``). ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer ones from a
traced run. The last line of standard output is the result object; the
full record (environment, samples, artifact sha256s) goes to
``.perfbench_out/<workload>/seed<N>-trace<T>/record.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3  # before the timed run, and again after it
RUN_LIMIT_S = 175.0  # every run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("ULTRADIFF_OUT", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read without running git; 'unknown' outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(root: Path) -> str:
    """sha256 over the package sources, to identify the code measured."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def spawn_ready(args: list[str], env: dict, timeout: float) -> float:
    """Run the worker to completion; returns its set-up seconds, scaled to
    the reference speed measured right after the set-up (``calibrate.py``).

    Set-up time runs from just before the process is started to the
    worker's ready mark; both clocks are CLOCK_MONOTONIC.
    """
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with {proc.returncode}")
    ready, factor = (float(x) for x in proc.stdout.split()[:2])
    return (ready - t0) * factor


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny workload sizes and one set-up probe (self-test only)")
    args = ap.parse_args(argv)
    began = time.monotonic()

    root = Path.cwd()
    needed = [root / "src" / "ultradiff" / "cli.py", root / workloads.DESK_CONFIG,
              root / "BENCHMARK.json"]
    absent = [str(p) for p in needed if not p.is_file()]
    if absent:
        print(f"not an ultradiff checkout: missing {', '.join(absent)}", file=sys.stderr)
        return 2
    if not (0 <= args.seed < 2**64) or args.seconds < 1:
        print("--seed must fit in 64 bits and --seconds be >= 1", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())

    run_dir = root / ".perfbench_out" / args.workload / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    steps = workloads.build_steps(args.workload, root, run_dir, smoke=args.smoke)
    plan = {
        "root": str(root),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "steps": [vars(s) for s in steps],
        "result": str(run_dir / "result.json"),
        "spans": str(run_dir / "spans.json"),
    }
    plan_path = run_dir / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1))

    env = child_env(root)
    probes = 1 if args.smoke else SETUP_PROBES
    first = [steps[0].config, str(args.seed)]
    load_before = os.getloadavg()
    try:
        # probes before and after the timed run sample set-up across it
        setup = [spawn_ready(["probe", *first], env, 30.0) for _ in range(probes)]
        remaining = RUN_LIMIT_S - 30.0 * probes - (time.monotonic() - began)
        setup.append(spawn_ready(["run", *first, str(plan_path)], env, remaining))
        setup += [spawn_ready(["probe", *first], env, 30.0) for _ in range(probes)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1
    res = json.loads(Path(plan["result"]).read_text())

    values = res["per_layer"] if args.trace else {
        **res["end_to_end"], "setup_s": statistics.median(setup)}
    declared = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "env": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": res["numpy"],
            "git_sha": git_sha(root),
            "source_sha256": source_digest(root),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
        },
        "setup_samples_s": setup,
        "step_seconds": res["step_seconds"],
        "step_seconds_raw": res["step_seconds_raw"],
        "failures": res["failures"],
        "missing_targets": res["missing_targets"],
        "artifacts": res["artifacts"],
        "metrics": metrics,
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    shutil.rmtree(run_dir / "out", ignore_errors=True)

    counts = {mode: len(rows) for mode, rows in res["step_seconds"].items()}
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{counts.get('plain', 0)} untraced + {counts.get('traced', 0)} traced iterations, "
          f"{len(setup)} set-ups; record {run_dir / 'record.json'}")
    for name, m in metrics.items():
        print(f"#   {name} = {m['value']!r} {m['unit']}")
    for msg in res["failures"]:
        print(f"# FAILED: {msg}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
