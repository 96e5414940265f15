"""One workload in one fresh interpreter, as a CLI user would run it.

Usage (``run.py`` starts it; it is not meant to be run by hand):

    python3 perfbench/worker.py probe <first-config> <seed>
    python3 perfbench/worker.py run <first-config> <seed> <plan.json>

Both modes first import ``ultradiff.cli`` and load the first command's
config, then print ``time.monotonic()`` at that point, so the parent can
take set-up time from before it started the process, and then the
speed factor of ``calibrate.py`` measured right after. ``probe`` stops
there. ``run`` drives
``ultradiff.cli.main`` in-process, iteration after iteration, until the
plan's seconds are spent, checks each iteration's artifacts, and writes
its measurements to the plan's result file. Only the imports above come
before the ready mark, so set-up time holds no benchmark code.
"""

import sys
import time


def _ready(first_config: str, seed: int):
    import ultradiff.cli as cli

    cli.load_run_config(first_config, seed_override=seed)
    return cli, time.monotonic()


def main(argv: list[str]) -> int:
    mode, first_config, seed = argv[0], argv[1], int(argv[2])
    cli, ready = _ready(first_config, seed)
    import statistics

    from calibrate import REFERENCE_S, reference_seconds

    # machine speed right after this set-up, to scale it
    setup_factor = REFERENCE_S / statistics.median(reference_seconds() for _ in range(3))
    print(repr(ready), repr(setup_factor), flush=True)
    if mode == "probe":
        return 0

    import json
    from pathlib import Path

    plan = json.loads(Path(argv[3]).read_text())
    src = Path(plan["root"]) / "src"
    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        print(f"ultradiff imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    import measure

    result = measure.run_plan(cli, plan)
    result["ready_monotonic"] = ready
    Path(plan["result"]).write_text(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
