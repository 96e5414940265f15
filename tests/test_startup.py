"""What a fresh process pays to start: importing ``ultradiff.cli`` loads no
generated record code, no test-only oracle and no ``statistics``. The
records are plain ``NamedTuple`` or ``__slots__`` classes, so they must
still pickle, since ``run_paths`` ships its config to worker processes and
gets batches back."""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np

from ultradiff.sim import SimConfig, run_paths

ROOT = Path(__file__).resolve().parent.parent

_PROBE = """
import json, sys
import ultradiff.cli
import ultradiff.padic
ours = [m for name, m in sorted(sys.modules.items())
        if name == "ultradiff" or name.startswith("ultradiff.")]
print(json.dumps({
    "modules": [m.__name__ for m in ours],
    "dataclasses": "dataclasses" in sys.modules,
    "statistics": "statistics" in sys.modules,
    "dataclass_records": sorted(
        f"{m.__name__}.{k}" for m in ours for k, v in vars(m).items()
        if isinstance(v, type) and hasattr(v, "__dataclass_fields__")
    ),
    "padic_fraction": hasattr(ultradiff.padic, "Fraction"),
}))
"""


def test_cli_import_generates_no_record_code():
    # as the benchmark's workers start: no bytecode cache written
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert "ultradiff.sim" in seen["modules"]  # the probe saw the package
    assert not seen["dataclasses"]
    assert not seen["statistics"]  # only verify's binomial tails need it
    assert seen["dataclass_records"] == []
    assert not seen["padic_fraction"]


def test_records_survive_pickling(desk_params):
    sim = SimConfig(landscape=desk_params, horizon=2.0, max_paths=40, seed=3, j_max=8)
    params = pickle.loads(pickle.dumps(desk_params))
    assert params == desk_params
    assert params.space == desk_params.space
    back = pickle.loads(pickle.dumps(sim))
    for name in ("horizon", "max_paths", "seed", "j_max", "depth_cap"):
        assert getattr(back, name) == getattr(sim, name)
    assert back.landscape == sim.landscape
    assert back.table.j_min == sim.table.j_min
    assert back.table.defect_high == sim.table.defect_high
    assert np.array_equal(back.table.probs, sim.table.probs)
    assert np.array_equal(back.table.moving_cdf, sim.table.moving_cdf)
    batch = run_paths(sim, query_times=(0.5, 1.0))
    copy = pickle.loads(pickle.dumps(batch))
    assert copy.query_times == batch.query_times
    for name in ("inside_at", "norm_at", "tau", "exited", "n_jumps"):
        assert np.array_equal(getattr(copy, name), getattr(batch, name), equal_nan=True)
    # the unpickled config runs the same paths
    again = run_paths(back, query_times=(0.5, 1.0))
    assert np.array_equal(again.tau, batch.tau, equal_nan=True)
