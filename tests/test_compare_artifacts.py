"""The artifact comparison script: identical runs pass and count their
files as byte-identical, and a 1e-12 relative change of a single number
(the tolerance is 1e-13), a changed text field, a manifest digest that is
not its file's, or a changed manifest field other than a timing fails."""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ultradiff.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "compare_artifacts.py"


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    for command in ("landscape", "kernel"):
        code = main(
            [command, "--config", str(ROOT / "configs" / "desk.json"),
             "--out", str(out / command)]
        )
        assert code == 0
    return out


def compare(old: Path, new: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(old), str(new)],
        capture_output=True, text=True, timeout=60,
    )


def rehash(directory: Path) -> None:
    """List the sha256 of each artifact as it now stands in its manifest,
    as the run that wrote the changed file would have."""
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    for name in manifest["artifacts"]:
        manifest["artifacts"][name] = hashlib.sha256((directory / name).read_bytes()).hexdigest()
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def test_identical_trees_pass(run_dir, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    proc = compare(run_dir, copy)
    assert proc.returncode == 0, proc.stdout
    assert "0 violations" in proc.stdout
    assert "kernel/ztilde.csv" in proc.stdout


def test_byte_identical_files_are_counted(run_dir, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    # the same number in another spelling: equal as a number, not as bytes
    spectral = copy / "landscape" / "spectral.csv"
    spectral.write_text(spectral.read_text().replace("\n0,", "\n0.0,", 1))
    rehash(copy / "landscape")
    proc = compare(run_dir, copy)
    assert proc.returncode == 0, proc.stdout
    lines = proc.stdout.splitlines()
    assert "kernel/ztilde.csv: byte-identical" in lines
    assert "landscape/spectral.csv: largest scaled deviation 0" in lines
    assert lines[-1] == "5 of 6 files byte-identical"


def _perturb_csv(path: Path) -> None:
    lines = path.read_text().splitlines()
    cells = lines[41].split(",")  # k = 0 on the default window
    cells[2] = format(float(cells[2]) * (1.0 + 1e-12), ".17g")
    lines[41] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _perturb_json(path: Path) -> None:
    doc = json.loads(path.read_text())
    doc["gap_at_one"] *= 1.0 + 1e-12
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _perturb_text(path: Path) -> None:
    doc = json.loads(path.read_text())
    doc["divergence"]["verdict"] = "inconclusive"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize(
    "name,perturb",
    [
        ("spectral.csv", _perturb_csv),
        ("diagnostics.json", _perturb_json),
        ("diagnostics.json", _perturb_text),
    ],
)
def test_one_perturbed_value_fails(run_dir, tmp_path, name, perturb):
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    perturb(copy / "landscape" / name)
    rehash(copy / "landscape")
    proc = compare(run_dir, copy)
    assert proc.returncode == 1
    violations = [l for l in proc.stdout.splitlines() if l.startswith("VIOLATION")]
    assert len(violations) == 1 and name in violations[0]


def test_a_digest_that_is_not_the_files_fails(run_dir, tmp_path):
    # the same numbers in another spelling, under the old digest
    copy = tmp_path / "copy"
    shutil.copytree(run_dir, copy)
    spectral = copy / "landscape" / "spectral.csv"
    spectral.write_text(spectral.read_text().replace("\n0,", "\n0.0,", 1))
    proc = compare(run_dir, copy)
    assert proc.returncode == 1
    violations = [l for l in proc.stdout.splitlines() if l.startswith("VIOLATION")]
    assert violations == [
        "VIOLATION landscape/manifest.json: digest of spectral.csv does not match the file"
    ]


def _edit_manifest(path: Path, edit) -> None:
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def test_manifests_may_differ_only_in_timings(run_dir, tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    shutil.copytree(run_dir, old)
    shutil.copytree(run_dir, new)
    for root, seconds in ((old, 0.25), (new, 0.5)):
        _edit_manifest(
            root / "kernel" / "manifest.json",
            lambda m: m.update(wall_clock_s=seconds, stages={"conservation": seconds}),
        )
    proc = compare(old, new)
    assert proc.returncode == 0, proc.stdout
    assert "kernel/manifest.json: equal apart from timings" in proc.stdout.splitlines()

    _edit_manifest(new / "kernel" / "manifest.json", lambda m: m["config"]["sim"].update(seed=7))
    proc = compare(old, new)
    assert proc.returncode == 1
    violations = [l for l in proc.stdout.splitlines() if l.startswith("VIOLATION")]
    assert violations == ["VIOLATION kernel/manifest.json: manifest field config differs"]
