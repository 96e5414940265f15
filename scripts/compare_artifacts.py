#!/usr/bin/env python3
"""Compare two trees of ultradiff artifacts number by number.

    python3 scripts/compare_artifacts.py OLD NEW

Every ``*.csv`` and ``*.json`` artifact under OLD is compared with the file
at the same relative path under NEW. Numbers must satisfy

    |new - old| <= 1e-13 * max(|old|, scale)

where scale is p^{-n i} for a value on the sphere of norm p^i (the
``value`` column of every ``ztilde.csv`` row and of ``u_profile.csv`` rows
with i >= 1) and 1 for everything else; p and n come from the
``manifest.json`` next to the file. The sphere scale is kept only to
compare against trees written before Ztilde came from the telescoped
sphere series: the older subtracting form left cancellation residues,
such as Ztilde at norm p^{-10}, at the roundoff of p^{-ni}, where a plain
relative test cannot work. Text fields must match exactly.

Each ``manifest.json`` under NEW must list, for every artifact, the sha256
of the file next to it, and must equal the OLD manifest at the same path
apart from its digests (checked against the files instead) and the values
of the timing fields (``wall_clock_s``, and the seconds in verify's
``stages``), which differ between identical runs: so a wrong digest, a
changed config echo or a changed artifact list shows up.

Prints ``byte-identical`` for a file whose bytes match and the largest
scaled deviation for any other, then every violation, and exits 1 if there
is any (a missing or extra file, a shape mismatch, a number out of
tolerance, or a manifest that differs or does not match its files). The
last line reads ``K of N files byte-identical``, counting artifacts only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

REL_TOL = 1e-13
SPHERE_FILES = ("ztilde.csv", "u_profile.csv")


def scaled_deviation(old: float, new: float, scale: float) -> float:
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    dev = abs(new - old) / max(abs(old), scale)
    return math.inf if math.isnan(dev) else dev


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _space(directory: Path) -> tuple[int, int] | None:
    manifest = directory / "manifest.json"
    if not manifest.exists():
        return None
    land = json.loads(manifest.read_text())["config"]["landscape"]
    return land["p"], land["n"]


def _csv_cells(old_path: Path, new_path: Path, problems: list):
    """Yield (where, old, new, scale) for every cell of two CSV files."""
    old_rows = [r.split(",") for r in old_path.read_text().splitlines()]
    new_rows = [r.split(",") for r in new_path.read_text().splitlines()]
    if old_rows[:1] != new_rows[:1] or [len(r) for r in old_rows] != [
        len(r) for r in new_rows
    ]:
        problems.append("header or shape differs")
        return
    header = old_rows[0]
    space = None
    if old_path.name in SPHERE_FILES:
        space = _space(old_path.parent)
        if space is None:
            problems.append("no manifest.json to read p and n from")
            return
    for r, (old_row, new_row) in enumerate(zip(old_rows[1:], new_rows[1:]), start=2):
        for name, old, new in zip(header, old_row, new_row):
            scale = 1.0
            if space is not None and name == "value":
                i = int(old_row[header.index("norm_exp")])
                if old_path.name == "ztilde.csv" or i >= 1:
                    scale = float(space[0]) ** (-space[1] * i)
            yield f"line {r} {name}", old, new, scale


def _json_leaves(old, new, where: str, problems: list):
    """Yield (where, old, new, 1.0) for every leaf of two JSON documents."""
    if isinstance(old, dict) and isinstance(new, dict):
        if sorted(old) != sorted(new):
            problems.append(f"{where or '/'}: keys differ")
            return
        for key in sorted(old):
            yield from _json_leaves(old[key], new[key], f"{where}/{key}", problems)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            problems.append(f"{where}: lengths differ")
            return
        for k, (a, b) in enumerate(zip(old, new)):
            yield from _json_leaves(a, b, f"{where}[{k}]", problems)
    else:
        yield where, old, new, 1.0


def compare_file(old_path: Path, new_path: Path) -> tuple[float, list[str]]:
    """(largest scaled deviation, violations) for one pair of artifacts."""
    problems: list[str] = []
    if old_path.suffix == ".csv":
        cells = _csv_cells(old_path, new_path, problems)
    else:
        old_doc = json.loads(old_path.read_text())
        new_doc = json.loads(new_path.read_text())
        cells = _json_leaves(old_doc, new_doc, "", problems)
    worst = 0.0
    for where, old, new, scale in cells:
        if isinstance(old, str) and isinstance(new, str):
            parsed = (_number(old), _number(new))
            if None not in parsed:
                old, new = parsed
        numeric = all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new)
        )
        if not numeric:
            if old != new:
                problems.append(f"{where}: {old!r} != {new!r}")
            continue
        dev = scaled_deviation(float(old), float(new), scale)
        worst = max(worst, dev)
        if dev > REL_TOL:
            problems.append(f"{where}: {old!r} -> {new!r} (scaled deviation {dev:.3g})")
    return worst, problems


def compare_manifests(old_path: Path, new_path: Path) -> list[str]:
    """Violations of one pair of manifests: NEW digests that are not those
    of the files next to it, and fields that differ other than by a digest
    or a timing."""
    old, new = (json.loads(p.read_text()) for p in (old_path, new_path))
    problems = [
        f"digest of {name} does not match the file"
        for name, digest in sorted(new.get("artifacts", {}).items())
        if not (new_path.parent / name).is_file()
        or hashlib.sha256((new_path.parent / name).read_bytes()).hexdigest() != digest
    ]
    for doc in (old, new):
        if isinstance(doc.get("artifacts"), dict):
            doc["artifacts"] = sorted(doc["artifacts"])
        if "wall_clock_s" in doc:
            doc["wall_clock_s"] = None
        if isinstance(doc.get("stages"), dict):
            doc["stages"] = dict.fromkeys(doc["stages"])
    missing = object()
    problems += [
        f"manifest field {key} differs"
        for key in sorted(old.keys() | new.keys())
        if old.get(key, missing) != new.get(key, missing)
    ]
    return problems


def _files(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.suffix in (".csv", ".json")}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    old_files, new_files = _files(args.old), _files(args.new)
    violations = [f"{rel}: missing under NEW" for rel in sorted(old_files - new_files)]
    violations += [f"{rel}: not under OLD" for rel in sorted(new_files - old_files)]
    common = sorted(old_files & new_files)
    for rel in (rel for rel in common if rel.name == "manifest.json"):
        problems = compare_manifests(args.old / rel, args.new / rel)
        print(f"{rel}: {'differs' if problems else 'equal apart from timings'}")
        violations += [f"{rel}: {msg}" for msg in problems]
    common = [rel for rel in common if rel.name != "manifest.json"]
    identical = 0
    for rel in common:
        if (args.old / rel).read_bytes() == (args.new / rel).read_bytes():
            identical += 1
            print(f"{rel}: byte-identical")
            continue
        worst, problems = compare_file(args.old / rel, args.new / rel)
        print(f"{rel}: largest scaled deviation {worst:.3g}")
        violations += [f"{rel}: {msg}" for msg in problems]
    for v in violations:
        print(f"VIOLATION {v}")
    print(f"{len(common)} files compared, {len(violations)} violations")
    print(f"{identical} of {len(common)} files byte-identical")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
