"""The CSV writer: every cell has the bytes of '%.17g' % x, whole tables
match a per-cell oracle at every block boundary and on each side of
SMALL_CELLS (at or below it a block is written by % itself), and the
certified digit path carries nearly every cell of a real artifact. Files
are written in place over what the path held, cut to length, and hashed
as written."""

import hashlib
import math
import os
from decimal import ROUND_FLOOR, Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultradiff import _csv
from ultradiff._csv import (
    _FALLBACK,
    BLOCK_ROWS,
    SMALL_CELLS,
    _keys,
    format_cells,
    write_bytes,
    write_csv,
)
from ultradiff.fpt import first_passage_mixture, g_grid


def formatted(values) -> list[str]:
    """One column of numbers through the vectorised path, whatever its size
    (SMALL_CELLS patched to 0), cell by cell; format_cells, which writes a
    column of at most SMALL_CELLS numbers with % itself, gives the same."""
    with mock.patch.object(_csv, "SMALL_CELLS", 0):
        cells = [cell.decode() for cell in format_cells(values)]
    assert [cell.decode() for cell in format_cells(values)] == cells
    return cells


def oracle(values) -> list[str]:
    return ["%.17g" % v for v in values]


def powers_of_ten_and_neighbours():
    out = []
    for k in range(-300, 301):
        v = float(f"1e{k}")
        out += [v, np.nextafter(v, 0.0), np.nextafter(v, math.inf)]
    return np.array(out)


def exact_ties():
    """Doubles whose 18-digit decimal expansion ends in 5: n + 1/8 near
    1e14, and 1e15 - j/8 for odd j, whose scaled digits are half-integers
    just below 1e17."""
    near_1e14 = [1e14 + n + 0.125 for n in range(200)]
    near_1e17 = [1e15 - j / 8 for j in range(1, 400, 2)]
    return np.array(near_1e14 + near_1e17)


SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
           2.2250738585072014e-308, 1.7976931348623157e308]


@pytest.mark.parametrize(
    "values",
    [
        pytest.param(
            np.random.default_rng(20240810)
            .integers(0, 2**64, size=10**5, dtype=np.uint64)
            .view(np.float64),
            id="random-bit-patterns",
        ),
        pytest.param(powers_of_ten_and_neighbours(), id="powers-of-ten-1-ulp"),
        pytest.param(np.arange(40001) * 0.01, id="k-hundredths"),
        pytest.param(np.arange(0.0, 400.005, 0.01), id="fpt-long-t-grid"),
        pytest.param(np.ldexp(1.0, np.arange(-1000, 1000)), id="powers-of-two"),
        pytest.param(np.array(SPECIAL), id="special"),
        pytest.param(exact_ties(), id="exact-ties"),
        pytest.param(-exact_ties(), id="negative-exact-ties"),
        pytest.param(
            np.array([0, 1, -1, 10**16, 10**17 - 1, 2**53, -(2**53), 2**53 + 1, 2**62,
                      -(2**63), 2**63 - 1]),
            id="int64",
        ),
        pytest.param(np.arange(3 * BLOCK_ROWS) - BLOCK_ROWS, id="ints-over-block-rows"),
    ],
)
def test_cells_are_the_bytes_of_percent_17g(values):
    assert formatted(values) == oracle(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_cells_are_the_bytes_of_percent_17g_for_any_floats(values):
    assert formatted(values) == oracle(values)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=40))
def test_cells_are_the_bytes_of_percent_17g_for_any_int64(values):
    values = np.array(values, dtype=np.int64)
    assert formatted(values) == oracle(values)


def decimal_cells():
    """m 10^e for m of k = 1 to 17 digits, the last one not 0, so that the
    17-digit D of each cell ends in 17 - k zeros (0 to 16, across every
    4-digit chunk boundary), for e in -30..30 (fixed and exponential
    notation, integers among them) and both signs."""
    ms = []
    for k in range(1, 18):
        ms += [10 ** (k - 1) + 1 if k > 1 else 1, 10**k - 1, int("3141592653589793"[: k - 1] + "7")]
    cells = np.array([float(f"{m}e{e}") for m in ms for e in range(-30, 31)])
    return np.concatenate([cells, -cells])


def test_decimal_cells_with_trailing_zeros_match_percent_17g():
    values = decimal_cells()
    assert formatted(values) == oracle(values)
    # every cell takes the certified path but the exact ties of the 17-digit
    # rounding (999999999999999.875 among them), which % writes
    with localcontext(prec=1000):
        scaled = [abs(Decimal(v)).scaleb(16 - Decimal(v).adjusted()) for v in values.tolist()]
        ties = [x - x.to_integral_value(ROUND_FLOOR) == Decimal("0.5") for x in scaled]
    assert ((_keys(values)[0] == _FALLBACK) == ties).all()
    assert 0 < sum(ties) < 10


def test_format_cells_of_no_numbers_is_empty():
    assert format_cells([]).shape == (0,)


def test_fallback_fires_on_ties_and_non_finite_cells():
    key, _ = _keys(exact_ties())
    assert (key == _FALLBACK).all()
    key, _ = _keys(np.array([math.nan, math.inf, -math.inf, 5e-324, 1e-300, 1e300]))
    assert (key == _FALLBACK).all()
    # +-0 has exact digits: the int 0 with the sign of the double
    key, d = _keys(np.array([0.0, -0.0]))
    assert (key >= 0).all() and (d == 0).all()
    assert formatted([0.0, -0.0]) == ["0", "-0"]


def test_nearly_every_g_f_cell_takes_the_certified_path(desk_state):
    # the fpt_long artifact: T = 400 at the desk h = 0.01
    h = 0.01
    ts = np.arange(0.0, 400.0 + h / 2.0, h)
    f = first_passage_mixture(desk_state, 400.0).density(ts)
    cells = np.concatenate([ts, g_grid(desk_state, ts), f])
    key, _ = _keys(cells)
    assert np.mean(key >= 0) >= 0.99
    assert formatted(cells) == oracle(cells)


def per_cell(header, columns, blank_nan=()):
    """The table as a loop over its cells would write it."""
    lines = [",".join(header)]
    for row in zip(*columns):
        cells = []
        for name, c in zip(header, row):
            if isinstance(c, (str, bytes)):
                cells.append(c if isinstance(c, str) else c.decode())
            elif name in blank_nan and math.isnan(c):
                cells.append("")
            else:
                cells.append("%.17g" % c)
        lines.append(",".join(cells))
    return ("\n".join(lines) + "\n").encode()


# a 5-column table of SMALL_CELLS // 5 rows is written by %, one more row
# by the vectorised path; so is a 4-column one like fpt_samples.csv
@pytest.mark.parametrize(
    "rows, fpt_samples",
    [pytest.param(rows, False, id=str(rows))
     for rows in (0, 1, SMALL_CELLS // 5, SMALL_CELLS // 5 + 1, BLOCK_ROWS - 1, BLOCK_ROWS,
                  BLOCK_ROWS + 1)]
    + [pytest.param(rows, True, id=f"fpt-samples-{rows}")
       for rows in (SMALL_CELLS // 4, SMALL_CELLS // 4 + 1, BLOCK_ROWS + 3)],
)
def test_tables_match_the_per_cell_writer_at_block_boundaries(tmp_path, rows, fpt_samples):
    rng = np.random.default_rng(rows)
    tau = rng.exponential(3.0, rows)
    tau[rng.random(rows) < 0.5] = math.nan
    header = ["i", "tau", "x", "label", "flag"]
    columns = [
        np.arange(rows) - rows // 2,
        tau,
        rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows),
        [("a", "", "x y", "nan")[i % 4] for i in range(rows)],
        np.isnan(tau),
    ]
    if fpt_samples:  # path index, tau with blank NaN, two 1-byte text flags;
        # tau spread over exponents where 10^(16 - X) is not a double
        flags = np.array([b"0", b"1"])
        header = ["path_index", "tau", "censored", "exited"]
        columns = [np.arange(rows), tau * 10.0 ** rng.integers(-30, 30, rows),
                   flags[np.isnan(tau).view(np.uint8)], flags[rng.integers(0, 2, rows)]]
    write_csv(tmp_path / "t.csv", header, columns, blank_nan=("tau",))
    assert (tmp_path / "t.csv").read_bytes() == per_cell(header, columns, blank_nan=("tau",))


@pytest.mark.parametrize("rows", [1, BLOCK_ROWS - 1, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 5])
def test_text_columns_are_written_verbatim(tmp_path, rows):
    # 'S' columns, as cmd_kernel's key cells and cmd_simulate's flags are,
    # among int, float and blank_nan columns
    rng = np.random.default_rng(rows)
    tau = rng.exponential(3.0, rows)
    tau[rng.random(rows) < 0.5] = math.nan
    header = ["i", "key", "tau", "x", "label", "flag"]
    columns = [
        np.arange(rows) - rows // 2,
        format_cells(rng.standard_normal(13) * 10.0 ** rng.integers(-30, 30, 13))[
            rng.integers(0, 13, rows)
        ],
        tau,
        rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows),
        np.array([b"a", b"", b"x y", b"nan"])[np.arange(rows) % 4],
        np.array([b"0", b"1"])[np.isnan(tau).view(np.uint8)],
    ]
    write_csv(tmp_path / "t.csv", header, columns, blank_nan=("tau",))
    assert (tmp_path / "t.csv").read_bytes() == per_cell(header, columns, blank_nan=("tau",))


def test_blank_nan_applies_to_the_named_columns_only(tmp_path):
    columns = [np.array([math.nan, 1.5]), np.array([math.nan, -2.0])]
    write_csv(tmp_path / "t.csv", ["a", "b"], columns, blank_nan=("b",))
    assert (tmp_path / "t.csv").read_text() == "a,b\nnan,\n1.5,-2\n"


@pytest.mark.parametrize("blank_share", [1.0, 0.84, 0.0])
def test_blank_cells_skip_the_layout_lookup(tmp_path, monkeypatch, blank_share):
    # a first-passage column as in fpt_samples.csv, where most paths never
    # return; its blank cells take no part in the layout lookup
    rows = BLOCK_ROWS + 7
    rng = np.random.default_rng(int(100 * blank_share))
    tau = rng.exponential(3.0, rows)
    tau[rng.random(rows) < blank_share] = math.nan
    x = rng.standard_normal(rows)
    x[::5] = math.nan  # NaN outside a blank_nan column is still written
    header, columns = ["path", "tau", "x"], [np.arange(rows), tau, x]
    reached = []
    keys = _csv._keys
    monkeypatch.setattr(_csv, "_keys", lambda v: reached.append(len(v)) or keys(v))
    write_csv(tmp_path / "t.csv", header, columns, blank_nan=("tau",))
    assert (tmp_path / "t.csv").read_bytes() == per_cell(header, columns, blank_nan=("tau",))
    # the first block is vectorised: one int and one float lookup, without
    # its blank cells; the 7-row tail is written by % and never reaches _keys
    assert len(reached) == 2
    assert sum(reached) == 2 * BLOCK_ROWS + np.count_nonzero(~np.isnan(tau[:BLOCK_ROWS]))


# ---------------------------------------------------------------------------
# write_bytes: in place, cut to length, hashed as written
# ---------------------------------------------------------------------------


def test_write_bytes_leaves_exactly_what_it_wrote(tmp_path):
    path = tmp_path / "a.bin"
    versions = [
        [b"a first version", b"\n" * 5000],  # a new file
        [b"shorter"],  # no stale tail of the first
        [],  # an empty file
        [b"x" * 10, b"", b"y" * 70000],  # longer than any before
    ]
    for chunks in versions:
        digest = write_bytes(path, iter(chunks))
        assert path.read_bytes() == b"".join(chunks)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("rows", [0, 1, 2 * BLOCK_ROWS + 5])
def test_write_csv_over_a_longer_file_returns_its_digest(tmp_path, rows):
    # rows = 0 is a header-only table: no block is written at all
    path = tmp_path / "t.csv"
    path.write_bytes(b"9" * (40 * rows + 100))
    columns = [np.arange(rows), np.arange(rows) / 7.0]
    digest = write_csv(path, ["i", "x"], columns)
    assert path.read_bytes() == per_cell(["i", "x"], columns)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_write_bytes_gives_the_mode_of_open_wb(tmp_path, umask):
    old = os.umask(umask)
    try:
        write_bytes(tmp_path / "new", [b"x"])
        with open(tmp_path / "reference", "wb"):
            pass
    finally:
        os.umask(old)
    assert (tmp_path / "new").stat().st_mode == (tmp_path / "reference").stat().st_mode
    # and an existing file keeps its own mode, as under open(path, "wb")
    (tmp_path / "new").chmod(0o640)
    write_bytes(tmp_path / "new", [b"y"])
    assert (tmp_path / "new").stat().st_mode & 0o777 == 0o640
