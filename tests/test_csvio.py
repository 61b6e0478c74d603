import csv
import io
import math
import tracemalloc
from itertools import repeat
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _support import index_runs
from distillab import csvio
from distillab.csvio import fmt, fmt_all, read_csv, write_csv
from distillab.errors import ValidationError

# values fmt prints in ways a value-level dedup could confuse: signed zeros,
# non-finite values and subnormals
SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-310]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))


def reference(values):
    return np.frompyfunc(fmt, 1, 1)(np.asarray(values, dtype=float)).tolist()


@given(pool=st.lists(VALUES, min_size=1, max_size=6),
       picks=st.lists(st.integers(0, 5), max_size=60),
       width=st.integers(1, 5))
def test_matches_fmt_per_value_with_heavy_repeats(pool, picks, width):
    flat = np.array([pool[i % len(pool)] for i in picks], dtype=float)
    table = flat[: flat.size // width * width].reshape(-1, width)
    assert fmt_all(flat) == reference(flat)
    assert fmt_all(table) == reference(table)
    assert fmt_all(table.T) == reference(table.T)


# any bit pattern of a double: every exponent, subnormals and NaN payloads
BIT_PATTERNS = st.integers(-2**63, 2**63 - 1).map(lambda b: float(np.int64(b).view(np.float64)))


@given(st.lists(st.one_of(VALUES, BIT_PATTERNS), max_size=300))
def test_one_template_matches_fmt_on_many_distinct_values(values):
    # the distinct values of a block are formatted by one "%.12g" template
    assert fmt_all(np.array(values, dtype=float)) == [fmt(x) for x in values]


def test_signed_zeros_stay_apart():
    assert fmt_all(np.array([0.0, -0.0, 0.0, -0.0])) == ["0", "-0", "0", "-0"]


def test_empty():
    assert fmt_all(np.zeros(0)) == []
    assert fmt_all(np.zeros((3, 0))) == [[], [], []]


def test_index_runs():
    # the index column of the tests' per-sample reference writer
    assert list(index_runs(3, 2)) == ["0", "0", "1", "1", "2", "2"]
    assert list(index_runs(0, 4)) == list(index_runs(4, 0)) == []


# a field as the program writes it: a number through fmt, or a bare word
FIELDS = st.one_of(VALUES.map(fmt), st.from_regex(r"[A-Za-z_][A-Za-z0-9_.]*", fullmatch=True))


def standard_bytes(header, columns) -> bytes:
    """What csv.writer writes for ``columns``, float arrays written by fmt."""
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    if header:
        writer.writerow(header)
    writer.writerows(zip(*(map(fmt, c.tolist()) if isinstance(c, np.ndarray) else c
                           for c in columns)))
    return expected.getvalue().encode()


def block_heights(rows):
    """Table heights around the block boundaries of ``rows`` rows a block."""
    return sorted({0, 1, rows - 1, rows, rows + 1, 2 * rows + 1})


@given(header=st.lists(FIELDS, max_size=4), block_fields=st.integers(1, 16),
       kinds=st.lists(st.sampled_from(["float", "strings", "repeat"]), min_size=1, max_size=4),
       data=st.data())
def test_bytes_match_the_standard_library_writer(tmp_path_factory, header, block_fields, kinds,
                                                 data):
    # a small block puts every height of interest within a few dozen rows
    width = len(kinds)
    heights = block_heights(max(1, block_fields // width))
    # csv.writer quotes an empty field only when it is the whole row
    fields = FIELDS if width == 1 else st.one_of(FIELDS, st.just(""))
    # the first column is finite, so the table is; each finite column has a
    # height of its own and the table ends at the shortest
    kinds[0] = kinds[0].replace("repeat", "strings")
    columns = []
    for kind in kinds:
        if kind == "repeat":
            columns.append(data.draw(fields))
            continue
        height = data.draw(st.sampled_from(heights))
        if kind == "float":
            columns.append(np.array(data.draw(st.lists(VALUES, min_size=height,
                                                       max_size=height)), dtype=float))
        else:
            columns.append(data.draw(st.lists(fields, min_size=height, max_size=height)))

    def live(columns):
        return [repeat(c) if isinstance(c, str) else c for c in columns]

    path = tmp_path_factory.mktemp("csv") / "table.csv"
    with mock.patch.object(csvio, "BLOCK_FIELDS", block_fields):
        write_csv(path, header, live(columns))
    assert path.read_bytes() == standard_bytes(header, live(columns))


@pytest.mark.parametrize("width", [1, 4])
def test_bytes_match_across_the_real_block_boundaries(tmp_path, width):
    rows = csvio.BLOCK_FIELDS // width
    pool = np.array([*SPECIAL, 0.1, -2.5e-7, 1 / 3, 6.02214076e23], dtype=float)
    for height in block_heights(rows):
        values = np.resize(pool, height + 3)
        # a float column of the table's height, one three rows longer, a
        # string column of the table's height and a constant column
        columns = [values[:height], values * 3.0, [str(i) for i in range(height)],
                   repeat("w")][:width]
        path = tmp_path / f"{height}.csv"
        write_csv(path, ("a", "b", "c", "d")[:width], columns)
        assert path.read_bytes() == standard_bytes(("a", "b", "c", "d")[:width], columns)


def test_writer_memory_stays_one_block(tmp_path):
    columns = list(np.random.default_rng(5).standard_normal((6, 200_000)))
    path = tmp_path / "table.csv"
    tracemalloc.start()
    try:
        write_csv(path, (), columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the file is about 18 MB; one block of text is well under a megabyte
    assert path.stat().st_size > 15e6
    assert peak < 4e6


def reference_read_csv(path, dtype=float, header=False):
    """The reader before it streamed: every record held as strings, then as
    Python numbers, then copied into the array."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            records = [(reader.line_num, rec) for rec in reader if rec]
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read the file ({exc.strerror})") from exc
    rows = []
    for line, rec in records[header:]:
        if len(rec) != len(records[0][1]):
            raise ValidationError(
                f"{path}:{line}: expected {len(records[0][1])} fields, got {len(rec)}")
        try:
            rows.append([dtype(x) for x in rec])
        except ValueError as exc:
            raise ValidationError(f"{path}:{line}: malformed field ({exc})") from exc
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    return np.array(rows, dtype=dtype)


def outcome(reader, *args):
    try:
        return reader(*args)
    except ValidationError as exc:
        return str(exc)


def assert_same_outcome(path, dtype, header):
    got, want = outcome(read_csv, path, dtype, header), outcome(reference_read_csv, path,
                                                                dtype, header)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)


READ_CASES = {
    "floats": "0.5,-1e-300,nan\r\n-0,inf,3\r\n",
    "ints": "1,2\n3,-4\n",
    "header": "a,b\n1,2\n3,4\n",
    "blank-lines": "\n1,2\n\n\n3,4\n\n",
    "width-mismatch": "1,2\n3,4\n\n5\n",
    "malformed": "1,2\n3,x\n",
    "fraction-as-int": "1,2\n3,4.5\n",
    "header-only": "a,b\n\n",
    "empty": "",
    "blank-only": "\n\n",
}


@pytest.mark.parametrize("text", READ_CASES.values(), ids=READ_CASES.keys())
@pytest.mark.parametrize("dtype", [float, int])
@pytest.mark.parametrize("header", [False, True])
def test_reader_matches_the_reference(tmp_path, text, dtype, header):
    path = tmp_path / "table.csv"
    path.write_text(text)
    assert_same_outcome(path, dtype, header)


def test_reader_messages(tmp_path):
    path = tmp_path / "table.csv"
    for text, header, message in [
        ("1,2\n3,4\n\n5\n", False, ":4: expected 2 fields, got 1"),
        ("1,2\n3,x\n", False, ":2: malformed field (could not convert string to float: 'x')"),
        ("a,b\n\n", True, ": no data rows"),
    ]:
        path.write_text(text)
        with pytest.raises(ValidationError) as exc:
            read_csv(path, float, header)
        assert str(exc.value) == f"{path}{message}"
    with pytest.raises(ValidationError, match="cannot read the file"):
        read_csv(tmp_path / "missing.csv")


@given(table=st.lists(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=4),
                      min_size=0, max_size=12),
       blanks=st.lists(st.integers(0, 12), max_size=4), as_float=st.booleans(),
       header=st.booleans())
def test_reader_matches_the_reference_on_drawn_tables(tmp_path_factory, table, blanks,
                                                      as_float, header):
    # ragged tables draw width mismatches; the blank lines go anywhere
    lines = [",".join(map(str, row)) for row in table]
    for at in blanks:
        lines.insert(min(at, len(lines)), "")
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    path.write_text("\n".join(lines) + "\n")
    assert_same_outcome(path, float if as_float else int, header)


@pytest.mark.parametrize("dtype", [float, int])
def test_reader_memory_stays_near_the_array(tmp_path, dtype):
    values = np.random.default_rng(6).integers(-10**6, 10**6, (100_000, 4)).astype(dtype)
    path = tmp_path / "table.csv"
    write_csv(path, ("a", "b", "c", "d"), [list(map(str, c)) for c in values.T.tolist()])
    tracemalloc.start()
    try:
        got = read_csv(path, dtype, header=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(got, values)
    assert peak < 3 * got.nbytes
