import csv
import io
import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from distillab.csvio import fmt, fmt_all, index_runs, write_csv

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


def test_signed_zeros_stay_apart():
    assert fmt_all(np.array([0.0, -0.0, 0.0, -0.0])) == ["0", "-0", "0", "-0"]


def test_empty():
    assert fmt_all(np.zeros(0)) == []
    assert fmt_all(np.zeros((3, 0))) == [[], [], []]


def test_index_runs():
    assert list(index_runs(3, 2)) == ["0", "0", "1", "1", "2", "2"]
    assert list(index_runs(0, 4)) == list(index_runs(4, 0)) == []


# a field as the program writes it: a number through fmt, or a bare word
FIELDS = st.one_of(VALUES.map(fmt), st.from_regex(r"[A-Za-z_][A-Za-z0-9_.]*", fullmatch=True))


@given(header=st.lists(FIELDS, max_size=4), width=st.integers(1, 4),
       height=st.integers(0, 6), data=st.data())
def test_bytes_match_the_standard_library_writer(tmp_path_factory, header, width, height,
                                                 data):
    # csv.writer quotes an empty field only when it is the whole row
    fields = FIELDS if width == 1 else st.one_of(FIELDS, st.just(""))
    columns = [data.draw(st.lists(fields, min_size=height, max_size=height))
               for _ in range(width)]
    rows = list(zip(*columns))
    expected = io.StringIO(newline="")
    writer = csv.writer(expected)
    if header:
        writer.writerow(header)
    writer.writerows(rows)
    path = tmp_path_factory.mktemp("csv") / "table.csv"
    write_csv(path, header, columns)
    assert path.read_bytes() == expected.getvalue().encode()
