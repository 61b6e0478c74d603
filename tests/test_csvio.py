import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from distillab.csvio import fmt, fmt_all

# values fmt prints in ways a value-level dedup could confuse: signed zeros,
# non-finite values and subnormals
SPECIAL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-310]
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))


def reference(values):
    return [fmt(x) for x in np.asarray(values).ravel().tolist()]


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
    assert fmt_all(np.zeros((3, 0))) == []
