"""The one CSV writer every output file goes through, and the one reader
every input file goes through.

Files are written column-wise: a table is its header and a list of
columns of field strings, joined into lines in one pass.
"""

from __future__ import annotations

import csv
from itertools import chain, repeat

import numpy as np

from .errors import ValidationError


def fmt(x: float) -> str:
    """A number to 12 significant digits, as every numeric CSV field."""
    return f"{x:.12g}"


def fmt_all(values) -> list:
    """:func:`fmt` of every entry of ``values``, nested as ``values.tolist()``.

    A 2-D table gives one list per row, so ``fmt_all(table.T)`` gives its
    columns.  Each distinct number is formatted once.  Numbers are told
    apart by their bit patterns, so ``-0.0`` and ``0.0``, which print
    differently, stay apart.
    """
    values = np.asarray(values, dtype=float)
    bits, inverse = np.unique(values.ravel().view(np.int64), return_inverse=True)
    text = np.array([fmt(x) for x in bits.view(np.float64).tolist()], dtype=object)
    return text[inverse.reshape(values.shape)].tolist()


def index_runs(count: int, length: int):
    """A column of the indices ``0..count-1`` as strings, each ``length`` times."""
    return chain.from_iterable(map(repeat, map(str, range(count)), repeat(length)))


def write_csv(path, header, columns) -> None:
    """A header line, then one line per row, with ``\\r\\n`` line ends, in one join.

    ``header`` is a sequence of names, or empty for no header line.  Each
    column is an iterable of field strings; a constant field is given as
    ``itertools.repeat(s)``.  The table has as many rows as its shortest
    column, so at least one column must be finite.  Fields are written as
    given: the bytes ``csv.writer`` writes for fields that need no quoting
    (numbers, bare words, and empty fields in rows of two or more, as every
    field here is).
    """
    # the trailing "" ends the last line; a table with no lines joins to ""
    lines = chain([",".join(header)] if header else [], map(",".join, zip(*columns)), [""])
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines))


def read_csv(path, dtype=float, header: bool = False) -> np.ndarray:
    """The rows of a CSV file as a 2-D array, each field parsed by ``dtype``.

    Blank lines are skipped.  With ``header`` the first row is a header: it
    is not parsed, but it sets the width like any first row.  A missing
    file, a file with no data rows, a row whose width differs from the
    first, or a field ``dtype`` cannot parse raises :class:`ValidationError`
    naming ``path`` and, for a row, its line.
    """
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
