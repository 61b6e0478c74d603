"""The one CSV writer every output file goes through, and the one reader
every input file goes through."""

from __future__ import annotations

import csv

import numpy as np

from .errors import ValidationError


def fmt(x: float) -> str:
    """A number to 12 significant digits, as every numeric CSV field."""
    return f"{x:.12g}"


def fmt_all(values) -> list[str]:
    """:func:`fmt` of every entry of ``values``, in C order.

    Each distinct number is formatted once.  Numbers are told apart by
    their bit patterns, so ``-0.0`` and ``0.0``, which print differently,
    stay apart.
    """
    flat = np.ascontiguousarray(values, dtype=float).ravel()
    bits, inverse = np.unique(flat.view(np.int64), return_inverse=True)
    text = [fmt(x) for x in bits.view(np.float64).tolist()]
    return [text[i] for i in inverse.tolist()]


def write_csv(path, rows) -> None:
    """Comma-separated rows of equal width with ``\\r\\n`` line ends, in one join.

    Each field is written with ``%s``, which is ``str``: the bytes
    ``csv.writer`` writes for fields that need no quoting (numbers and bare
    words, as every field here is).  A header is the first row; the width
    of the first row sets the line template, and ``rows`` is read once.
    """
    rows = iter(rows)
    first = next(rows, ())
    line = ",".join(["%s"] * len(first)) + "\r\n"
    lines = [line % tuple(first)] if first else []
    lines += [line % tuple(row) for row in rows]
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))


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
