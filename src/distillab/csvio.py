"""The one CSV writer every output file goes through."""

from __future__ import annotations


def fmt(x: float) -> str:
    """A number to 12 significant digits, as every numeric CSV field."""
    return f"{x:.12g}"


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
