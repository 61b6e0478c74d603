"""The two CSV writers every output file goes through, and the one reader
every input file goes through.

All three stream, so their memory does not grow with the file.  A file of
per-sample (or per-index) lines, each sample's lines its cell's but for the
index, is written by :func:`write_cell_rows` from the cells' text,
formatted once per cell: each sample's lines are its cell's template
filled with its index, a block of about :data:`BLOCK_FIELDS` fields per
join.  Any other table is written column-wise by :func:`write_csv`, a
block at a time: the block's float columns are formatted together by one
:func:`fmt_all` call, its lines joined and written.  A file is read record
by record into one flat typed buffer, which is reshaped once at the end.
"""

from __future__ import annotations

import csv
from itertools import count, islice, repeat

import numpy as np

from .errors import ValidationError

# fields per written block: the block's float fields share one dedupe in
# fmt_all, and its text is all the writer holds beside its inputs
BLOCK_FIELDS = 8192


def fmt(x: float) -> str:
    """A number to 12 significant digits, as every numeric CSV field."""
    return f"{x:.12g}"


def fmt_all(values) -> list:
    """:func:`fmt` of every entry of ``values``, nested as ``values.tolist()``.

    A 2-D table gives one list per row, so the writer's block of float
    columns, stacked as rows, gives one list of fields per column.  Each
    distinct number is formatted once per call, all of them by one ``%``
    on a repeated ``%.12g`` template, whose text is :func:`fmt`'s for every
    double, ``nan``, ``inf`` and ``-0`` included.  Numbers are told apart by
    their bit patterns, so ``-0.0`` and ``0.0``, which print differently,
    stay apart.
    """
    values = np.asarray(values, dtype=float)
    bits, inverse = np.unique(values.ravel().view(np.int64), return_inverse=True)
    distinct = tuple(bits.view(np.float64).tolist())
    text = np.array(("%.12g\n" * len(distinct) % distinct).split("\n")[:-1], dtype=object)
    return text[inverse.reshape(values.shape)].tolist()


def cannot_write(path, exc: OSError) -> ValidationError:
    """The error for an output ``path`` the system refused with ``exc``."""
    return ValidationError(f"{path}: cannot write the file ({exc.strerror}); choose another --out")


def write_csv(path, header, columns) -> None:
    """A header line, then one line per row, with ``\\r\\n`` line ends: a
    table whose rows are not samples (those go through :func:`write_cell_rows`).

    ``header`` is a sequence of names, or empty for no header line.  Each
    column is either a 1-D float array, whose entries are written by
    :func:`fmt`, or an iterable of field strings; a constant field is given
    as ``itertools.repeat(s)``.  The table has as many rows as its shortest
    column, so at least one column must be finite.  Rows go out in blocks
    of :data:`BLOCK_FIELDS` fields: each block formats its float columns in
    one :func:`fmt_all` call and writes its lines in one join, so the
    writer holds one block of text at a time.  Fields are written as given:
    the bytes ``csv.writer`` writes for fields that need no quoting
    (numbers, bare words, and empty fields in rows of two or more, as every
    field here is).
    """
    columns = [c if isinstance(c, np.ndarray) else iter(c) for c in columns]
    floats = [isinstance(c, np.ndarray) for c in columns]
    rows = max(1, BLOCK_FIELDS // max(1, len(columns)))
    try:
        fh = open(path, "w", newline="")
    except OSError as exc:
        raise cannot_write(path, exc) from exc
    with fh:
        if header:
            fh.write(",".join(header) + "\r\n")
        for start in count(0, rows):
            block = [c[start:start + rows] if f else list(islice(c, rows))
                     for c, f in zip(columns, floats)]
            height = min(map(len, block), default=0)
            text = iter(fmt_all([b[:height] for b, f in zip(block, floats) if f]))
            block = [next(text) if f else b for b, f in zip(block, floats)]
            if height:
                fh.write("\r\n".join(map(",".join, zip(*block))) + "\r\n")
            # a short block is the last one: some column ended inside it
            if height < rows:
                break


def write_cell_rows(path, header, passes, sample_cell) -> None:
    """A header line, then the lines of each pass, with ``\\r\\n`` line
    ends; in a pass each sample ``i``, in order, writes the lines of its
    cell ``sample_cell[i]``.

    ``passes`` is an iterable of ``(lead, lines, fields)`` triples.  Every
    line of the pass reads the fields ``lead``, the sample index, then the
    next ``len(header) - len(lead) - 1`` of ``fields``; a sample of cell
    ``j`` writes cell ``j``'s ``lines`` lines, whose fields follow those of
    the cells before it in the flat ``fields``.  A pass makes the text of
    all its cells at once, by one ``%`` on a repeated cell format, each
    cell's text a template with a slot (``\\0``) for the index, and the
    samples go out in blocks of about :data:`BLOCK_FIELDS` fields: each
    sample's template with its index in the slot, one join and one write
    per block.  So the writer formats no number and holds one pass's
    templates and one block of text.  Fields are written as given, as by
    :func:`write_csv`, and hold no ``\\0`` or ``\\1``.
    """
    sample_cell = np.asarray(sample_cell)
    try:
        fh = open(path, "w", newline="")
    except OSError as exc:
        raise cannot_write(path, exc) from exc
    with fh:
        fh.write(",".join(header) + "\r\n")
        for lead, lines, fields in passes:
            fields = tuple(fields)
            width = len(header) - len(lead) - 1
            head = "".join(field + "," for field in lead).replace("%", "%%")
            # \1 ends each cell's text
            cell = (head + "\0" + ",%s" * width + "\r\n") * lines + "\1"
            templates = (cell * (len(fields) // (lines * width)) % fields).split("\1")[:-1]
            samples = max(1, BLOCK_FIELDS // (len(header) * lines))
            for start in range(0, sample_cell.size, samples):
                cells = sample_cell[start:start + samples].tolist()
                fh.write("".join(map(str.replace, map(templates.__getitem__, cells), repeat("\0"),
                                     map(str, range(start, start + len(cells))))))


def read_csv(path, dtype=float, header: bool = False) -> np.ndarray:
    """The rows of a CSV file as a 2-D array, each field parsed by ``dtype``
    (``float`` or ``int``).

    Each record is parsed as it is read and appended to one flat typed
    buffer, reshaped once at the end, so no record is held as strings past
    its own line.  Blank lines are skipped.  With ``header`` the first row
    is a header: it is not parsed, but it sets the width like any first
    row.  A missing file, a file with no data rows, a row whose width
    differs from the first, or a field ``dtype`` cannot parse raises
    :class:`ValidationError` naming ``path`` and, for a row, its line.
    """
    # imported here: the module costs every CLI start 0.1 MB of RSS, and
    # only commands that read a file need it
    from array import array

    values = array({float: "d", int: "q"}[dtype])
    width = None
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for rec in reader:
                if not rec:
                    continue
                if width is None:
                    width = len(rec)
                    if header:
                        continue
                elif len(rec) != width:
                    raise ValidationError(
                        f"{path}:{reader.line_num}: expected {width} fields, got {len(rec)}")
                try:
                    values.extend(map(dtype, rec))
                except ValueError as exc:
                    raise ValidationError(
                        f"{path}:{reader.line_num}: malformed field ({exc})") from exc
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read the file ({exc.strerror})") from exc
    if not values:
        raise ValidationError(f"{path}: no data rows")
    return np.frombuffer(values, dtype=values.typecode).reshape(-1, width)
