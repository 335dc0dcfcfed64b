"""Text tables: one strict reader and one chunked 17-digit row writer.

A table is one header line, then rows of numbers separated by commas or
whitespace.  ``np.loadtxt`` parses the rows in one pass; only when that or
the caller's row check fails is the file scanned line by line, to name the
first bad line.  Floats get 17 significant digits and read back bit-exactly.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DataError

# rows formatted per write: bounds the text held in memory at once
CHUNK_ROWS = 65536

# column kind: (numpy dtype, Python parser)
_KINDS = {"i": (np.int64, int), "f": (np.float64, float)}


def write_table(path, header: str, row_format: str, *columns) -> None:
    """Write ``header``, then ``row_format % row`` (e.g. ``"%d,%.17g\\n"``) per row of the columns."""
    columns = [np.asarray(c) for c in columns]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for start in range(0, len(columns[0]), CHUNK_ROWS):
            cells = [c[start : start + CHUNK_ROWS].tolist() for c in columns]
            fh.write("".join([row_format % row for row in zip(*cells)]))


def read_rows(fh, path, kinds: str, delimiter, count_error: str, parse_error: str, check=None):
    """Parse the rest of an open file, after a one-line header, into columns.

    ``kinds`` has one letter per column, ``i`` (integer) or ``f`` (float);
    ``delimiter`` is ``","``, or ``None`` for whitespace; empty lines are
    skipped, and for whitespace columns so are lines of spaces.  ``check``
    is an optional (predicate, message): the predicate maps the columns, or
    one row's values, to True where a row is valid.  A failure raises a
    DataError naming the first bad line.
    """
    start = fh.tell()
    dtype = [(f"c{k}", _KINDS[kind][0]) for k, kind in enumerate(kinds)]
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(fh, dtype=dtype, delimiter=delimiter, comments=None, ndmin=1)
    except ValueError as exc:
        failure = exc
    else:
        columns = [table[name] for name in table.dtype.names]
        if check is None or np.all(check[0](*columns)):
            return columns
        failure = None
    fh.seek(start)
    parsers = [_KINDS[kind][1] for kind in kinds]
    for lineno, line in enumerate(fh, start=2):
        text = line.strip()
        # numpy skips an empty line, and a line of spaces only between whitespace columns
        if not (text if delimiter is None else line.rstrip("\r\n")):
            continue
        parts = text.split(delimiter)
        if len(parts) != len(kinds):
            raise DataError(f"{path}:{lineno}: {count_error}")
        if "_" in text:  # int() and float() read "1_000"; numpy does not
            raise DataError(f"{path}:{lineno}: {parse_error}")
        try:
            values = [parse(part) for parse, part in zip(parsers, parts)]
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {parse_error}") from exc
        if check is not None and not check[0](*values):
            raise DataError(f"{path}:{lineno}: {check[1]}")
    # a row numpy refuses that int()/float() still read
    raise DataError(f"{path}: {failure}") from failure
