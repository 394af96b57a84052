"""Deterministic report assembly and serialization; the one input CSV reader
and the one rule that names the file and line of an input fault.

Reports are plain dicts serialized as JSON with stable key order; float
values are rounded to six significant digits by default so repeated runs
diff cleanly, with a flag for full precision.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import stat
import sys
from types import SimpleNamespace

from .errors import DataFormatError, InputError

SCHEMA_VERSION = 1
DEFAULT_SIG_DIGITS = 6


def inputs_digest(paths) -> list[dict]:
    """Each input's name and size, or None for a pipe, FIFO or other non-regular file."""
    out = []
    for path in paths:
        st = os.stat(path)
        size = st.st_size if stat.S_ISREG(st.st_mode) else None
        out.append({"name": str(path), "bytes": size})
    return out


def make_report(command, inputs, results, warnings=(), notes=()) -> dict:
    from . import __version__

    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "codecbench", "version": __version__},
        "command": list(command),
        "inputs": inputs_digest(inputs),
        "results": results,
        "warnings": list(warnings),
        "notes": list(notes),
    }


def mean(values) -> float:
    """Mean of finite values: sum / count or, where that sum overflows, the
    sum of each value / count, kept within the values' range."""
    total = sum(values)
    if math.isinf(total):
        total = sum(v / len(values) for v in values)
        return min(max(total, min(values)), max(values))
    return total / len(values)


def normalize_floats(obj, full_precision: bool = False):
    """Recursively round finite floats to DEFAULT_SIG_DIGITS significant
    digits (unless full_precision) and turn non-finite floats into strings.

    JSON has no Infinity/NaN literals; degenerate statistics (e.g. a
    perfectly separated ANOVA) serialize as "inf"/"nan" instead of crashing,
    the same text the csv module writes for them.
    """
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return str(obj)
        return obj if full_precision else float(f"{obj:.{DEFAULT_SIG_DIGITS}g}")
    if isinstance(obj, dict):
        return {k: normalize_floats(v, full_precision) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [normalize_floats(v, full_precision) for v in obj]
    return obj


def render_json(report: dict, full_precision: bool = False) -> str:
    doc = normalize_floats(report, full_precision)
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def render_csv(header, rows, fp, full_precision: bool = False):
    """Write a CSV table to the text stream fp as its rows are formatted, so
    neither a rounded copy of the table nor its text is held."""
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows if full_precision else map(normalize_floats, rows))


@contextlib.contextmanager
def open_output(path):
    """A text stream to a file, or stdout when path is '-'."""
    if path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fp:
            yield fp


@contextlib.contextmanager
def open_input(path, newline=None):
    """A UTF-8 text stream from path, without the byte-order mark that
    spreadsheet exports often write; bytes that are not UTF-8 are a format
    error, which a named_errors block around this one names."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline=newline) as fp:
            yield fp
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"not UTF-8 text ({exc.reason})") from None


@contextlib.contextmanager
def named_errors(source):
    """The one rule that names the file of an input fault.

    An InputError or DataFormatError raised in the block becomes a
    DataFormatError that starts with the file name when source is a path
    (str, bytes or PathLike): `path:N: msg` while the yielded cursor's
    `line` holds N, the physical line of the data row a table or mapping
    reader has handed out, else `path: msg`. Over a stream the fault
    passes unchanged.
    """
    where = SimpleNamespace(line=None)
    try:
        yield where
    except (InputError, DataFormatError) as exc:
        if not isinstance(source, (str, bytes, os.PathLike)):
            raise
        line = "" if where.line is None else f":{where.line}"
        raise DataFormatError(f"{os.fsdecode(source)}{line}: {exc}") from None


@contextlib.contextmanager
def read_csv(path, columns=None):
    """Open a UTF-8 CSV file and parse it with parse_csv, under
    named_errors(path): the context is (header, rows), and the rows stream
    from the file while it is open."""
    with named_errors(path) as where, open_input(path, newline="") as fp:
        yield parse_csv(fp, where, columns)


def parse_csv(lines, where, columns=None):
    """Parse a CSV table: its header and an iterator over its data rows.

    The header is the first non-blank row. Given a `{name: kind}` schema
    (kind str, int or float), it must name each schema column, and a row
    is those cells in schema order, numbers read by read_number; else a
    row is its stripped cells. A column read (each header cell without a
    schema) must be named once. Blank rows are skipped; each data row must
    have as many cells as the header. Rows are read, checked and converted
    one at a time as the iterator reaches them, so a caller that checks
    each row as it arrives reports the first fault in file order. While
    the caller holds a row, `where.line` (the cursor of the enclosing
    named_errors block) is its physical line number, and None otherwise.
    """
    rows = _table_rows(lines, where)
    header = next(rows, None)
    if header is None:
        raise DataFormatError("no header row")
    seen = set()
    for name in header:
        if name in seen and (columns is None or name in columns):
            raise DataFormatError(f"repeated column {name!r}")
        seen.add(name)
    if columns is None:
        return header, rows
    missing = [name for name in columns if name not in seen]
    if missing:
        raise DataFormatError(f"missing CSV columns: {', '.join(missing)}")
    picks = [(name, header.index(name), kind) for name, kind in columns.items()]
    return header, ([cells[i] if kind is str else read_number(name, cells[i], kind)
                     for name, i, kind in picks] for cells in rows)


def _table_rows(lines, where):
    """The non-blank rows of a CSV table as stripped cells, the header
    first; every row must be as wide as the header."""
    reader = csv.reader(lines)
    width = None
    try:
        for cells in reader:
            cells = list(map(str.strip, cells))
            if not any(cells):
                continue
            if width is None:
                width = len(cells)
            else:
                where.line = reader.line_num
                if len(cells) != width:
                    raise DataFormatError(f"expected {width} cells, got {len(cells)}")
            yield cells
            where.line = None
    except csv.Error as exc:  # e.g. a cell over the csv field size limit
        where.line = reader.line_num
        raise DataFormatError(str(exc)) from None


def parse_number(text, kind=float):
    """The one rule for a number in input text: Python's int or float
    notation without `_` digit grouping, and a float must be finite.
    Returns the value, or None when text is no such number."""
    if "_" in text:
        return None
    try:
        value = kind(text)
    except ValueError:
        return None
    return value if kind is int or math.isfinite(value) else None


def read_number(column, text, kind=float):
    """One cell by parse_number, or a format error naming its column."""
    value = parse_number(text, kind)
    if value is None:
        what = "an integer" if kind is int else "a finite number"
        raise DataFormatError(f"{column} must be {what}, got {text!r}")
    return value
