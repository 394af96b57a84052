"""Deterministic report assembly and serialization; the one input CSV reader.

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
import sys

from .errors import DataFormatError

SCHEMA_VERSION = 1
DEFAULT_SIG_DIGITS = 6


def inputs_digest(paths) -> list[dict]:
    out = []
    for path in paths:
        out.append({"name": str(path), "bytes": os.path.getsize(path)})
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
    """A UTF-8 text stream from path; bytes that are not UTF-8 are a format
    error naming the file."""
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as fp:
            yield fp
    except UnicodeDecodeError as exc:
        raise DataFormatError(
            f"{os.fsdecode(path)}: not UTF-8 text ({exc.reason})"
        ) from None


@contextlib.contextmanager
def read_csv(path, required=()):
    """Open a UTF-8 CSV file and parse it with parse_csv: the context is
    (header, rows), and the rows stream from the file while it is open."""
    with open_input(path, newline="") as fp:
        yield parse_csv(fp, path, required)


def parse_csv(lines, path, required=()):
    """Parse a CSV table: its header and an iterator over its data rows,
    cells stripped.

    The header is the first non-blank row and must name every `required`
    column. Blank rows are skipped; each data row is (physical line
    number, cells) and must have as many cells as the header. Rows are
    read and checked one at a time as the iterator reaches them, so a
    caller that checks each row as it arrives reports the first fault in
    file order. Messages name `path`, the table's file.
    """
    rows = _table_rows(lines, path)
    first = next(rows, None)
    if first is None:
        raise DataFormatError(f"{path}: no header row")
    header = first[1]
    missing = [c for c in required if c not in header]
    if missing:
        raise DataFormatError(f"{path}: missing CSV columns: {', '.join(missing)}")
    return header, rows


def _table_rows(lines, path):
    """The non-blank rows of a CSV table as (line number, stripped cells);
    every row must be as wide as the first, its header."""
    reader = csv.reader(lines)
    width = None
    try:
        for cells in reader:
            cells = list(map(str.strip, cells))
            if not any(cells):
                continue
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise DataFormatError(
                    f"{path}:{reader.line_num}: expected {width} cells, got {len(cells)}"
                )
            yield reader.line_num, cells
    except csv.Error as exc:  # e.g. a cell over the csv field size limit
        raise DataFormatError(f"{path}:{reader.line_num}: {exc}") from None


def read_number(path, lineno, column, text, kind=float):
    """Parse one cell as a finite int or float, or fail naming path:line and
    the column."""
    try:
        value = kind(text)
        if kind is int or math.isfinite(value):
            return value
    except ValueError:
        pass
    what = "an integer" if kind is int else "a finite number"
    raise DataFormatError(f"{path}:{lineno}: {column} must be {what}, got {text!r}")
