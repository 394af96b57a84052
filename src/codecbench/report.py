"""Deterministic report assembly and serialization.

Reports are plain dicts serialized as JSON with stable key order; float
values are rounded to six significant digits by default so repeated runs
diff cleanly, with a flag for full precision.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys

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


def render_csv(header, rows, full_precision: bool = False) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    # Rows are rounded one at a time, so no rounded copy of the table is held.
    writer.writerows(rows if full_precision else map(normalize_floats, rows))
    return buf.getvalue()


def write_text(path, text: str):
    """Write to a file, or to stdout when path is '-'."""
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fp:
            fp.write(text)
