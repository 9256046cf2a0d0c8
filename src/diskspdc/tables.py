"""Deterministic table output.

All CLI results funnel through emit_table so a fixed input always produces
byte-identical files: floats are rendered with repr (shortest round-trip
form), rows are written in the order given, and both the CSV and the JSON
form carry exactly the same values, except that JSON, which has no NaN or
infinity, writes a non-finite float as null.
"""

from __future__ import annotations

import json
import math
from typing import Iterable, Sequence


def _render(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def format_table(columns: Sequence[str], rows: Iterable[Sequence],
                 fmt: str = "csv") -> str:
    """Render rows to CSV (header + comma-joined lines) or a JSON document."""
    rows = [list(r) for r in rows]
    for r in rows:
        if len(r) != len(columns):
            raise ValueError(f"row width {len(r)} != {len(columns)} columns")
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_render(v) for v in r) for r in rows]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        doc = {"columns": list(columns),
               "rows": [[None if isinstance(v, float) and not math.isfinite(v)
                         else v for v in r] for r in rows]}
        return json.dumps(doc, indent=2, sort_keys=True,
                          allow_nan=False) + "\n"
    raise ValueError(f"unknown table format {fmt!r}")


def emit_table(columns: Sequence[str], rows: Iterable[Sequence],
               path: str | None = None, fmt: str = "csv") -> str:
    """Format a table and optionally write it to a file; returns the text."""
    text = format_table(columns, rows, fmt)
    if path is not None:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return text
