"""CSV and JSON helpers shared by the I/O surfaces and the CLI.

There is one float rule, FLOAT_FORMAT: 17 significant digits, so a round trip
through text is bit-exact for doubles. `fmt` applies it to every report cell,
and the coefficient CSV (`HardyFunction.save_csv`) writes it straight into each
`n,re,im` line, one line per coefficient ended by CRLF, the bytes `csv.writer`
would write for those cells.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from pathlib import Path

from .errors import ValidationError

FLOAT_FORMAT = "%.17g"


def fmt(x) -> str:
    """A float with 17 significant digits, None as `none`, anything else as `str`."""
    if isinstance(x, float):
        return FLOAT_FORMAT % x
    return "none" if x is None else str(x)


def write_csv(path, header, rows) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([fmt(v) for v in row])


def read_csv(path):
    path = Path(path)
    try:
        with path.open("r", newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"{path}: not a valid CSV file ({exc})") from exc
    if not rows:
        raise ValidationError(f"{path}: empty CSV")
    return rows[0], rows[1:]


def _unique_keys(pairs) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):  # a plain json.load keeps the last copy
        raise ValueError(f"duplicate key {Counter(key for key, _ in pairs).most_common(1)[0][0]!r}")
    return obj


def load_json(path):
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as f:
            return json.load(f, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        # bad syntax, bad UTF-8, a duplicate key, an integer past the digit limit, or arrays
        # or objects nested past the interpreter's recursion limit
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
