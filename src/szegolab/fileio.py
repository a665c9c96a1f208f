"""CSV and JSON helpers shared by the I/O surfaces and the CLI.

Floats are written with 17 significant digits so a round trip through text
is bit-exact for doubles.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .errors import ValidationError


def fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_csv(path, header, rows) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([fmt(v) if isinstance(v, float) else v for v in row])


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


def load_json(path):
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as f:
            return json.load(f)
    except ValueError as exc:  # bad syntax, bad UTF-8, or an integer past the digit limit
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc


def dump_json(obj, path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2)
        f.write("\n")
