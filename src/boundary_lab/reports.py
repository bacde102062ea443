"""JSON/CSV emission with stable, versioned schemas.

JSON output is deterministic: keys sorted, rationals rendered as exact
strings, floats through repr.  CSV columns follow the first row's keys.
Schema names are versioned with ``@1`` suffixes and documented in the
README.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from fractions import Fraction
from typing import Any, Optional


def json_default(obj: Any):
    if isinstance(obj, Fraction):
        return str(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    if hasattr(obj, "tolist"):
        return obj.tolist()
    if obj is math.inf:
        return "inf"
    return repr(obj)


def dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, default=json_default, indent=2)


def write_json(payload: dict, path: Optional[str]) -> str:
    text = dumps(payload)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text


def rows_to_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    fields = list(rows[0].keys())
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _cell(row.get(k)) for k in fields})
    return buf.getvalue()


def write_csv(rows: list[dict], path: Optional[str]) -> str:
    text = rows_to_csv(rows)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def _cell(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    return value
