"""JSON/CSV emission with stable, versioned schemas.

JSON output is deterministic and strict (RFC 8259): keys sorted, rationals
rendered as exact strings, finite floats through repr, infinities as the
strings "inf" and "-inf".  CSV columns follow the first row's keys.
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


def _plain(obj: Any):
    """``obj`` as JSON values: infinities as the strings "inf" and "-inf",
    rationals as exact strings, dataclasses, sets and numpy values unpacked,
    anything else as its repr."""
    if isinstance(obj, float) and math.isinf(obj):
        return "inf" if obj > 0 else "-inf"
    if obj is None or isinstance(obj, (str, int, float)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _plain(dataclasses.asdict(obj))
    if isinstance(obj, (set, frozenset)):
        return _plain(sorted(obj))
    if hasattr(obj, "tolist"):
        return _plain(obj.tolist())
    return repr(obj)


def dumps(payload: dict) -> str:
    """Strict RFC 8259 JSON; a NaN raises ValueError."""
    return json.dumps(_plain(payload), sort_keys=True, indent=2, allow_nan=False)


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
