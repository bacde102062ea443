"""Every committed ``BENCH_<pr>.json`` is a strict JSON record of its PR.

Strict means RFC 8259: Python's ``json`` reads ``NaN``, ``Infinity`` and
``-Infinity`` unless told not to, and they are not JSON.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("BENCH_*.json"))


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON (RFC 8259)")


def strict_load(text: str):
    return json.loads(text, parse_constant=_refuse)


@pytest.mark.parametrize("text", ['{"x": NaN}', '[Infinity]', '{"x": [-Infinity]}'])
def test_the_strict_loader_refuses_non_finite_constants(text):
    json.loads(text)  # what the default loader lets through
    with pytest.raises(ValueError, match="is not JSON"):
        strict_load(text)


def test_bench_files_are_found():
    assert len(FILES) >= 14


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.name)
def test_bench_file_is_strict_json_naming_its_pr_change_layer_and_command(path):
    record = strict_load(path.read_text())
    number = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
    assert number is not None, path.name
    assert type(record["pr"]) is int and record["pr"] == int(number[1])
    for key in ("change", "layer", "command"):
        assert isinstance(record[key], str) and record[key].strip(), key
