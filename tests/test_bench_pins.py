"""``.github/bench_pins.py`` reports a smoke output it cannot read as a
failure that names the file, and goes on to check the other runs."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench_pins", Path(__file__).resolve().parents[1] / ".github" / "bench_pins.py"
)
pins = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pins)

NAMES = [f"bench-{workload}{seed}.out" for workload in pins.PINS for seed in ("", "-seed2")]


def _named(failures):
    return [line.split(":")[0] for line in failures]


def test_missing_smoke_outputs_are_named_failures(tmp_path):
    # an empty directory ended in a bare FileNotFoundError
    failures = pins.check(tmp_path)
    assert len(NAMES) == 8 and _named(failures) == NAMES
    assert all("FileNotFoundError" in line for line in failures)


def test_empty_and_malformed_smoke_outputs_are_named_failures(tmp_path):
    # an empty output ended in a bare IndexError, a non-JSON one in a
    # JSONDecodeError; a traced run without its record line fails too
    (tmp_path / NAMES[0]).write_text("")
    (tmp_path / NAMES[1]).write_text("error: no such workload\n")
    (tmp_path / NAMES[2]).write_text('{"correct": true}\n')
    failures = pins.check(tmp_path)
    assert _named(failures) == NAMES
    assert "empty" in failures[0]
    assert "JSONDecodeError" in failures[1]
    assert "IndexError" in failures[2]
