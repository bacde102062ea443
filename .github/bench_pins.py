"""Check the benchmark smoke runs against their pinned answers.

Each smoke run of ``bench/run.py`` writes two JSON lines: a record, with the
digest of the run's answers, then the result, with ``correct`` and the
traced work counts.  CI tees the eight runs (four workloads, traced at seed 1
and untraced at seed 2) to ``bench-<workload>.out`` and
``bench-<workload>-seed2.out`` and then runs

    python3 .github/bench_pins.py [DIR]

which reads them from DIR (default: the current directory).  Every run must
be correct; each traced run must show the work counts and seed-1 digest
pinned below.  It prints what it read and exits 1, naming every pin that
does not hold, when any fails.
"""

import json
import sys
from pathlib import Path

# run -> (traced work counts, seed-1 digest); the seed-2 runs pin only
# ``correct``.  A digest moves with any answer: glued-topology's answers
# are all exact, and its traced and untraced runs print the same digest.
PINS = {
    # A change that moves the Dijkstra, projection, profile,
    # product-schedule or build path fails here.
    "glued-topology": ({
        "ray_complex.dijkstra_runs": 118,
        "contraction.ray_distance.edge.calls": 781,
        "contraction.profile_proposals": 470,
        "boundary.product_doublings": 9828,
        "boundary.product_calls": 517,
        "ray_complex.distance_calls": 470,
        "spacezoo.build_calls": 3,
    }, "3cd69a926181dd0e"),
    # Every CLI output carries its space_id, the hash of describe(): a
    # drift in the canonical text, the hash or the build's vertex order
    # moves the digest.  The edge projections and products pin the
    # ray-complex paths of its `project` and `bproduct` commands.
    "cli-cold": ({
        "cli.command_calls": 154,
        "spacezoo.build_calls": 160,
        "boundary.product_doublings": 241,
        "ray_complex.dijkstra_runs": 289,
        "ray_complex.distance_calls": 106,
        "contraction.escape_calls": 18,
        "contraction.escape_refine_queries": 700,
        "contraction.ray_distance.edge.calls": 24,
        "boundary.product_calls": 16,
    }, "44584676a6814006"),
    # A projection change that moves the profile or escape search path
    # fails here, and so do claim products that fall back from seeded
    # points to one metric.gromov_product per grid point (3,240 a pass).
    # The arc projections and escapes pin the anchor and escape paths:
    # each escape query and each profile projection is one ray_distance
    # call.  Every annulus distance, projection and product window reads
    # seeded points: a moved float moves the digest.
    "annulus-claims": ({
        "contraction.profile_proposals": 11506,
        "contraction.escape_refine_queries": 15438,
        "contraction.ray_distance.chord.calls": 28572,
        "contraction.ray_distance.arc.calls": 8390,
        "contraction.escape_calls": 370,
        "metric.gromov_calls": 0,
    }, "7eee2f91d4d684c5"),
    # A builder entered twice per build, or a default horizon that moves
    # a product schedule, fails here.
    "annulus-metric": ({
        "mesh_oracle.query_calls": 100,
        "mesh_oracle.grid_cells": 30186619,
        "boundary.product_calls": 388,
        "boundary.product_doublings": 6240,
        "spacezoo.build_calls": 3,
    }, "a640ac007cd5cbf2"),
}


def check_run(path: Path, counts: dict | None, digest: str | None) -> list:
    """The pins that do not hold in one smoke output; ``counts`` and
    ``digest`` are None for a run that pins only ``correct``."""
    name, failures = path.name, []
    lines = path.read_text().splitlines()
    if not lines:
        raise ValueError("the file is empty")
    result = json.loads(lines[-1])
    print(name, "correct" if result.get("correct") is True else "NOT correct")
    if result.get("correct") is not True:
        failures.append(f"{name}: correct is {result.get('correct')!r}")
    if counts is None:
        return failures
    record = json.loads(lines[-2])["record"]
    got = {metric: result["metrics"][metric]["value"] for metric in counts}
    print(name, "work counts", got)
    print(name, "digest", record["digest"])
    failures += [f"{name}: {metric} is {got[metric]}, pinned at {want}"
                 for metric, want in counts.items() if got[metric] != want]
    if record["digest"] != digest:
        failures.append(f"{name}: digest is {record['digest']}, pinned at {digest}")
    return failures


def check(where: Path) -> list:
    """The pins that do not hold in the smoke runs under ``where``.  A run
    whose output is missing, empty or not the two JSON lines it should be
    is one failure that names the file; the other runs are still checked."""
    failures = []
    for workload, (counts, digest) in PINS.items():
        for name, pins in ((f"bench-{workload}.out", (counts, digest)),
                           (f"bench-{workload}-seed2.out", (None, None))):
            try:
                failures += check_run(where / name, *pins)
            except (OSError, ValueError, LookupError) as err:
                failures.append(f"{name}: cannot read it ({type(err).__name__}: {err})")
    return failures


if __name__ == "__main__":
    failed = check(Path(sys.argv[1] if len(sys.argv) > 1 else "."))
    for line in failed:
        print("FAILED", line)
    sys.exit(1 if failed else 0)
