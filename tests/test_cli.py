import argparse
import json
import math
import os
from pathlib import Path

import pytest

from boundary_lab import boundary, cli, spacezoo
from boundary_lab.cli import COMMANDS, build_parser, main
from boundary_lab.contraction import ContractionProfile, ray_distance
from boundary_lab.errors import DomainError
from test_readme_cli import readme_argvs


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def strict_json(text):
    """Parse as RFC 8259 JSON: bare NaN, Infinity and -Infinity are errors."""

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_gromov_value(capsys):
    code, out = run_cli(
        capsys, "gromov", "--space", "X:16", "--x", "alpha:5", "--y", "g3:1",
        "--z", "base",
    )
    assert code == 0
    assert json.loads(out) == {"schema": "gromov_product@1", "value": "3"}


def test_dist_value(capsys):
    code, out = run_cli(
        capsys, "dist", "--space", "X:16", "--from", "g3:0", "--to", "alpha:3"
    )
    assert code == 0
    assert json.loads(out) == {"schema": "distance@1", "distance": "8"}


def test_rational_point_literals(capsys):
    code, out = run_cli(
        capsys, "dist", "--space", "X:8", "--from", "alpha:3/2", "--to", "beta:1/2"
    )
    assert code == 0
    assert json.loads(out)["distance"] == "2"


def test_project_output(capsys):
    code, out = run_cli(
        capsys, "project", "--space", "X:8", "--point", "g3:0",
        "--target", "alpha,beta", "--horizon", "300",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["distance"] == "8"
    assert len(payload["intervals"]) == 2
    assert payload["diameter"] == "6"


@pytest.mark.parametrize("space", ["X:4", "Xcat0:4"])
def test_project_takes_a_repeated_target_once(capsys, space):
    argv = ["project", "--space", space, "--point", "g1:0", "--horizon", "10"]
    once = run_cli(capsys, *argv, "--target", "alpha")
    twice = run_cli(capsys, *argv, "--target", "alpha,alpha")
    assert once[0] == 0 and twice == once


def test_escape_close_to_two_pi(capsys):
    code, out = run_cli(
        capsys, "escape", "--space", "Xcat0:6", "--alpha", "alpha", "--beta",
        "beta", "--c", str(math.pi), "--horizon", "100",
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(2 * math.pi, abs=1e-6)


@pytest.mark.parametrize("space", ["Xcat0:16", "Xcat0:40"])
def test_escape_answers_at_the_default_horizon(capsys, space):
    # the default horizon 8 * 2^n makes grids of 2^21 (Xcat0:16) and about
    # 3.5e13 (Xcat0:40) points; the certified search queries about log2 of that
    code, out = run_cli(
        capsys, "escape", "--space", space, "--alpha", "alpha", "--beta", "g2",
        "--c", "1",
    )
    assert code == 0
    value = json.loads(out)["value"]
    assert value == 3.5103110526688397
    zoo = spacezoo.get_space(space)
    alpha, g2 = zoo.boundary["alpha"].canonical, zoo.boundary["g2"].canonical
    assert ray_distance(g2.eval(value), alpha)[0] == pytest.approx(2.0, abs=1e-6)


def test_bproduct_and_converge(capsys):
    code, out = run_cli(
        capsys, "bproduct", "--space", "X:8", "--eta", "alpha", "--zeta", "g5"
    )
    assert code == 0
    assert json.loads(out)["value"] == 5.0
    # a self-product is infinite, written as a string, not a bare Infinity
    code, out = run_cli(
        capsys, "bproduct", "--space", "X:4", "--eta", "alpha", "--zeta", "alpha"
    )
    assert code == 0
    assert strict_json(out)["value"] == "inf"
    code, out = run_cli(
        capsys, "converge", "--space", "X:8", "--eta", "alpha",
        "--sequence", ",".join(f"g{i}" for i in range(1, 9)),
        "--radii", "1,2,4",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["converges"] is True
    assert payload["rows"][0]["first_index"] == 1


def test_continuity_command(capsys):
    code, out = run_cli(
        capsys, "continuity", "--from-space", "X:8", "--to-space", "Y:8",
        "--eta", "alpha", "--sequence", "g3,g4,g5,g6,g7,g8", "--r", "1",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["verdict"] == "discontinuous"
    assert all(row["value"] <= 0.5 for row in payload["image_products"])


def test_spiral_command(capsys):
    code, out = run_cli(
        capsys, "spiral", "--from-space", "Xcat0:6", "--to-space", "Ycat0:6",
        "--point", "ann:3,8", "--direction", "forward",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["image"] == {"kind": "annulus", "t": 0.0, "r": 8.0}


def test_parse_command(capsys, tmp_path):
    src = Path("src/boundary_lab/spaces/X.space")
    code, out = run_cli(capsys, "parse", "--file", str(src))
    assert code == 0
    assert json.loads(out)["edges"] == 50
    bad = tmp_path / "bad.space"
    bad.write_text("seg s -1\nbase s:0\n")
    code, out = run_cli(capsys, "parse", "--file", str(bad))
    assert code == 2
    assert "E_LENGTH_NONPOSITIVE" in json.loads(out)["error"]


def test_usage_error_exit_code(capsys):
    code, out = run_cli(capsys, "dist", "--space", "Wrong:1", "--from", "a:0", "--to", "b:0")
    assert code == 2


# a given option that must be positive: (argv, the flag the error names)
NONPOSITIVE = [
    (["escape", "--space", "Xcat0:4", "--alpha", "alpha", "--beta", "beta",
      "--c", "3", "--horizon", "0"], "--horizon"),
    (["escape", "--space", "Xcat0:4", "--alpha", "alpha", "--beta", "beta",
      "--c", "3", "--horizon", "-1"], "--horizon"),
    (["project", "--space", "X:8", "--point", "g3:0", "--target", "alpha",
      "--horizon", "0"], "--horizon"),
    (["project", "--space", "X:8", "--point", "g3:0", "--target", "alpha",
      "--horizon", "-1"], "--horizon"),
    (["profile", "--space", "Xcat0:4", "--ray", "alpha", "--n", "10", "--seed", "1",
      "--horizon", "0"], "--horizon"),
    (["claim", "--space", "Xcat0:4", "--eta", "alpha", "--zeta", "g3",
      "--c-eta", "3.5", "--c-zeta", "3.5", "--horizon", "0"], "--horizon"),
    (["claim", "--space", "Xcat0:4", "--eta", "alpha", "--zeta", "g3",
      "--c-eta", "0", "--c-zeta", "3.5", "--horizon", "300"], "--c-eta"),
    (["claim", "--space", "Xcat0:4", "--eta", "alpha", "--zeta", "g3",
      "--c-eta", "3.5", "--c-zeta", "-2", "--horizon", "300"], "--c-zeta"),
    (["profile", "--space", "Xcat0:4", "--ray", "alpha", "--n", "10", "--seed", "1",
      "--jobs", "0"], "--jobs"),
]


BAD_INPUT = [
    ["dist", "--space", "X:abc", "--from", "base", "--to", "base"],
    ["dist", "--space", "Xcat0:4", "--from", "alpha:xyz", "--to", "base"],
    ["dist", "--space", "X:4", "--from", "g1:1/0", "--to", "base"],
    ["dist", "--space", "Xcat0:4", "--from", "ann:1", "--to", "base"],
    ["dist", "--space", "Xcat0:4", "--from", "ann:nan,2", "--to", "base"],
    ["dist", "--space", "Xcat0:4", "--from", "ann:inf,2", "--to", "base"],
    ["dist", "--space", "Xcat0:4", "--from", "g1:inf", "--to", "base"],
    ["bproduct", "--space", "X:4", "--eta", "alpha", "--zeta", "nope"],
    ["converge", "--space", "X:4", "--eta", "alpha", "--sequence", "g1,zz",
     "--radii", "1"],
    ["converge", "--space", "X:4", "--eta", "alpha", "--sequence", "g1",
     "--radii", "x"],
    ["continuity", "--from-space", "X:4", "--to-space", "Y:4", "--eta", "nope",
     "--sequence", "g3"],
    ["escape", "--space", "Xcat0:4", "--alpha", "alpha", "--beta", "beta",
     "--c", "0"],
    ["git", "--space", "Xcat0:4", "--c", "-1", "--n", "3", "--seed", "1"],
    # zoo sizes whose radii or horizons overflow, and annulus literals above
    # MAX_RADIUS (these gave a NaN traceback, an OverflowError and "inf")
    ["gromov", "--space", "Xcat0:4", "--x", "g1:1e308", "--y", "g2:1e308",
     "--z", "base"],
    # non-finite numbers
    ["converge", "--space", "X:4", "--eta", "alpha", "--sequence", "g1,g2",
     "--radii", "nan"],
    ["basis", "--space", "Xcat0:4", "--eta", "alpha", "--r", "nan"],
    ["continuity", "--from-space", "X:4", "--to-space", "Y:4", "--eta", "alpha",
     "--sequence", "g3,g4", "--r", "nan"],
    ["project", "--space", "X:8", "--point", "g3:0", "--target", "alpha",
     "--horizon", "nan"],
    ["project", "--space", "X:8", "--point", "g3:0", "--target", "alpha",
     "--tol", "nan"],
    ["oracle", "--space", "Xcat0:4", "--from", "ann:0,2", "--to", "ann:5,2",
     "--h", "nan"],
    ["oracle", "--space", "Xcat0:4", "--from", "ann:0,2", "--to", "ann:5,2",
     "--h", "inf"],
    ["escape", "--space", "Xcat0:4", "--alpha", "alpha", "--beta", "beta",
     "--c", "3", "--horizon", "nan"],
    ["dist", "--space", "Xcat0:1100", "--from", "base", "--to", "base"],
    # escape grids of more than 2^53 points (annulus), or sweeps past the
    # sample cap (ray complexes), rejected before they start
    ["escape", "--space", "Xcat0:4", "--alpha", "alpha", "--beta", "g2",
     "--c", "1e-300", "--horizon", "100"],
    ["escape", "--space", "X:8", "--alpha", "alpha", "--beta", "g2",
     "--c", "1", "--horizon", "1e6"],
    ["claim", "--space", "Xcat0:4", "--eta", "alpha", "--zeta", "g2",
     "--c-eta", "1", "--c-zeta", "1", "--horizon", "1e300"],
    # out-of-domain values
    ["oracle", "--space", "Xcat0:4", "--from", "ann:0,2", "--to", "ann:5,2",
     "--h", "-1"],
    ["oracle", "--space", "Xcat0:4", "--from", "ann:0,2", "--to", "ann:5,2",
     "--h", "0"],
    # oracle grids too large to allocate, or with overflowing radii
    ["oracle", "--space", "Xcat0:4", "--from", "ann:0,2", "--to", "ann:1,2",
     "--h", "1e-7"],
    ["oracle", "--space", "Xcat0:4", "--from", "ann:0,2", "--to", "ann:1,2",
     "--h", "800"],
    ["oracle", "--space", "Xcat0:4", "--from", "ann:0,2", "--to", "ann:1,2",
     "--h", "1e9"],
    ["oracle", "--space", "Xcat0:4", "--from", "ann:0,1e155", "--to",
     "ann:0.02,1e155"],
    ["dist", "--space", "Xcat0:600", "--from", "g600:1", "--to", "g599:1"],
    ["project", "--space", "X:8", "--point", "g3:0", "--target", "alpha",
     "--tol", "-1"],
    ["git", "--space", "Xcat0:4", "--n", "0", "--seed", "1"],
    ["profile", "--space", "Xcat0:4", "--ray", "alpha", "--n", "0", "--seed", "1"],
    # class constants are sampled on the annulus only
    ["basis", "--space", "X:4", "--eta", "alpha", "--r", "1"],
    ["claim", "--space", "X:4", "--eta", "alpha", "--zeta", "g2"],
    ["paper-suite", "--criteria", "parser,nope"],
    # usage errors, and an artifact path that cannot be written
    ["profile", "--space", "Xcat0:4", "--ray", "alpha", "--n", "2.5", "--seed", "1"],
    ["dist", "--space", "X:4", "--from", "base"],
    ["dist", "--space", "X:4", "--from", "base", "--to", "base", "--out",
     "/nonexistent-boundary-lab-dir/out.json"],
] + [argv for argv, _ in NONPOSITIVE]


@pytest.mark.parametrize("argv", BAD_INPUT)
def test_bad_input_is_rejected_with_exit_2(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert set(json.loads(out)) == {"error"}


@pytest.mark.parametrize("argv, flag, value", [
    (["converge", "--space", "X:4", "--eta", "alpha", "--sequence", "g1,g2"],
     "--radii", "-.5,2"),
    (["converge", "--space", "X:4", "--eta", "alpha", "--sequence", "g1,g2"],
     "--radii", "-3,-1,4"),
    (["converge", "--space", "X:4", "--eta", "alpha", "--sequence", "g1,g2"],
     "--radii", "-1,2"),
])
def test_negative_list_value_parses_after_a_space(capsys, argv, flag, value):
    spaced = run_cli(capsys, *argv, flag, value)
    glued = run_cli(capsys, *argv, f"{flag}={value}")
    assert spaced == glued
    assert spaced[0] == 0


def test_unreadable_space_file_is_rejected_with_exit_2(capsys, tmp_path):
    binary = tmp_path / "binary.space"
    binary.write_bytes(bytes(range(128, 256)))
    for path in (tmp_path, binary):
        code, out = run_cli(capsys, "parse", "--file", str(path))
        assert code == 2
        assert set(json.loads(out)) == {"error"}


@pytest.mark.parametrize("argv, flag", NONPOSITIVE)
def test_nonpositive_option_error_names_the_option(capsys, argv, flag):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"].startswith(f"{flag} must be > 0")


def test_property_failure_exit_code(capsys, monkeypatch):
    # with both constants given, no class-constant table is computed
    tables = []
    monkeypatch.setattr(cli, "class_constants", lambda *a: tables.append(a))
    # an artificially small constant breaks the residual bounds -> exit 1
    code, out = run_cli(
        capsys, "claim", "--space", "Xcat0:6", "--eta", "alpha", "--zeta", "g5",
        "--c-eta", "0.05", "--c-zeta", "0.05", "--horizon", "400",
    )
    payload = json.loads(out)
    assert code == 1
    assert payload["violations"]
    assert tables == []


def test_determinism_byte_identical(capsys):
    argv = [
        "profile", "--space", "Xcat0:6", "--ray", "alpha", "--n", "300",
        "--seed", "5",
    ]
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_jobs_merge_matches_serial(capsys):
    base = ["profile", "--space", "Xcat0:6", "--ray", "alpha", "--n", "400",
            "--seed", "9"]
    _, serial = run_cli(capsys, *base, "--jobs", "1")
    _, parallel = run_cli(capsys, *base, "--jobs", "2")
    assert serial == parallel


class _FakePool:
    """Stands in for ProcessPoolExecutor: records its size, starts nothing."""

    def __init__(self, sizes, max_workers):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("jobs, n, cpus, workers", [
    (64, 2000, 2, 2),  # capped by the CPU count
    (64, 600, 16, 3),  # capped by the chunk count (chunks of 250)
    (3, 2000, 16, 3),
    (4, 200, 16, None),  # one chunk runs in-process, without a pool
    (1, 2000, 16, None),
])
def test_profile_worker_count(capsys, monkeypatch, jobs, n, cpus, workers):
    sizes, chunks = [], []
    monkeypatch.setattr(
        cli, "ProcessPoolExecutor", lambda max_workers: _FakePool(sizes, max_workers)
    )
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(
        cli, "_profile_chunk", lambda c: chunks.append(c) or ContractionProfile()
    )
    code, _ = run_cli(
        capsys, "profile", "--space", "Xcat0:4", "--ray", "alpha", "--n", str(n),
        "--seed", "1", "--jobs", str(jobs),
    )
    assert code == 0
    assert sizes == ([] if workers is None else [workers])
    assert sum(c[2] for c in chunks) == n


def test_csv_output_and_artifact(capsys, tmp_path):
    out_path = tmp_path / "profile.csv"
    code, out = run_cli(
        capsys, "profile", "--space", "Xcat0:6", "--ray", "alpha", "--n", "200",
        "--seed", "3", "--format", "csv", "--out", str(out_path),
    )
    assert code == 0
    assert out.startswith("bucket_log2,")
    assert out_path.read_text() == out


def test_basis_command(capsys, monkeypatch):
    calls = []
    original = boundary.boundary_gromov_product

    def recording(*args, **kwargs):
        est = original(*args, **kwargs)
        calls.append((args[0].label, args[1].label, est.value))
        return est

    monkeypatch.setattr(boundary, "boundary_gromov_product", recording)
    code, out = run_cli(
        capsys, "basis", "--space", "Xcat0:6", "--eta", "alpha", "--r", "2",
        "--seed", "3",
    )
    payload = strict_json(out)
    assert code == 0
    assert payload["violations"] == []
    # every product the command uses is the estimate past the zoo's
    # construction scale, as in the basis-condition criterion
    zoo = spacezoo.get_space("Xcat0:6")

    def product(a, b):
        return original(
            zoo.boundary[a], zoo.boundary[b], max_horizon=zoo.product_horizon,
            min_horizon=zoo.product_min_horizon,
        ).value

    assert calls
    with boundary.shared_products():
        for a, b, value in calls:
            assert value == product(a, b)
        for zeta, value, _, _ in payload["rows"]:
            expected = product(*sorted(("alpha", zeta)))
            assert value == ("inf" if expected == math.inf else expected)


def test_suite_single_criterion(capsys):
    code, out = run_cli(
        capsys, "paper-suite", "--criteria", "parser", "--seed", "7"
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["passed"] is True
    assert payload["results"][0]["key"] == "parser"


def test_project_exact_zero_diameter_is_a_string(capsys):
    code, out = run_cli(
        capsys, "project", "--space", "X:4", "--point", "g2:1",
        "--target", "alpha,g2", "--horizon", "30",
    )
    payload = strict_json(out)
    assert code == 0
    assert payload["distance"] == "0"
    assert payload["diameter"] == "0"


# one valid call per command, the cheapest spelling of each
ONE_PER_COMMAND = [
    ["dist", "--space", "X:4", "--from", "base", "--to", "g1:1"],
    ["gromov", "--space", "X:4", "--x", "alpha:1", "--y", "g1:1", "--z", "base"],
    ["project", "--space", "X:4", "--point", "g1:0", "--target", "alpha",
     "--horizon", "20", "--tol", "0"],
    ["profile", "--space", "Xcat0:4", "--ray", "alpha", "--n", "5", "--seed", "1",
     "--horizon", "20", "--jobs", "1"],
    ["git", "--space", "Xcat0:4", "--ray", "beta", "--c", "2", "--n", "3",
     "--seed", "1"],
    ["escape", "--space", "Xcat0:4", "--alpha", "alpha", "--beta", "beta",
     "--c", "3", "--horizon", "50"],
    ["claim", "--space", "Xcat0:4", "--eta", "alpha", "--zeta", "g2",
     "--c-eta", "3", "--c-zeta", "3", "--horizon", "50", "--seed", "3"],
    ["basis", "--space", "Xcat0:4", "--eta", "alpha", "--r", "2", "--seed", "3"],
    ["bproduct", "--space", "X:4", "--eta", "alpha", "--zeta", "all",
     "--format", "csv"],
    ["oracle", "--space", "Xcat0:4", "--from", "ann:0,2", "--to", "ann:1,2",
     "--h", "0.1"],
    ["converge", "--space", "X:4", "--eta", "alpha", "--sequence", "g1,g2",
     "--radii", "1"],
    ["continuity", "--from-space", "X:4", "--to-space", "Y:4", "--eta", "alpha",
     "--sequence", "g3,g4", "--r", "1"],
    ["spiral", "--from-space", "Xcat0:4", "--to-space", "Ycat0:4",
     "--point", "ann:1,2", "--direction", "inverse"],
    ["parse", "--file", "src/boundary_lab/spaces/Y.space", "--emit-canonical",
     "--out", "parse.json"],
    ["paper-suite", "--criteria", "parser", "--seed", "7"],
]


def _parse(parser, argv):
    try:
        return parser.parse_args(argv)
    except DomainError as err:
        return str(err)


def test_readme_examples_cover_every_command():
    assert {argv[0] for argv in readme_argvs()} == set(COMMANDS)
    assert [argv[0] for argv in ONE_PER_COMMAND] == list(COMMANDS)


@pytest.mark.parametrize(
    "argv", readme_argvs() + BAD_INPUT + ONE_PER_COMMAND + [
        ["dist", "--space", "X:4", "--from", "base", "--to", "base", "--bogus", "1"],
        ["dist", "--space", "X:4", "--from", "base"],
        ["spiral", "--from-space", "a", "--to-space", "b", "--point", "c",
         "--direction", "up"],
    ],
)
def test_one_command_parser_parses_like_the_full_parser(capsys, argv):
    # a Namespace for a valid argv, the usage error message for a bad one
    one = _parse(build_parser(argv[0]), argv)
    full = _parse(build_parser(), argv)
    assert repr(one) == repr(full)  # repr: a parsed nan is not == itself
    if argv in readme_argvs() + ONE_PER_COMMAND:
        assert isinstance(one, argparse.Namespace)


def test_one_command_parser_registers_no_other_command():
    for name in COMMANDS:
        (sub,) = [
            act for act in build_parser(name)._actions
            if isinstance(act, argparse._SubParsersAction)
        ]
        assert list(sub.choices) == [name]
        assert [act.dest for act in sub._choices_actions] == [name]
    (sub,) = [
        act for act in build_parser()._actions
        if isinstance(act, argparse._SubParsersAction)
    ]
    assert list(sub.choices) == list(COMMANDS)


COMMAND_LIST = ", ".join(f"'{name}'" for name in COMMANDS)


@pytest.mark.parametrize("argv, error", [
    (["nope", "--space", "X:4"],
     f"boundary-lab: argument command: invalid choice: 'nope' (choose from {COMMAND_LIST})"),
    ([], "boundary-lab: the following arguments are required: command"),
    (["dist", "--space", "X:4", "--from", "base", "--to", "base", "--bogus", "1"],
     "boundary-lab: unrecognized arguments: --bogus 1"),
    (["dist", "--space", "X:4", "--from", "base"],
     "boundary-lab dist: the following arguments are required: --to"),
])
def test_usage_errors_print_the_full_parser_messages(capsys, argv, error):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert strict_json(captured.out) == {"error": error}
    assert captured.err.startswith("usage: boundary-lab")


@pytest.mark.parametrize("argv, prog", [
    (["--help"], "boundary-lab"),
    (["-h", "dist"], "boundary-lab"),
    (["dist", "--help"], "boundary-lab dist"),
    (["paper-suite", "-h"], "boundary-lab paper-suite"),
    (["project", "--space", "X:4", "--help", "--horizon", "0"], "boundary-lab project"),
])
def test_help_prints_a_json_stub_and_the_text_on_stderr(capsys, argv, prog):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == json.dumps(
        {"prog": prog, "schema": "help@1"}, indent=2, sort_keys=True
    ) + "\n"
    assert captured.err.startswith(f"usage: {prog} ")
    if prog == "boundary-lab":
        assert all(name in captured.err for name in COMMANDS)
