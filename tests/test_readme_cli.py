"""The README's fast CLI examples print exactly their golden stdout.

The goldens under ``tests/golden/`` are the stdout of each example, run
in-process.  They pin every digit of the exact and float answers, the JSON
layout and, through ``project``'s ``"space"`` field, a ``space_id``.  A
change that means to alter one of these outputs regenerates its golden and
says why.
"""

import re
import shlex
from pathlib import Path

import pytest

import boundary_lab
from boundary_lab.cli import main

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parents[1] / "README.md"
CLI = Path(boundary_lab.__file__).parent / "cli.py"
X_SPACE = str(Path(boundary_lab.__file__).parent / "spaces" / "X.space")

EXAMPLES = {
    "dist.json": "dist --space X:16 --from g3:0 --to alpha:3",
    "gromov.json": "gromov --space X:16 --x alpha:5 --y g3:1 --z base",
    "project.json": "project --space X:8 --point g3:0 --target alpha,beta --horizon 300",
    "bproduct.json": "bproduct --space X:16 --eta alpha --zeta g5",
    "bproduct_csv.csv": "bproduct --space Ycat0:14 --eta alpha --zeta all --format csv",
    "converge.json": "converge --space X:16 --eta alpha --sequence g1,g2,g3,g4 --radii 1,2",
    "continuity.json": "continuity --from-space X:16 --to-space Y:16 --eta alpha "
    "--sequence g3,g4,g5,g6,g7,g8 --r 1",
    "escape.json": "escape --space Xcat0:8 --alpha alpha --beta beta --c 3.14159 --horizon 100",
    "spiral.json": "spiral --from-space Xcat0:12 --to-space Ycat0:12 --point ann:3,8",
    "oracle.json": "oracle --space Xcat0:4 --from ann:0,2 --to ann:5,2 --h 0.01",
    "parse.json": f"parse --file {X_SPACE} --emit-canonical",
}


def readme_argvs():
    """The argv of every `boundary-lab ...` example in the README."""
    text = README.read_text().replace("\\\n", " ")
    return [
        shlex.split(line, comments=True)[1:]
        for line in text.splitlines()
        if line.startswith("boundary-lab ")
    ]


def test_goldens_are_the_examples():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(EXAMPLES)
    readme = [" ".join(argv) for argv in readme_argvs()]
    for argv in EXAMPLES.values():
        assert argv.replace(X_SPACE, "src/boundary_lab/spaces/X.space") in readme


@pytest.mark.parametrize("golden", sorted(EXAMPLES))
def test_readme_example_prints_its_golden(capsys, golden):
    code = main(EXAMPLES[golden].split())
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


def test_readme_schema_list_is_what_the_cli_prints():
    section = README.read_text().split("## Report schemas", 1)[1]
    listed = re.findall(r"`(\w+@\d+)`", section.split("Row-shaped", 1)[0])
    printed = re.findall(r'"schema": "(\w+@\d+)"', CLI.read_text())
    assert len(listed) == len(set(listed))
    assert set(listed) == set(printed) | {"help@1"}
