"""Bounded fuzz of the CLI's input/output contract.

Every command runs on small spaces (X:4, Y:4, Xcat0:4, Ycat0:4) with
arguments drawn from pools of well-formed values; in half of the examples
some are swapped for malformed ones.  Whatever is drawn, the exit
code is 0, 1 or 2 and stdout is one strict JSON document (no bare NaN or
Infinity); a malformed or non-finite value always gives 2 and an ``error``
object.  Some examples put ``-h`` or ``--help`` first, before the command
(top-level help) or right after it (the command's help): those exit 0 and
print only the ``help@1`` stub naming the parser.  Examples are
derandomized, so a run is reproducible, and ``--jobs`` is never drawn
above 1.
"""

import json
from pathlib import Path

import pytest

import boundary_lab
from boundary_lab.cli import main

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SPACES = {
    "X:4": "rc",
    "Y:4": "rc",
    "Xcat0:4": "ann",
    "Ycat0:4": "ann",
}
BAD_SPACES = ["X:abc", "Q:4", "X:0", "Y:2", "X:", "", "missing.space", "X:1020",
              "Xcat0:499"]
LABELS = ["alpha", "beta", "g1", "g2", "g3", "g4"]
BAD_LABELS = ["nope", "", "g0", "G1"]
POINTS = {
    "rc": ["base", "alpha:1", "beta:0", "g2:3/2", "g3:7/3", "alpha:5/2"],
    "ann": ["base", "alpha:1.5", "beta:2", "g2:0.5", "ann:0.5,2", "ann:-1,1.5"],
}
BAD_POINTS = {
    "rc": ["alpha", "alpha:x", "alpha:-1", "g1:1/0", "zz:1", "alpha:nan",
           "alpha:inf", "ann:1,2"],
    "ann": ["alpha", "ann:nan,2", "ann:1", "ann:0,0.5", "g9:1", "alpha:-inf",
            "ann:inf,2", "g2:x", "g2:1e308", "ann:-2e150,2"],
}
# non-finite, unparsable or (for options that must be positive) not positive
BAD_NUMBERS = ["nan", "inf", "-inf", "abc", "", "1e"]
BAD_POSITIVE = BAD_NUMBERS + ["0", "-1", "-0.5"]
BAD_COUNTS = ["0", "-3", "2.5", "x"]
BAD_OUT = "/nonexistent-boundary-lab-dir/out.json"  # a directory that is absent


def strict_json(text):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


class ArgvDraw:
    """Builds one argv, remembering whether a malformed value went in."""

    def __init__(self, draw, command, files):
        self.draw = draw
        self.files = files  # {"good": [...], "bad": [...]} paths for parse
        self.argv = [command]
        self.malformed = draw(st.booleans())  # may draw from the bad pools
        self.bad = False  # did draw from one

    def pick(self, good, bad=()):
        """A value from the strategy ``good``; in a malformed example, one
        in three from ``bad``."""
        if self.malformed and bad and self.draw(st.integers(0, 2)) == 0:
            self.bad = True
            return self.draw(st.sampled_from(list(bad)))
        return self.draw(good)

    def opt(self, flag, good, bad=(), optional=False):
        if optional and not self.draw(st.booleans()):
            return None
        value = self.pick(good, bad)
        self.argv += [flag, value]
        return value

    def space(self, flag="--space", kinds=("rc", "ann")):
        spec = self.opt(
            flag, st.sampled_from([s for s, k in SPACES.items() if k in kinds]),
            BAD_SPACES,
        )
        return SPACES.get(spec, "rc")

    def point(self, flag, kind):
        return self.opt(flag, st.sampled_from(POINTS[kind]), BAD_POINTS[kind])

    def label(self, flag, extra=()):
        return self.opt(flag, st.sampled_from(LABELS + list(extra)), BAD_LABELS)

    def labels(self, flag, size=3):
        good = st.lists(st.sampled_from(LABELS), min_size=1, max_size=size).map(",".join)
        bad = ["alpha,nope", ",", "g1,,g2"]
        return self.opt(flag, good, bad)

    def number(self, flag, lo, hi, positive=True, optional=False):
        good = st.floats(lo, hi, allow_nan=False).map(repr)
        return self.opt(flag, good, BAD_POSITIVE if positive else BAD_NUMBERS,
                        optional)

    def count(self, flag, hi, optional=False):
        return self.opt(flag, st.integers(1, hi).map(str), BAD_COUNTS, optional)

    def seed(self):
        return self.opt("--seed", st.integers(0, 2 ** 31).map(str), ["x", "1.5"])


def _dist(a):
    kind = a.space()
    a.point("--from", kind)
    a.point("--to", kind)


def _gromov(a):
    kind = a.space()
    for flag in ("--x", "--y", "--z"):
        a.point(flag, kind)


def _project(a):
    kind = a.space()
    a.point("--point", kind)
    a.labels("--target", size=2)
    a.number("--horizon", 4, 40, optional=True)
    a.opt("--tol", st.sampled_from(["1e-6", "0.001"]), ["-1", "nan"], optional=True)


def _profile(a):
    a.space()
    a.label("--ray")
    a.count("--n", 20)
    a.seed()
    a.number("--horizon", 4, 40, optional=True)
    a.opt("--jobs", st.just("1"), ["0", "-2", "x"], optional=True)


def _git(a):
    a.space(kinds=("ann",))
    a.label("--ray")
    a.number("--c", 0.5, 5)
    a.count("--n", 6)
    a.seed()


def _escape(a):
    a.space()
    a.label("--alpha")
    a.label("--beta")
    a.number("--c", 0.5, 5)
    a.number("--horizon", 4, 40)


def _claim(a):
    a.space()
    a.label("--eta")
    a.label("--zeta")
    a.number("--c-eta", 0.5, 5)
    a.number("--c-zeta", 0.5, 5)
    a.number("--horizon", 20, 60, optional=True)
    a.seed()


def _basis(a):
    a.space()
    a.label("--eta")
    a.number("--r", 0.5, 4, positive=False)
    a.opt("--seed", st.just("7"), ["x"])


def _bproduct(a):
    a.space()
    a.label("--eta")
    a.label("--zeta", extra=("all",))


def _oracle(a):
    kind = a.space(kinds=("ann",))
    a.point("--from", kind)
    a.point("--to", kind)
    a.number("--h", 0.05, 0.5, optional=True)


def _converge(a):
    a.space()
    a.label("--eta")
    a.labels("--sequence")
    good = st.lists(st.floats(0.5, 4).map(repr), min_size=1, max_size=2).map(",".join)
    a.opt("--radii", good, ["nan", "1,inf", "x", "1,"])


def _continuity(a):
    a.space("--from-space")
    a.space("--to-space")
    a.label("--eta")
    a.labels("--sequence")
    a.number("--r", 0.5, 4, positive=False, optional=True)


def _spiral(a):
    a.space("--from-space", kinds=("ann",))
    a.space("--to-space", kinds=("ann",))
    a.point("--point", "ann")
    a.opt("--direction", st.sampled_from(["forward", "inverse"]), ["sideways"],
          optional=True)


def _parse(a):
    a.opt("--file", st.sampled_from(a.files["good"]), a.files["bad"])
    if a.draw(st.booleans()):
        a.argv.append("--emit-canonical")


def _paper_suite(a):
    a.opt("--criteria", st.just("parser"), ["nope", "", "parser,nope"])
    a.opt("--seed", st.just("7"), ["x"])


COMMANDS = {
    "dist": _dist,
    "gromov": _gromov,
    "project": _project,
    "profile": _profile,
    "git": _git,
    "escape": _escape,
    "claim": _claim,
    "basis": _basis,
    "bproduct": _bproduct,
    "oracle": _oracle,
    "converge": _converge,
    "continuity": _continuity,
    "spiral": _spiral,
    "parse": _parse,
    "paper-suite": _paper_suite,
}


@pytest.fixture(scope="module")
def space_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    binary = root / "binary.space"
    binary.write_bytes(bytes(range(128, 256)))
    fixtures = Path(__file__).parent / "fixtures"
    shipped = Path(boundary_lab.__file__).parent / "spaces"
    return {
        "good": [str(shipped / "X.space"), str(shipped / "Y.space")],
        "bad": [str(root), str(binary), str(root / "missing.space")]
        + sorted(str(p) for p in fixtures.glob("*.space")),
    }


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_cli_contract_under_fuzzed_arguments(capsys, space_files, command):
    @hypothesis.settings(
        max_examples=20, deadline=None, derandomize=True, database=None,
        suppress_health_check=list(hypothesis.HealthCheck),
    )
    @hypothesis.given(st.data())
    def check(data):
        a = ArgvDraw(data.draw, command, space_files)
        COMMANDS[command](a)
        if data.draw(st.booleans()):
            a.argv += ["--format", "json"]
        if a.malformed and data.draw(st.integers(0, 5)) == 0:
            a.bad = True
            a.argv += ["--out", BAD_OUT]
        # help before anything is parsed: top-level at 0, the command's at 1
        help_at = data.draw(st.sampled_from([None] * 8 + [0, 1]))
        if help_at is not None:
            a.argv.insert(help_at, data.draw(st.sampled_from(["-h", "--help"])))
        capsys.readouterr()
        code = main(list(a.argv))
        out = capsys.readouterr().out
        assert code in (0, 1, 2), a.argv
        payload = strict_json(out)
        assert isinstance(payload, dict), a.argv
        if help_at is not None:
            prog = "boundary-lab" if help_at == 0 else f"boundary-lab {command}"
            assert code == 0, a.argv
            assert payload == {"prog": prog, "schema": "help@1"}, a.argv
        elif a.bad:
            assert code == 2, a.argv
        if code == 2:
            assert set(payload) == {"error"}, a.argv

    check()
