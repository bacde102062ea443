import random
from fractions import Fraction
from importlib.resources import files
from pathlib import Path

import pytest

import boundary_lab as bl
from boundary_lab.dsl import Expr, compile_space, parse_space, serialize_space

FIXTURES = Path(__file__).parent / "fixtures"


def _compile(text):
    return compile_space(parse_space(text))


def test_shipped_X_matches_builder(zoo_x16):
    text = files("boundary_lab").joinpath("spaces/X.space").read_text()
    rc = _compile(text)
    assert rc.describe() == zoo_x16.space.describe()
    assert rc.space_id == zoo_x16.space.space_id


def test_shipped_Y_matches_builder(zoo_y16):
    text = files("boundary_lab").joinpath("spaces/Y.space").read_text()
    rc = _compile(text)
    assert rc.describe() == zoo_y16.space.describe()


@pytest.mark.parametrize(
    "fixture,code",
    [
        ("bad_syntax.space", "E_SYNTAX"),
        ("undeclared.space", "E_UNDECLARED"),
        ("nonpositive.space", "E_LENGTH_NONPOSITIVE"),
        ("no_basepoint.space", "E_NO_BASEPOINT"),
        ("disconnected.space", "E_DISCONNECTED"),
    ],
)
def test_diagnostic_fixtures(fixture, code):
    text = (FIXTURES / fixture).read_text()
    with pytest.raises(bl.SpaceParseError) as err:
        _compile(text)
    assert err.value.code == code


def test_diagnostics_carry_position():
    with pytest.raises(bl.SpaceParseError) as err:
        parse_space("ray a\nseg oops\n")
    assert err.value.code == "E_SYNTAX"
    assert err.value.line == 2


def test_nonpositive_via_expression():
    with pytest.raises(bl.SpaceParseError) as err:
        _compile("ray a\nrepeat i=1..1 {\n seg s{i} 2^i-2*i\n glue s{i}:0 a:0\n}\nbase a:0\n")
    assert err.value.code == "E_LENGTH_NONPOSITIVE"


def test_duplicate_basepoint_rejected():
    with pytest.raises(bl.SpaceParseError) as err:
        _compile("ray a\nbase a:0\nbase a:1\n")
    assert err.value.code == "E_SYNTAX"


def test_duplicate_edge_rejected():
    with pytest.raises(bl.SpaceParseError) as err:
        _compile("ray a\nray a\nbase a:0\n")
    assert err.value.code == "E_SYNTAX"


# (document, code, line, message fragment): one row per diagnostic site
DIAGNOSTICS = [
    # expressions
    ("ray a\nseg s 2)\nglue s:0 a:0\nbase a:0\n", "E_SYNTAX", 2, "trailing tokens"),
    ("ray a\nseg s 2+\nbase a:0\n", "E_SYNTAX", 2, "unexpected end"),
    ("ray a\nseg s 2^(0-1)\nbase a:0\n", "E_SYNTAX", 2, "nonnegative integer"),
    ("ray a\nseg s (2(3)\nbase a:0\n", "E_SYNTAX", 2, "expected \\)"),
    ("ray a\nseg s 2*k\nbase a:0\n", "E_UNDECLARED", 2, "unknown name 'k'"),
    ("ray a\nseg s +2\nbase a:0\n", "E_SYNTAX", 2, "unexpected token '\\+'"),
    # blocks
    ("repeat i=1..2 {\nray a{i}\n} x\n", "E_SYNTAX", 3, "stray tokens"),
    ("ray a\n}\nbase a:0\n", "E_SYNTAX", 2, "unmatched }"),
    ("ray a\nrepeat i=1..2 {\nray b{i}\n", "E_SYNTAX", 2, "never closed"),
    # statements
    ("ray a\nglue a:0\n", "E_SYNTAX", 2, "usage: glue"),
    ("ray a\nbase a:0 a:1\n", "E_SYNTAX", 2, "usage: base"),
    ("ray a\nrepeat i=1 {\n}\n", "E_SYNTAX", 2, "usage: repeat"),
    ("ray a\nbogus a\n", "E_SYNTAX", 2, "unknown statement 'bogus'"),
    ("ray 1a\n", "E_SYNTAX", 1, "bad identifier '1a'"),
    ("ray a{i\nbase a:0\n", "E_SYNTAX", 1, "bad identifier 'a{i'"),
    ("ray a\nglue a1 a:0\n", "E_SYNTAX", 2, "expected <id>:<expr>"),
    ("ray a\nbase a:\n", "E_SYNTAX", 2, "cannot tokenize"),
    # declarations
    ("ray a\nseg a 1\nbase a:0\n", "E_SYNTAX", 2, "duplicate edge a"),
    ("ray a\nray b\nglue a:0 b:0\nbase c:0\n", "E_UNDECLARED", 4, "undeclared edge c"),
    ("ray a\nglue a:0 c:0\nbase a:0\n", "E_UNDECLARED", 2, "undeclared edge c"),
]


@pytest.mark.parametrize("text, code, line, message", DIAGNOSTICS)
def test_each_diagnostic_site_reports_its_code_and_line(text, code, line, message):
    with pytest.raises(bl.SpaceParseError, match=message) as err:
        _compile(text)
    assert (err.value.code, err.value.line) == (code, line)


def test_expression_evaluator_exact():
    env = {}
    for i in (1, 10, 40, 62):
        expr = Expr(tuple(str(t) for t in f"2^{i}".replace("^", " ^ ").split()), 1, 1)
        assert expr.evaluate(env) == Fraction(2) ** i
    e2 = Expr(tuple("2^i-2*i".replace("^", " ^ ").replace("-", " - ").replace("*", " * ").split()), 1, 1)
    assert e2.evaluate({"i": 5}) == 22
    nested = Expr(tuple("( 2 + 3 ) * 4 - 2 ^ 3".split()), 1, 1)
    assert nested.evaluate({}) == 12


def test_repeat_expansion_and_id_interpolation():
    rc = _compile(
        "ray spine\nbase spine:0\n"
        "repeat k=1..3 {\n  seg arm{k} k\n  glue arm{k}:0 spine:k\n}\n"
    )
    assert set(rc.edges) == {"spine", "arm1", "arm2", "arm3"}
    assert rc.edges["arm2"].length == 2


def test_nested_repeat():
    rc = _compile(
        "ray spine\nbase spine:0\n"
        "repeat i=1..2 {\n repeat j=1..2 {\n  seg s{i}{j} i+j\n  glue s{i}{j}:0 spine:i*2+j\n }\n}\n"
    )
    assert set(rc.edges) == {"spine", "s11", "s12", "s21", "s22"}


def test_unknown_repeat_variable():
    with pytest.raises(bl.SpaceParseError) as err:
        _compile("ray a\nseg s{k} 3\nglue s{k}:0 a:0\nbase a:0\n")
    assert err.value.code == "E_UNDECLARED"


def test_roundtrip_shipped(zoo_x16):
    text = serialize_space(zoo_x16.space)
    again = _compile(text)
    assert again.describe() == zoo_x16.space.describe()


def test_roundtrip_random_descriptions():
    from boundary_lab.suite import _random_description

    rng = random.Random(17)
    done = 0
    for _ in range(50):
        desc = _random_description(rng)
        rc = _compile(desc)
        again = _compile(serialize_space(rc))
        assert again.describe() == rc.describe()
        done += 1
    assert done == 50


def test_comments_and_blank_lines():
    rc = _compile("# header\n\nray a  # trailing\n\nbase a:0\n")
    assert set(rc.edges) == {"a"}
