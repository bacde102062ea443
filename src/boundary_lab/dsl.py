"""Line-oriented description language for ray complexes.

Grammar (one statement per line, ``#`` starts a comment):

    ray <id>
    seg <id> <expr>
    glue <id>:<expr> <id>:<expr>
    base <id>:<expr>
    repeat <var>=<int>..<int> { ... }

Expressions combine integers, the enclosing repeat variables, parentheses
and the operators ``+ - * ^`` (power binds tightest), all evaluated in
exact arithmetic.  Inside a repeat block, identifiers may interpolate the
loop variable as ``{var}`` (e.g. ``g{i}``), which is how indexed families
are spelled.

Diagnostics carry a stable code plus 1-based line/column:
E_SYNTAX, E_UNDECLARED, E_LENGTH_NONPOSITIVE, E_NO_BASEPOINT,
E_DISCONNECTED.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import DisconnectedError, SpaceParseError
from .ray_complex import RAY, SEGMENT, Edge, RayComplex

_TOKEN = re.compile(r"\d+|[A-Za-z_][A-Za-z0-9_{}]*|[-+*^()]|\S")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


# -- expression ASTs ----------------------------------------------------------

@dataclass(frozen=True)
class Expr:
    tokens: tuple[str, ...]
    line: int
    col: int

    def evaluate(self, env: dict[str, int]) -> Fraction:
        parser = _ExprParser(self.tokens, env, self.line, self.col)
        value = parser.parse_sum()
        if parser.pos != len(parser.tokens):
            raise SpaceParseError(
                "E_SYNTAX", f"trailing tokens in expression", self.line, self.col
            )
        return value


class _ExprParser:
    def __init__(self, tokens, env, line, col):
        self.tokens = tokens
        self.env = env
        self.pos = 0
        self.line = line
        self.col = col

    def _fail(self, msg, code="E_SYNTAX"):
        raise SpaceParseError(code, msg, self.line, self.col)

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            self._fail("unexpected end of expression")
        self.pos += 1
        return tok

    def parse_sum(self) -> Fraction:
        value = self.parse_product()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.parse_product()
            value = value + rhs if op == "+" else value - rhs
        return value

    def parse_product(self) -> Fraction:
        value = self.parse_power()
        while self.peek() == "*":
            self.take()
            value = value * self.parse_power()
        return value

    def parse_power(self) -> Fraction:
        base = self.parse_atom()
        if self.peek() == "^":
            self.take()
            expo = self.parse_power()  # right associative
            if expo.denominator != 1 or expo < 0:
                self._fail("exponent must be a nonnegative integer")
            return base ** int(expo)
        return base

    def parse_atom(self) -> Fraction:
        tok = self.take()
        if tok == "-":
            return -self.parse_atom()
        if tok == "(":
            value = self.parse_sum()
            if self.take() != ")":
                self._fail("expected )")
            return value
        if tok.isdigit():
            return Fraction(int(tok))
        if _NAME.match(tok):
            if tok not in self.env:
                self._fail(f"unknown name {tok!r}", code="E_UNDECLARED")
            return Fraction(self.env[tok])
        self._fail(f"unexpected token {tok!r}")


# -- statements ----------------------------------------------------------------

@dataclass(frozen=True)
class RayDecl:
    edge_id: str
    line: int
    col: int


@dataclass(frozen=True)
class SegDecl:
    edge_id: str
    length: Expr
    line: int
    col: int


@dataclass(frozen=True)
class GlueDecl:
    a: tuple[str, Expr]
    b: tuple[str, Expr]
    line: int
    col: int


@dataclass(frozen=True)
class BaseDecl:
    loc: tuple[str, Expr]
    line: int
    col: int


@dataclass(frozen=True)
class RepeatBlock:
    var: str
    lo: int
    hi: int
    body: tuple
    line: int
    col: int


Statement = Union[RayDecl, SegDecl, GlueDecl, BaseDecl, RepeatBlock]


@dataclass(frozen=True)
class SpaceDescription:
    statements: tuple[Statement, ...]


# -- parser ----------------------------------------------------------------------

def parse_space(text: str) -> SpaceDescription:
    lines = text.splitlines()
    pos = 0

    def parse_block(expect_close: bool):
        nonlocal pos
        stmts = []
        while pos < len(lines):
            raw = lines[pos]
            lineno = pos + 1
            pos += 1
            code = raw.split("#", 1)[0].rstrip()
            if not code.strip():
                continue
            words = code.split()
            head = words[0]
            col = code.index(head) + 1
            if head == "}":
                if len(words) != 1:
                    raise SpaceParseError("E_SYNTAX", "stray tokens after }", lineno, col)
                if not expect_close:
                    raise SpaceParseError("E_SYNTAX", "unmatched }", lineno, col)
                return stmts, True
            stmts.append(_parse_statement(head, words, code, lineno, col))
        return stmts, False

    def _parse_statement(head, words, code, lineno, col):
        if head == "ray":
            if len(words) != 2:
                raise SpaceParseError("E_SYNTAX", "usage: ray <id>", lineno, col)
            return RayDecl(_check_id(words[1], lineno, col), lineno, col)
        if head == "seg":
            if len(words) != 3:
                raise SpaceParseError("E_SYNTAX", "usage: seg <id> <expr>", lineno, col)
            return SegDecl(
                _check_id(words[1], lineno, col),
                _expr(words[2], lineno, code.index(words[2]) + 1),
                lineno,
                col,
            )
        if head == "glue":
            if len(words) != 3:
                raise SpaceParseError(
                    "E_SYNTAX", "usage: glue <id>:<expr> <id>:<expr>", lineno, col
                )
            return GlueDecl(
                _location(words[1], lineno, col),
                _location(words[2], lineno, col),
                lineno,
                col,
            )
        if head == "base":
            if len(words) != 2:
                raise SpaceParseError("E_SYNTAX", "usage: base <id>:<expr>", lineno, col)
            return BaseDecl(_location(words[1], lineno, col), lineno, col)
        if head == "repeat":
            m = re.match(
                r"repeat\s+([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(-?\d+)\s*\.\.\s*(-?\d+)\s*\{\s*$",
                code.strip(),
            )
            if not m:
                raise SpaceParseError(
                    "E_SYNTAX", "usage: repeat <var>=<int>..<int> {", lineno, col
                )
            body, closed = parse_block(True)
            if not closed:
                raise SpaceParseError("E_SYNTAX", "repeat block never closed", lineno, col)
            return RepeatBlock(
                m.group(1), int(m.group(2)), int(m.group(3)), tuple(body), lineno, col
            )
        raise SpaceParseError("E_SYNTAX", f"unknown statement {head!r}", lineno, col)

    stmts, _ = parse_block(False)
    return SpaceDescription(tuple(stmts))


def _check_id(word: str, lineno: int, col: int) -> str:
    if not re.match(r"[A-Za-z_][A-Za-z0-9_{}]*\Z", word):
        raise SpaceParseError("E_SYNTAX", f"bad identifier {word!r}", lineno, col)
    return word


def _location(word: str, lineno: int, col: int) -> tuple[str, Expr]:
    if ":" not in word:
        raise SpaceParseError(
            "E_SYNTAX", f"expected <id>:<expr>, got {word!r}", lineno, col
        )
    eid, expr_text = word.split(":", 1)
    return _check_id(eid, lineno, col), _expr(expr_text, lineno, col)


def _expr(text: str, lineno: int, col: int) -> Expr:
    tokens = tuple(_TOKEN.findall(text))
    if not tokens or "".join(tokens) != text.replace(" ", ""):
        raise SpaceParseError("E_SYNTAX", f"cannot tokenize {text!r}", lineno, col)
    return Expr(tokens, lineno, col)


# -- compilation -----------------------------------------------------------------

def _subst_id(template: str, env: dict[str, int], lineno: int, col: int) -> str:
    def repl(m):
        var = m.group(1)
        if var not in env:
            raise SpaceParseError(
                "E_UNDECLARED", f"unknown repeat variable {var!r} in id", lineno, col
            )
        return str(env[var])

    out = re.sub(r"\{([A-Za-z_][A-Za-z0-9_]*)\}", repl, template)
    if "{" in out or "}" in out:
        raise SpaceParseError("E_SYNTAX", f"bad identifier {template!r}", lineno, col)
    return out


def _expand(statements, env, out):
    for st in statements:
        if isinstance(st, RepeatBlock):
            for value in range(st.lo, st.hi + 1):
                inner = dict(env)
                inner[st.var] = value
                _expand(st.body, inner, out)
        else:
            out.append((st, dict(env)))
    return out


def compile_space(desc: SpaceDescription) -> RayComplex:
    """Expand repeats, evaluate expressions, and build the complex."""
    flat = _expand(desc.statements, {}, [])

    edges: dict[str, Edge] = {}
    for st, env in flat:
        if isinstance(st, (RayDecl, SegDecl)):
            eid = _subst_id(st.edge_id, env, st.line, st.col)
            if eid in edges:
                raise SpaceParseError("E_SYNTAX", f"duplicate edge {eid}", st.line, st.col)
            length = st.length.evaluate(env) if isinstance(st, SegDecl) else None
            if length is not None and length <= 0:
                raise SpaceParseError(
                    "E_LENGTH_NONPOSITIVE",
                    f"segment {eid} has length {length}",
                    st.line,
                    st.col,
                )
            edges[eid] = Edge(eid, RAY if length is None else SEGMENT, length)

    def declared(template: str, st, env) -> str:
        eid = _subst_id(template, env, st.line, st.col)
        if eid not in edges:
            raise SpaceParseError("E_UNDECLARED", f"undeclared edge {eid}", st.line, st.col)
        return eid

    gluings = []
    basepoint = None
    for st, env in flat:
        if isinstance(st, GlueDecl):
            gluings.append(tuple(
                (declared(eid, st, env), expr.evaluate(env)) for eid, expr in (st.a, st.b)
            ))
        elif isinstance(st, BaseDecl):
            eid = declared(st.loc[0], st, env)
            if basepoint is not None:
                raise SpaceParseError(
                    "E_SYNTAX", "more than one basepoint", st.line, st.col
                )
            basepoint = (eid, st.loc[1].evaluate(env))
    if basepoint is None:
        raise SpaceParseError("E_NO_BASEPOINT", "no basepoint declared", 0, 0)

    try:
        return RayComplex(edges.values(), gluings, basepoint)
    except DisconnectedError:
        raise SpaceParseError("E_DISCONNECTED", "space is not connected", 0, 0) from None


def serialize_space(complex_: RayComplex) -> str:
    """Canonical flat text; round-trips through parse/compile to an
    identical complex (compare canonical texts)."""
    return complex_.describe()


def load_space(path) -> RayComplex:
    with open(path, "r", encoding="utf-8") as fh:
        return compile_space(parse_space(fh.read()))
