"""Expression DSL for metric, potential and vector-field components.

Grammar (recursive descent, standard precedence)::

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := atom '^' exponent        (right associative)
    atom    := number | name | name '(' expr ')' | '(' expr ')'

Names resolve to chart coordinates; ``pi`` is a literal; the callable
names are exp, log, sin, cos, sinh, cosh, sqrt.  Exponents must be numeric
literals (optionally signed), which keeps evaluation closed over jets.
The parser is whitespace-insensitive and reports byte offsets on errors.

Jets of expressions come from a :class:`Tape`: the expressions compiled
into one list of jet operations in which every unique subtree is one op,
so a subtree shared by several entries (the ``exp(2*(u))`` of a rescaled
metric, a monomial of a random chart) is evaluated once per point.  A
:class:`GeometrySpec` compiles its tape once, over the metric's lower
triangle and then u, f and X; the metric's ops form a prefix, which the
geometry layer evaluates and checks for positive definiteness before it
evaluates the fields.  Each op applies the same :class:`~ctlab.jets.Jet`
operation a walk of its tree would, so the jets are the same bit for bit.
A tape also evaluates a block of points in one sweep, with one column per
point in every jet; a verification pass builds its point states that way
(:func:`ctlab.geometry.point_blocks`), and each column is bit for bit the
jet of its point alone.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import jets
from .jets import Jet, JetDomainError

FUNCTION_NAMES = ("exp", "log", "sin", "cos", "sinh", "cosh", "sqrt")

# Deepest nesting of parentheses, calls, minus signs and exponents: a level
# takes the parser up to six stack frames, far inside the recursion limit.
MAX_DEPTH = 100

# Most nodes on a path from a parsed tree's root to a leaf.  A chain such as
# ``1+1+...+1`` nests no level but parses as a tree as deep as it is long,
# and the tape, ``eval_expr`` and ``pretty`` take a stack frame a level.  A
# chart's rescaling is one level deeper than its metric entries and three
# deeper than its u, so it is refused within three levels of the limit.
MAX_LEVELS = 500


class ParseError(ValueError):
    """Syntax or name-resolution failure, carrying the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalDomainError(ValueError):
    """Evaluation hit a domain guard (outside box, log of <= 0, ...)."""


# ---------------------------------------------------------------------------
# expression tree
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Coord:
    slot: int
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: float


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


Expr = Num | Coord | Neg | Bin | Pow | Call

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if stripped == "":
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        kind = m.lastgroup
        if kind == "num":
            tokens.append(("num", m.group(0).strip(), m.start(kind)))
        else:
            tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, coords: list[str]):
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0
        self.coords = {name: i for i, name in enumerate(coords)}

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, value: str):
        kind, text, off = self.next()
        if text != value:
            raise ParseError(f"expected {value!r}, found {text or 'end'!r}", off)

    def nest(self, off: int, parse):
        """``parse()`` one nesting level deeper, opened at byte ``off``."""
        if self.depth == MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels", off)
        self.depth += 1
        out = parse()
        self.depth -= 1
        return out

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, off = self.peek()
        if kind != "eof":
            raise ParseError(f"trailing input {text!r}", off)
        levels = _levels(e)
        if levels > MAX_LEVELS:
            raise ParseError(f"expression tree {levels} levels deep, past "
                             f"the limit of {MAX_LEVELS}", 0)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            e = Bin(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek()[1] in ("*", "/"):
            op = self.next()[1]
            e = Bin(op, e, self.unary())
        return e

    def unary(self) -> Expr:
        if self.peek()[1] == "-":
            return Neg(self.nest(self.next()[2], self.unary))
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[1] == "^":
            self.next()
            return Pow(base, self.exponent())
        return base

    def exponent(self) -> float:
        sign = 1.0
        if self.peek()[1] == "-":
            self.next()
            sign = -1.0
        if self.peek()[1] == "(":
            val = self.nest(self.next()[2], self.exponent)
            self.expect(")")
        else:
            kind, text, off = self.next()
            if kind != "num":
                raise ParseError("exponent must be a numeric literal", off)
            val = float(text)
        if self.peek()[1] == "^":  # right-associative literal towers
            val = val ** self.nest(self.next()[2], self.exponent)
        return sign * val

    def atom(self) -> Expr:
        kind, text, off = self.next()
        if kind == "num":
            return Num(float(text))
        if text == "(":
            e = self.nest(off, self.expr)
            self.expect(")")
            return e
        if kind == "name":
            if text in FUNCTION_NAMES:
                self.expect("(")
                arg = self.nest(off, self.expr)
                self.expect(")")
                return Call(text, arg)
            if text == "pi":
                return Num(math.pi)
            if text in self.coords:
                return Coord(self.coords[text], text)
            raise ParseError(f"unknown identifier {text!r}", off)
        raise ParseError(f"unexpected token {text or 'end'!r}", off)


def _levels(e: Expr) -> int:
    """Nodes on the longest path from ``e``'s root to a leaf, counted a
    level at a time rather than by recursion."""
    levels, row = 0, [e]
    while row:
        levels += 1
        below = []
        for node in row:
            if type(node) is Bin:
                below += (node.left, node.right)
            elif type(node) is Pow:
                below.append(node.base)
            elif type(node) in (Neg, Call):
                below.append(node.arg)
        row = below
    return levels


def parse_expr(text: str, coords: list[str]) -> Expr:
    """Parse ``text`` over the given coordinate names."""
    if not isinstance(text, str):
        raise ValueError(f"an expression must be a string, got {text!r}")
    return _Parser(text, list(coords)).parse()


# The grammar's levels, loosest first: a sum, a product, a minus sign, a
# power, an atom.  An operand sits at the level its position takes or a
# tighter one, and only a looser one is parenthesised.
_SUM, _PRODUCT, _MINUS, _POWER, _ATOM = range(5)
_OP_LEVEL = {"+": _SUM, "-": _SUM, "*": _PRODUCT, "/": _PRODUCT}


def pretty(e: Expr) -> str:
    """A rendering that parses back to ``e``, for every tree the parser
    accepts, with a parenthesis only where the grammar needs one: a chain
    of one level's operators, such as ``1+1+...+1``, renders flat, and no
    rendering nests deeper than a text that parses to ``e``."""
    return _render(e, _SUM)


def _literal(v: float) -> str:
    """A non-negative number as the tokenizer reads it back."""
    return repr(v) if math.isfinite(v) else "1e999"


def _render(e: Expr, least: int) -> str:
    """``e`` at a position of level ``least`` or tighter."""
    match e:
        case Num(v):
            level, text = _ATOM, _literal(v) if v >= 0 else f"({v!r})"
        case Coord(_, name):
            level, text = _ATOM, name
        case Neg(a):
            level, text = _MINUS, "-" + _render(a, _MINUS)
        case Bin(op, a, b):
            level = _OP_LEVEL[op]
            text = _render(a, level) + op + _render(b, level + 1)
        case Pow(base, r):
            exp = "-" + _literal(-r) if r < 0 else _literal(r)
            level, text = _POWER, f"{_render(base, _ATOM)}^{exp}"
        case Call(fn, a):
            level, text = _ATOM, f"{fn}({_render(a, _SUM)})"
        case _:
            raise TypeError(e)
    return f"({text})" if level < least else text


def eval_expr(e: Expr, point: np.ndarray) -> float:
    """Plain recursive evaluation at a point (no derivatives)."""
    match e:
        case Num(v):
            return v
        case Coord(slot, _):
            return float(point[slot])
        case Neg(a):
            return -eval_expr(a, point)
        case Bin(op, a, b):
            x, y = eval_expr(a, point), eval_expr(b, point)
            if op == "+":
                return x + y
            if op == "-":
                return x - y
            if op == "*":
                return x * y
            if y == 0.0:
                raise EvalDomainError("division by zero")
            return x / y
        case Pow(base, r):
            x = eval_expr(base, point)
            if x <= 0 and not float(r).is_integer():
                raise EvalDomainError(f"fractional power of non-positive {x}")
            return x ** r
        case Call(fn, a):
            x = eval_expr(a, point)
            if fn == "log" and x <= 0:
                raise EvalDomainError(f"log of non-positive {x}")
            if fn == "sqrt" and x <= 0:
                raise EvalDomainError(f"sqrt of non-positive {x}")
            return getattr(math, fn)(x)
    raise TypeError(e)


class Tape:
    """Expressions compiled into one shared list of jet operations.

    Each op is one unique subtree, keyed by its operator and the indices of
    its operands (literals by their exact bits, so ``0.0`` and ``-0.0``
    stay apart), and stored after its operands: the post-order of first
    occurrence, root by root.  Equal subtrees, within one expression or
    across several, are therefore one op, evaluated once per point.  The
    ops the first ``r`` roots need form a prefix, ``ops[:ends[r]]``, so a
    caller can evaluate some roots, check them, and then continue.

    :meth:`evaluate` takes one point or a block of points.  For a block,
    every jet holds one column per point, and each op runs once for all of
    them, doing column by column the arithmetic it does for one point, so
    each column is bit for bit that point's jet.  The value of an op that
    is not a root is dropped after the last op that reads it (``frees``),
    so a block keeps few op values alive at once.

    Ops are tuples: ``("num", value)``, ``("coord", slot)``, ``("neg", a)``,
    ``(op, a, b)`` for ``op`` in ``+ - * /``, ``("pow", a, exponent)`` and
    ``(fn, a)`` for the names in ``FUNCTION_NAMES``, where ``a`` and ``b``
    are op indices.

    Each jet carries its own degree bound (:attr:`~ctlab.jets.Jet.degree`),
    set by the jet arithmetic the ops run.
    """

    __slots__ = ("ops", "roots", "ends", "frees")

    def __init__(self, exprs):
        ops: list[tuple] = []
        index: dict[tuple, int] = {}

        def intern(op: tuple, key: tuple) -> int:
            k = index.get(key)
            if k is None:
                k = index[key] = len(ops)
                ops.append(op)
            return k

        def visit(node: Expr) -> int:
            match node:
                case Num(v):
                    return intern(("num", v), ("num", float(v).hex()))
                case Coord(slot, _):
                    op = ("coord", slot)
                case Neg(a):
                    op = ("neg", visit(a))
                case Bin(o, a, b):
                    op = (o, visit(a), visit(b))
                case Pow(base, r):
                    a = visit(base)
                    return intern(("pow", a, r), ("pow", a, float(r).hex()))
                case Call(fn, a):
                    op = (fn, visit(a))
                case _:
                    raise TypeError(node)
            return intern(op, op)

        roots, ends = [], [0]
        for e in exprs:
            roots.append(visit(e))
            ends.append(len(ops))
        self.ops = tuple(ops)
        self.roots = tuple(roots)
        self.ends = tuple(ends)
        last = {}  # op index -> index of the last op that reads it
        for i, op in enumerate(ops):
            if op[0] not in ("num", "coord"):
                for a in op[1:2] if op[0] == "pow" else op[1:]:
                    last[a] = i
        frees: list[list[int]] = [[] for _ in ops]
        for a in last.keys() - set(roots):
            frees[last[a]].append(a)
        self.frees = tuple(tuple(f) for f in frees)

    def evaluate(self, points: np.ndarray, order: int,
                 values: list[Jet | None] | None = None,
                 upto: int | None = None) -> list[Jet | None]:
        """Jets of the ops at one point (shape ``(dim,)``), or at a block of
        P points (shape ``(P, dim)``) as jets with coefficient arrays of
        shape ``(ncoeff, P)``: the ops the first ``upto`` roots need (all
        roots by default), appended to ``values``, the jets of a prefix
        already evaluated at these points.  Root ``r`` is then
        ``values[roots[r]]``; an op that is no root reads ``None`` once
        the last op that needs it has run."""
        values = [] if values is None else values
        stop = self.ends[len(self.roots) if upto is None else upto]
        x = np.asarray(points, float)
        dim = x.shape[-1]
        block = x.shape[:-1]  # () for one point, (P,) for a block
        try:
            start = len(values)
            for op, free in zip(self.ops[start:stop], self.frees[start:stop]):
                code = op[0]
                if code == "num":
                    v = Jet.lift(np.full(block, op[1]), dim, order)
                elif code == "coord":
                    v = Jet.lift(x[..., op[1]], dim, order, slot=op[1])
                elif code == "neg":
                    v = -values[op[1]]
                elif code == "+":
                    v = values[op[1]] + values[op[2]]
                elif code == "-":
                    v = values[op[1]] - values[op[2]]
                elif code == "*":
                    v = values[op[1]] * values[op[2]]
                elif code == "/":
                    v = values[op[1]] / values[op[2]]
                elif code == "pow":
                    v = jets.power(values[op[1]], op[2])
                else:
                    v = jets.FUNCTIONS[code](values[op[1]])
                values.append(v)
                for a in free:
                    values[a] = None
        except JetDomainError as err:
            raise EvalDomainError(str(err)) from err
        return values


def eval_expr_jet(e: Expr, point: np.ndarray, order: int) -> Jet:
    """Exact jet of the expression at ``point`` to the given order."""
    tape = Tape([e])
    return tape.evaluate(point, order)[tape.roots[0]]


# ---------------------------------------------------------------------------
# geometry specification files
# ---------------------------------------------------------------------------

@dataclass
class GeometrySpec:
    """A chart: coordinates, domain box, metric entries and optional fields.

    Metric entries are expression source strings; the lower triangle is
    required and mirrored, so the parsed matrix is symmetric by
    construction.  ``x_components`` are contravariant (the geometry layer
    lowers the index internally).  ``tape`` compiles the metric's lower
    triangle (row by row), then u, f and the X components, whichever are
    present, so the metric's ops are a prefix of it.  ``rescaled``, the
    chart rescaled by its u field, is compiled at most once, on first use.
    """

    name: str
    dim: int
    coords: list[str]
    domain: list[tuple[float, float]]
    metric: list[list[str]]            # full m x m, mirrored from input
    u: str | None = None
    f: str | None = None
    x_components: list[str] | None = None
    lam: float | None = None
    metric_exprs: list[list[Expr]] = field(default_factory=list, repr=False)
    u_expr: Expr | None = field(default=None, repr=False)
    f_expr: Expr | None = field(default=None, repr=False)
    x_exprs: list[Expr] | None = field(default=None, repr=False)
    tape: Tape = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 2:
            raise ParseError("dim must be at least 2", 0)
        if len(self.coords) != self.dim:
            raise ParseError("coords length must equal dim", 0)
        if len(set(self.coords)) < self.dim:
            raise ParseError(f"coords repeat a name: {self.coords}", 0)
        if len(self.domain) != self.dim:
            raise ParseError("domain length must equal dim", 0)
        for lo, hi in self.domain:
            if not lo < hi:
                raise ParseError(f"empty domain interval [{lo}, {hi}]", 0)
            if not math.isfinite(hi - lo):
                raise ParseError(f"domain interval [{lo}, {hi}] is not finite", 0)
        self.metric = _mirror_metric(self.metric, self.dim, self.coords)
        self.metric_exprs = [
            [parse_expr(t, self.coords) for t in row] for row in self.metric
        ]
        self.u_expr = parse_expr(self.u, self.coords) if self.u is not None else None
        self.f_expr = parse_expr(self.f, self.coords) if self.f is not None else None
        if self.x_components is not None:
            if len(self.x_components) != self.dim:
                raise ParseError("X must have one component per coordinate", 0)
            self.x_exprs = [parse_expr(t, self.coords) for t in self.x_components]
        lower = [row[:i + 1] for i, row in enumerate(self.metric_exprs)]
        fields = [e for e in (self.u_expr, self.f_expr) if e is not None]
        self.tape = Tape([e for row in lower for e in row] + fields
                         + (self.x_exprs or []))

    @cached_property
    def rescaled(self) -> "GeometrySpec":
        """This chart, named with a trailing ``~``, with metric ``exp(2u) g``
        and no u field: the other side of the conformal transformation laws."""
        if self.u is None:
            raise ValueError(f"geometry {self.name!r} has no u field to rescale by")
        return replace(self, name=self.name + "~", u=None,
                       metric=stretched_metric(self.metric, self.u, 2))

    # -- JSON wire format ----------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "name": self.name,
            "dim": self.dim,
            "coords": list(self.coords),
            "domain": [[lo, hi] for lo, hi in self.domain],
            "metric": [list(row) for row in self.metric],
        }
        if self.u is not None:
            doc["u"] = self.u
        if self.f is not None:
            doc["f"] = self.f
        if self.x_components is not None:
            doc["X"] = list(self.x_components)
        if self.lam is not None:
            doc["lambda"] = self.lam
        return json.dumps(doc, indent=2)

    @staticmethod
    def from_json(text: str) -> "GeometrySpec":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("a geometry file must hold one JSON object")
        for key in ("name", "dim", "coords", "domain", "metric"):
            if key not in doc:
                raise ValueError(f"geometry file has no {key!r} field")
        for key, types, what in (("name", (str,), "a string"),
                                 ("dim", (int,), "an integer"),
                                 ("lambda", (int, float), "a number"),
                                 ("X", (list,), "a list of expressions")):
            if doc.get(key) is not None and type(doc[key]) not in types:
                raise ValueError(f"geometry field {key!r} must be {what}, "
                                 f"got {doc[key]!r}")
        dim = doc["dim"]

        def dim_list(x, item) -> bool:
            return (isinstance(x, list) and len(x) == dim
                    and all(item(e) for e in x))

        def number(x) -> bool:
            return type(x) in (int, float)

        for key, item, what in (
                ("coords", lambda c: isinstance(c, str), "strings"),
                ("domain", lambda d: (isinstance(d, list) and len(d) == 2
                                      and all(map(number, d))),
                 "pairs of numbers")):
            if not dim_list(doc[key], item):
                raise ValueError(f"geometry field {key!r} must be {dim} "
                                 f"{what}, got {doc[key]!r}")
        return GeometrySpec(
            name=doc["name"],
            dim=doc["dim"],
            coords=list(doc["coords"]),
            domain=[(float(lo), float(hi)) for lo, hi in doc["domain"]],
            metric=[list(row) for row in doc["metric"]],
            u=doc.get("u"),
            f=doc.get("f"),
            x_components=doc.get("X"),
            lam=doc.get("lambda"),
        )

    def contains(self, point: np.ndarray) -> bool:
        return all(
            lo <= x <= hi for x, (lo, hi) in zip(point, self.domain)
        )


def stretched_metric(metric: list[list[str]], u_text: str,
                     power: int) -> list[list[str]]:
    """The metric entries times ``exp(power*u)``: ``power`` 2 rescales a
    base metric, -2 undoes a rescaling."""
    return [[f"exp({power}*({u_text}))*({e})" if e != "0" else "0"
             for e in row] for row in metric]


def _mirror_metric(rows: list[list[str]], dim: int,
                   coords: list[str]) -> list[list[str]]:
    if len(rows) != dim:
        raise ParseError(f"metric must have {dim} rows", 0)
    full: list[list[str | None]] = [[None] * dim for _ in range(dim)]
    for i, row in enumerate(rows):
        if len(row) not in (i + 1, dim):
            raise ParseError(
                f"metric row {i} must have {i + 1} (lower triangle) or {dim} entries",
                0,
            )
        for j, text in enumerate(row):
            full[i][j] = text
    for i in range(dim):
        for j in range(i + 1, dim):
            if full[i][j] is None:
                full[i][j] = full[j][i]
            # the renderings are equal just when the trees are; the trees'
            # own == takes three stack frames a level, pretty one
            elif full[j][i] not in (None, full[i][j]) and pretty(parse_expr(
                full[i][j], coords
            )) != pretty(parse_expr(full[j][i], coords)):
                raise ParseError(
                    f"metric entries ({i},{j}) and ({j},{i}) are not mirror images", 0
                )
    return [[t for t in row] for row in full]  # type: ignore[misc]
