"""Parser, evaluator and geometry-spec wire format."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ctlab.exprlang import (
    MAX_LEVELS,
    Bin,
    Call,
    Coord,
    EvalDomainError,
    GeometrySpec,
    Neg,
    Num,
    ParseError,
    Pow,
    Tape,
    eval_expr,
    eval_expr_jet,
    parse_expr,
    pretty,
)

from oracles import eval_expr_jet_reference, eval_expr_order0, fd_multi


def test_sum_of_squares_tree():
    e = parse_expr("x1^2 + x2^2", ["x1", "x2"])
    assert isinstance(e, Bin) and e.op == "+"
    assert isinstance(e.left, Pow) and e.left.exponent == 2.0
    assert isinstance(e.left.base, Coord)


def test_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse_expr("exp(2*u)", ["x1"])


def test_literal_arithmetic():
    e = parse_expr("4/(1+x1^2+x2^2+x3^2)^2", ["x1", "x2", "x3"])
    assert eval_expr(e, np.zeros(3)) == 4.0


def test_syntax_error_offset():
    with pytest.raises(ParseError) as exc:
        parse_expr("x1 + @", ["x1"])
    assert exc.value.offset == 5


def test_non_literal_exponent():
    with pytest.raises(ParseError, match="exponent"):
        parse_expr("x1^x2", ["x1", "x2"])


def test_precedence_and_associativity():
    coords = ["x1", "x2"]
    p = np.array([2.0, 3.0])
    assert eval_expr(parse_expr("2*x1^2", coords), p) == 8.0
    assert eval_expr(parse_expr("-x1^2", coords), p) == -4.0
    assert eval_expr(parse_expr("2^2^3", coords), p) == 2.0 ** 8
    assert eval_expr(parse_expr("1 - x1 - x2", coords), p) == -4.0
    assert eval_expr(parse_expr("pi", coords), p) == math.pi
    assert eval_expr(parse_expr("x1^-1", coords), p) == 0.5


def test_whitespace_insensitive():
    a = parse_expr("x1 * ( 1 + x2 )", ["x1", "x2"])
    b = parse_expr("x1*(1+x2)", ["x1", "x2"])
    assert a == b


def test_eval_jet_simple():
    e = parse_expr("x1*x2", ["x1", "x2"])
    j = eval_expr_jet(e, np.array([2.0, 3.0]), 2)
    assert j.value == 6.0
    assert j.coefficient((1, 0)) == 3.0
    assert j.coefficient((0, 1)) == 2.0
    assert j.coefficient((1, 1)) == 1.0


def test_eval_jet_domain_error():
    e = parse_expr("sqrt(x1)", ["x1"])
    with pytest.raises(EvalDomainError):
        eval_expr_jet(e, np.array([-1.0]), 2)


def test_eval_jet_against_fd_oracle():
    coords = ["x1", "x2"]
    e = parse_expr("sin(x1)*exp(x2)", coords)
    p = np.array([0.3, 0.1])
    j = eval_expr_jet(e, p, 4)
    fn = lambda y: eval_expr(e, y)
    for alpha in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (2, 1), (0, 3)]:
        assert abs(j.derivative(alpha) - fd_multi(fn, p, alpha)) < 1e-6


# ---------------------------------------------------------------------------
# random round-trip property
# ---------------------------------------------------------------------------

def random_tree(rng, coords, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Num(float(np.round(rng.uniform(0, 3), 3)))
        return Coord(int(rng.integers(len(coords))), coords[int(rng.integers(len(coords)))])

    kind = rng.integers(4)
    if kind == 0:
        from ctlab.exprlang import Neg
        return Neg(random_tree(rng, coords, depth - 1))
    if kind == 1:
        op = "+-*/"[int(rng.integers(4))]
        return Bin(op, random_tree(rng, coords, depth - 1),
                   random_tree(rng, coords, depth - 1))
    if kind == 2:
        return Pow(random_tree(rng, coords, depth - 1),
                   float(rng.integers(0, 4)))
    fn = ["exp", "sin", "cos", "sinh", "cosh"][int(rng.integers(5))]
    return Call(fn, random_tree(rng, coords, depth - 1))


def fix_coord_names(tree, coords):
    # random_tree may mismatch slot/name; rebuild coords consistently
    match tree:
        case Coord(slot, _):
            return Coord(slot, coords[slot])
        case Num(_):
            return tree
        case Bin(op, a, b):
            return Bin(op, fix_coord_names(a, coords), fix_coord_names(b, coords))
        case Pow(a, r):
            return Pow(fix_coord_names(a, coords), r)
        case Call(fn, a):
            return Call(fn, fix_coord_names(a, coords))
    from ctlab.exprlang import Neg
    return Neg(fix_coord_names(tree.arg, coords))


def test_pretty_reparse_round_trip():
    coords = ["x1", "x2", "x3"]
    rng = np.random.default_rng(0)
    for _ in range(50):
        tree = fix_coord_names(random_tree(rng, coords, 4), coords)
        assert parse_expr(pretty(tree), coords) == tree


# seeds where ``eval_expr`` rounds differently from the ring (x**n as
# repeated products, x/y as x*(1/y), amplified by an outer sin, sinh or
# exp), and seeds where it overflows
@given(st.integers(0, 5000))
@example(992)
@example(1419)
@example(1828)
@example(1867)
@example(2220)
@example(3710)
@example(3794)
@example(4273)
@example(1836)
@example(2583)
def test_order_zero_matches_plain_eval(seed):
    coords = ["x1", "x2"]
    rng = np.random.default_rng(seed)
    tree = fix_coord_names(random_tree(rng, coords, 3), coords)
    p = rng.uniform(0.1, 0.9, 2)
    try:
        plain = eval_expr_order0(tree, p)
    except (EvalDomainError, OverflowError):
        with pytest.raises((EvalDomainError, OverflowError)):
            eval_expr_jet(tree, p, 0)
        return
    value = eval_expr_jet(tree, p, 0).value
    assert value == plain or (math.isnan(value) and math.isnan(plain))


# ---------------------------------------------------------------------------
# the tape against the recursive reference walker
# ---------------------------------------------------------------------------

def shared_exprs(rng, coords):
    """Random trees built from a small pool of shared subtrees, some under a
    domain guard (log, sqrt, division, fractional and negative powers),
    some multiplied by 0.0 or -0.0, so that both zero signs occur, and some
    scaled until their jets overflow to inf and NaN or ``exp`` overflows."""
    pool = [fix_coord_names(random_tree(rng, coords, 3), coords)
            for _ in range(3)]
    exprs = []
    for _ in range(5):
        a, b = (pool[int(i)] for i in rng.integers(len(pool), size=2))
        exprs.append([
            Bin("*", a, b),
            Bin("/", a, b),
            Call(["log", "sqrt"][int(rng.integers(2))], a),
            Pow(b, float(rng.choice([-2.0, -1.5, 0.5, 3.0]))),
            Bin("-", Bin("*", a, Num(-0.0)), Bin("*", b, Num(0.0))),
            Neg(Bin("+", a, b)),
            Bin("-", Bin("*", Num(1e308), a), Bin("*", Num(1e308), b)),
            Call("exp", Bin("*", Num(700.0), a)),
        ][int(rng.integers(8))])
    return exprs


def _outcome(fn):
    """The jet's coefficient bytes, or the type and message it raised."""
    try:
        with np.errstate(all="ignore"):
            return fn().coeffs.tobytes()
    except (EvalDomainError, ArithmeticError) as err:
        return type(err), str(err)


@settings(max_examples=150)
@given(st.integers(0, 10**6), st.integers(1, 4), st.integers(0, 6))
def test_tape_matches_reference_walker(seed, dim, order):
    # bit for bit, sign bits of zeros and non-finite entries included; a
    # root past the first failing one must raise what the walker raises
    # for the first failing expression
    coords = [f"x{i + 1}" for i in range(dim)]
    rng = np.random.default_rng(seed)
    exprs = shared_exprs(rng, coords)
    p = rng.uniform(-1.0, 1.0, dim)
    tape = Tape(exprs)
    want = [_outcome(lambda e=e: eval_expr_jet_reference(e, p, order))
            for e in exprs]
    first_error = next((w for w in want if isinstance(w, tuple)), None)
    for r, e in enumerate(exprs):
        assert _outcome(lambda e=e: eval_expr_jet(e, p, order)) == want[r]
        got = _outcome(lambda r=r: tape.evaluate(p, order, upto=r + 1)[
            tape.roots[r]])
        failed = [w for w in want[:r + 1] if isinstance(w, tuple)]
        assert got == (failed[0] if failed else want[r])
    whole = _outcome(lambda: tape.evaluate(p, order)[tape.roots[-1]])
    assert whole == (first_error or want[-1])


def _column_outcomes(fn):
    """Each column's coefficient bytes, or the type and message raised."""
    try:
        with np.errstate(all="ignore"):
            c = fn().coeffs
        return [c[:, j].tobytes() for j in range(c.shape[1])]
    except (EvalDomainError, ArithmeticError) as err:
        return type(err), str(err)


@settings(max_examples=150)
@given(st.integers(0, 10**6), st.integers(1, 4), st.integers(0, 6),
       st.sampled_from([1, 2, 7]))
def test_tape_block_matches_each_point(seed, dim, order, size):
    # each column of a block is bit for bit its point's jet, sign bits of
    # zeros and non-finite entries included; a block whose point raises
    # raises what one of its points raises
    coords = [f"x{i + 1}" for i in range(dim)]
    rng = np.random.default_rng(seed)
    exprs = shared_exprs(rng, coords)
    points = rng.uniform(-1.0, 1.0, (size, dim))
    tape = Tape(exprs)
    for r in range(len(exprs)):
        alone = [_outcome(lambda p=p: tape.evaluate(p, order, upto=r + 1)[
            tape.roots[r]]) for p in points]
        got = _column_outcomes(lambda: tape.evaluate(points, order, upto=r + 1)[
            tape.roots[r]])
        errors = [a for a in alone if isinstance(a, tuple)]
        if errors:
            assert got in errors
        else:
            assert got == alone


def test_tape_drops_op_values_after_their_last_use():
    coords = ["x1", "x2"]
    exprs = [parse_expr(t, coords) for t in ("exp(x1*x2)+x1", "x1*x2")]
    tape = Tape(exprs)
    values = tape.evaluate(np.array([[0.1, 0.2], [0.3, 0.4]]), 3)
    kept = {i for i, v in enumerate(values) if v is not None}
    # the roots stay, and so does x1*x2, which is the second root
    assert kept == set(tape.roots)
    assert values[tape.roots[0]].coeffs.shape == (10, 2)


def test_tape_interns_equal_subtrees_once():
    coords = ["x1", "x2"]
    e2u = "exp(2*(x1*x2))"
    exprs = [parse_expr(t, coords) for t in
             (f"{e2u}*(1+x1)", f"{e2u}*(x2)", "x1*x2", "0.0*x1")]
    tape = Tape(exprs + [Bin("*", Num(-0.0), Coord(0, "x1"))])
    ops = [op[0] for op in tape.ops]
    assert ops.count("exp") == 1
    assert ops.count("coord") == 2
    # the literals 0.0 and -0.0 compare equal but are kept apart
    assert sorted(op[1] for op in tape.ops if op[0] == "num") == \
        [-0.0, 0.0, 1.0, 2.0]
    # the second entry adds one op, x1*x2 none: it is interned inside exp
    assert tape.ends[2:4] == (tape.ends[1] + 1, tape.ends[1] + 1)
    assert tape.roots[2] < tape.ends[1]
    assert tape.ends[-1] == len(tape.ops)


# ---------------------------------------------------------------------------
# GeometrySpec
# ---------------------------------------------------------------------------

def _spec(**kw):
    base = dict(
        name="demo",
        dim=2,
        coords=["x1", "x2"],
        domain=[(-1.0, 1.0), (-1.0, 1.0)],
        metric=[["1"], ["0", "1+x1^2"]],
    )
    base.update(kw)
    return GeometrySpec(**base)


def test_lower_triangle_mirrored():
    s = _spec()
    assert s.metric[0][1] == "0"
    assert s.metric[1][0] == "0"


def test_full_matrix_mirror_mismatch():
    with pytest.raises(ParseError, match="mirror"):
        _spec(metric=[["1", "x1"], ["x2", "1"]])


def test_json_round_trip():
    s = _spec(u="x1*x2", f="x1^2", x_components=["x2", "x1"], lam=0.5)
    doc = json.loads(s.to_json())
    assert doc["metric"][1][1] == "1+x1^2"
    assert doc["lambda"] == 0.5
    s2 = GeometrySpec.from_json(s.to_json())
    assert s2.metric == s.metric
    assert s2.u == s.u and s2.f == s.f and s2.x_components == s.x_components
    assert s2.to_json() == s.to_json()


def test_chain_at_the_level_limit():
    # a flat chain nests no level but parses as a tree as deep as it is
    # long: at the limit the tape, eval_expr, pretty and the mirror check
    # all run, and one term more is refused
    coords = ["x1", "x2"]
    text = "*".join(["x1"] * MAX_LEVELS)
    e = parse_expr(text, coords)
    p = np.array([0.999, 0.0])
    tape = Tape([e])
    assert tape.evaluate(p, 0)[tape.roots[0]].coeffs[0] == eval_expr(e, p)
    assert pretty(e) == "(" * (MAX_LEVELS - 1) + "x1" + "*x1)" * (
        MAX_LEVELS - 1)
    s = _spec(metric=[["1", text], [text.replace("*", " * "), "1"]])
    assert s.metric[0][1] == text
    with pytest.raises(ParseError, match=f"tree {MAX_LEVELS + 1} levels deep"):
        parse_expr(text + "*x2", coords)


def test_bad_dim_rejected():
    with pytest.raises(ParseError):
        _spec(dim=1, coords=["x1"], domain=[(-1, 1)], metric=[["1"]])


def test_x_component_count_checked():
    with pytest.raises(ParseError):
        _spec(x_components=["x1"])
