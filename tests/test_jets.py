"""Jet arithmetic against finite-difference oracles and ring axioms."""

import math
import pathlib
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ctlab
from ctlab import jets
from ctlab.jets import Jet, JetDomainError, JetError, JetOrderError, table

from oracles import eval_expr_jet_reference, fd_multi


def random_jet(dim, order, seed):
    rng = np.random.default_rng(seed)
    return Jet(dim, order, rng.uniform(-1, 1, table(dim, order).size))


# ---------------------------------------------------------------------------
# lifting
# ---------------------------------------------------------------------------

def test_lift_constant():
    j = Jet.lift(3.0, 2, 2)
    assert j.value == 3.0
    assert np.count_nonzero(j.coeffs) == 1


def test_lift_coordinate():
    j = Jet.lift(0.5, 2, 2, slot=0)
    assert j.value == 0.5
    assert j.coefficient((1, 0)) == 1.0
    assert j.coefficient((0, 1)) == 0.0


def test_lift_slot_out_of_range():
    with pytest.raises(JetError):
        Jet.lift(1.0, 2, 2, slot=3)


def test_repr_of_one_jet_and_of_a_block():
    assert repr(Jet.lift(1.5, 2, 3)) == "Jet(dim=2, order=3, value=1.5)"
    block = Jet.lift(np.array([1.5, 2.0, 0.5]), 2, 3, slot=1)
    assert block.coeffs.shape == (10, 3)
    assert repr(block) == "Jet(dim=2, order=3, block of 3)"


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

def test_polynomial_identity():
    x = Jet.lift(0.0, 1, 2, slot=0)
    prod = (1 + x) * (1 - x)
    assert prod.coefficient((0,)) == 1.0
    assert prod.coefficient((1,)) == 0.0
    assert prod.coefficient((2,)) == -1.0


def test_self_division_is_one():
    a = random_jet(3, 4, 1)
    a = a + 2.0  # ensure nonzero constant term
    one = a / a
    expect = np.zeros_like(one.coeffs)
    expect[0] = 1.0
    assert np.abs(one.coeffs - expect).max() < 1e-13


def test_square_of_coordinate():
    # h(x) = x^2 at x = 0.3: value, first and second scaled derivatives
    x = Jet.lift(0.3, 1, 2, slot=0)
    sq = x * x
    assert abs(sq.value - 0.09) < 1e-15
    assert abs(sq.coefficient((1,)) - 0.6) < 1e-15
    assert abs(sq.coefficient((2,)) - 1.0) < 1e-15


def test_division_by_zero_constant_term():
    x = Jet.lift(0.0, 1, 3, slot=0)
    with pytest.raises(JetDomainError):
        (1 + x) / x


def test_order_mismatch_rejected():
    with pytest.raises(JetError):
        Jet.lift(1.0, 2, 3) + Jet.lift(1.0, 2, 2)


# ---------------------------------------------------------------------------
# elementary functions
# ---------------------------------------------------------------------------

def test_exp_series_at_zero():
    x = Jet.lift(0.0, 1, 3, slot=0)
    e = jets.exp(x)
    assert np.abs(e.coeffs - [1, 1, 0.5, 1 / 6]).max() < 1e-15


def test_log_exp_inverse_pair():
    a = random_jet(2, 5, 7) * 0.3 + 0.2
    b = jets.log(jets.exp(a))
    assert np.abs(b.coeffs - a.coeffs).max() < 1e-13


def test_log_domain_guard():
    with pytest.raises(JetDomainError):
        jets.log(Jet.lift(-1.0, 1, 2))
    with pytest.raises(JetDomainError):
        jets.sqrt(Jet.lift(-1.0, 1, 2))


def test_sin_against_finite_differences():
    # coefficients times k! are derivatives of sin at 0.7
    x = Jet.lift(0.7, 1, 4, slot=0)
    s = jets.sin(x)
    for k in range(5):
        oracle = fd_multi(lambda y: math.sin(y[0]), [0.7], (k,), h=2e-2)
        assert abs(s.derivative((k,)) - oracle) < 1e-7


def test_sqrt_pow_consistency():
    a = random_jet(2, 4, 3) * 0.2 + 1.5
    assert np.abs(jets.sqrt(a).coeffs - jets.power(a, 0.5).coeffs).max() < 1e-14
    sq = jets.sqrt(a)
    assert np.abs((sq * sq).coeffs - a.coeffs).max() < 1e-13


def test_integer_power_negative_base():
    a = random_jet(2, 3, 5) - 2.0  # negative constant term is fine
    assert a.value < 0
    cube = jets.power(a, 3)
    assert np.abs(cube.coeffs - (a * a * a).coeffs).max() < 1e-13


# ---------------------------------------------------------------------------
# expression-level FD oracle across many points
# ---------------------------------------------------------------------------

def test_jet_coefficients_match_finite_differences():
    from ctlab.exprlang import eval_expr, eval_expr_jet, parse_expr

    coords = ["x1", "x2"]
    expr = parse_expr("sin(x1)*exp(x2) + x1^2*x2", coords)
    fn = lambda y: eval_expr(expr, y)
    rng = np.random.default_rng(12)
    pts = rng.uniform(-0.8, 0.8, size=(100, 2))
    t = table(2, 3)
    for p in pts[:12]:
        jet = eval_expr_jet(expr, p, 3)
        for k, alpha in enumerate(map(tuple, t.alphas)):
            if sum(alpha) > 2:
                continue
            oracle = fd_multi(fn, p, alpha, h=1e-2)
            assert abs(jet.derivative(alpha) - oracle) < 1e-6
    # order-0 agreement on the full 100-point grid
    for p in pts:
        assert abs(eval_expr_jet(expr, p, 0).value - fn(p)) < 1e-15


# ---------------------------------------------------------------------------
# ring axioms and the Leibniz convolution, property-based
# ---------------------------------------------------------------------------

@given(st.integers(0, 10_000), st.integers(2, 3), st.integers(2, 4))
def test_ring_axioms(seed, dim, order):
    a = random_jet(dim, order, seed)
    b = random_jet(dim, order, seed + 1)
    c = random_jet(dim, order, seed + 2)
    assert np.abs((a + b).coeffs - (b + a).coeffs).max() < 1e-13
    assert np.abs((a * b).coeffs - (b * a).coeffs).max() < 1e-13
    assert np.abs(((a * b) * c).coeffs - (a * (b * c)).coeffs).max() < 1e-13
    assert np.abs(((a + b) * c).coeffs - (a * c + b * c).coeffs).max() < 1e-13


@given(st.integers(0, 10_000))
def test_leibniz_convolution_oracle(seed):
    # product coefficients equal the dictionary convolution exactly
    dim, order = 3, 3
    a = random_jet(dim, order, seed)
    b = random_jet(dim, order, seed + 1)
    t = table(dim, order)
    ref = {}
    for i, ai in enumerate(map(tuple, t.alphas)):
        for j, aj in enumerate(map(tuple, t.alphas)):
            out = tuple(x + y for x, y in zip(ai, aj))
            if sum(out) <= order:
                ref[out] = ref.get(out, 0.0) + a.coeffs[i] * b.coeffs[j]
    prod = (a * b).coeffs
    for out, val in ref.items():
        assert abs(prod[t.index[out]] - val) < 1e-15


# ---------------------------------------------------------------------------
# degree-bounded products against the dense Cauchy product
# ---------------------------------------------------------------------------

class DenseJet(Jet):
    """A jet whose every product runs the full Cauchy convolution over the
    table's pair list, as if no coefficient were known to be zero."""

    __slots__ = ()

    def _like(self, coeffs, degree):
        return DenseJet(self.dim, self.order, coeffs)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self._like(self.coeffs * float(other), self.order)
        o = self._coerce(other)
        t = table(self.dim, self.order)
        return self._like(np.add.reduceat(
            self.coeffs.take(t.mul_i, axis=0) * o.coeffs.take(t.mul_j, axis=0),
            t.seg_starts), self.order)

    __rmul__ = __mul__


def dense_lift(value, dim, order, slot=None):
    return DenseJet(dim, order, Jet.lift(value, dim, order, slot).coeffs)


def subtrees(e):
    """Every node of expression ``e``, children first."""
    from ctlab.exprlang import Bin, Call, Neg, Pow
    match e:
        case Bin(_, a, b):
            return subtrees(a) + subtrees(b) + [e]
        case Neg(a) | Pow(a, _) | Call(_, a):
            return subtrees(a) + [e]
    return [e]


@st.composite
def polynomial_text(draw, dim):
    """A polynomial of degree <= 4 written as the random charts write
    theirs: a sum of constants times monomials in the coordinates."""
    terms = draw(st.lists(st.tuples(
        st.integers(-8, 8), st.lists(st.integers(1, dim), max_size=4)),
        min_size=1, max_size=5))
    return " + ".join(
        f"({k / 4!r})" + "".join(
            f"*x{v}" + (f"^{mono.count(v)}" if mono.count(v) > 1 else "")
            for v in sorted(set(mono)))
        for k, mono in terms)


# the polynomial p itself, then p wrapped so that every domain guard holds
WRAPS = ("{p}", "exp({p})", "log(({p})*({p}) + 1)",
         "({q})/(({p})*({p}) + 1)", "(({p})*({p}) + 1)^0.5",
         "(({p})*({p}) + 1)^(-1.5)")


@given(st.data(), st.integers(2, 5), st.integers(0, 6), st.sampled_from(WRAPS),
       st.integers(0, 10_000))
def test_degree_bound_is_sound(data, dim, order, wrap, seed):
    """Every value of a tape is zero above its degree, and each root is the
    dense Cauchy product's within 1e-14 relative.  A pure polynomial is the
    dense one bit for bit but for the sign of a zero: each of its products
    has a constant or a coordinate as a factor, so every coefficient sums
    at most two non-zero terms, which dropping zero terms cannot
    re-associate, and a coefficient above the degree is written as +0.0
    where the dense sum of zero terms may give -0.0."""
    from ctlab.exprlang import Tape, parse_expr

    coords = [f"x{v}" for v in range(1, dim + 1)]
    text = wrap.format(p=data.draw(polynomial_text(dim)),
                       q=data.draw(polynomial_text(dim)))
    e = parse_expr(text, coords)
    point = np.random.default_rng(seed).uniform(-1, 1, dim)
    nodes = subtrees(e)
    tape = Tape(nodes)
    values = tape.evaluate(point, order)
    t = table(dim, order)
    for v in values:
        assert 0 <= v.degree <= order
        assert not v.coeffs[t.size_by_order[v.degree]:].any()
    got = values[tape.roots[-1]].coeffs
    ref = eval_expr_jet_reference(e, point, order, lift=dense_lift).coeffs
    if wrap == "{p}":
        assert np.array_equal(got, ref)
    else:
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_degrees_of_lifts_sums_and_products():
    x, y = (Jet.lift(0.5, 3, 4, slot=v) for v in (0, 1))
    c = Jet.lift(2.0, 3, 4)
    assert (c.degree, x.degree, Jet.lift(0.5, 3, 0, slot=0).degree) == (0, 1, 0)
    assert ((x + c).degree, (x - c).degree, (-x).degree, (x * 3.0).degree,
            (x / 2.0).degree) == (1, 1, 1, 1, 1)
    assert ((x * y).degree, (x * y * x).degree,
            (x * y * x * y * x).degree) == (2, 3, 4)
    assert Jet(3, 4, x.coeffs).degree == 4  # built without one: dense
    assert jets.exp(c).degree == 0 and jets.exp(x).degree == 4


@pytest.mark.parametrize("order", range(7))
def test_degrees_of_the_tape_ops(order):
    # each kind of op a chart's tape runs, as its root jet gets it: a
    # division, a function, a negative or fractional power is dense unless
    # its operand is a constant, and every degree is capped at the order
    from ctlab.exprlang import Tape, parse_expr

    cases = {"3*x1*x2^2": 3, "x1/2": 1, "x1/x2": math.inf, "exp(1)*x1": 1,
             "exp(x1)": math.inf, "x1^-1": math.inf, "2^-2": 0, "x1^0": 0,
             "(x1+x2)^1": 1, "sqrt(x1)": math.inf}
    tape = Tape([parse_expr(t, ["x1", "x2"]) for t in cases])
    values = tape.evaluate(np.array([0.5, 0.7]), order)
    assert [values[r].degree for r in tape.roots] == [
        min(d, order) for d in cases.values()]


def test_partial_derivative_map():
    from ctlab.jets import jet_partial
    a = random_jet(2, 4, 9)
    da = jet_partial(a.coeffs, 0, 2, 4)
    jd = Jet(2, 3, da)
    # d/dx of the jet agrees with shifting multi-indices
    assert abs(jd.derivative((1, 1)) - a.derivative((2, 1))) < 1e-13


def test_order_guards():
    with pytest.raises(JetOrderError):
        table(2, 9)
    with pytest.raises(JetOrderError):
        from ctlab.jets import JetConfig
        JetConfig(order=9)
    with pytest.raises(JetOrderError):
        from ctlab.jets import jet_partial
        jet_partial(np.ones(1), 0, 2, 0)


def test_index_beyond_order_raises_jet_order_error():
    jet = random_jet(2, 3, 4)
    for read in (jet.coefficient, jet.derivative):
        with pytest.raises(JetOrderError,
                           match=r"^multi-index \(4, 0\) beyond order 3$"):
            read((4, 0))
    assert jet.derivative((2, 1)) == 2.0 * jet.coefficient((2, 1))


# ---------------------------------------------------------------------------
# the GEMM kernel against the gather / einsum / reduceat kernel it replaced
# ---------------------------------------------------------------------------

# the chunk kernels on one point's arrays, as a chunk of one

def einsum1(spec, a, b, dim, order_a, order_b):
    return jets.jet_einsum(spec, a[None], b[None], dim, order_a, order_b)[0]


def gradient1(a, dim, order):
    return jets.jet_gradient(a[None], dim, order)[0]


def cov_deriv1(a, gamma, dim, order):
    return jets.jet_cov_deriv(a[None], gamma[None], dim, order)[0]


def inverse1(g, dim, order):
    return jets.jet_inverse(g[None], dim, order)[0]


def reference_einsum(spec, a, b, dim, order_a, order_b):
    """The convolution as it was computed before the padded GEMM: gather
    both operands per coefficient triple, multiply and contract per triple,
    then sum each output coefficient's triples."""
    q = min(order_a, order_b)
    t = table(dim, q)
    n = t.size
    lhs, out = spec.split("->")
    sa, sb = lhs.split(",")
    prod = np.einsum(f"p{sa},p{sb}->p{out}", a[:n][t.mul_i], b[:n][t.mul_j])
    return np.add.reduceat(prod, t.seg_starts, axis=0)


def tj_einsum_sites():
    """The number of ``tj_einsum`` calls in ctlab and the spec string
    literals at them."""
    calls, literal = 0, []
    for path in sorted(pathlib.Path(ctlab.__file__).parent.glob("*.py")):
        text = path.read_text()
        calls += len(re.findall(r"(?<!def )\btj_einsum\(", text))
        literal += re.findall(r'\btj_einsum\(\s*"([^"]*)"', text)
    return calls, literal


def slot_specs(rank):
    """The spec of each slot's connection term in a covariant derivative of
    a rank-``rank`` tensor, as ``jets.jet_cov_deriv`` builds it."""
    sub = "abcdefg"[:rank]
    return [f"y{sub[s]}z,{sub[:s]}y{sub[s + 1:]}->{sub}z" for s in range(rank)]


# every spec ctlab passes to ``tj_einsum``, plus the covariant-derivative
# slot specs up to rank 6
KERNEL_SPECS = sorted(set(tj_einsum_sites()[1])) + [
    spec for rank in range(7) for spec in slot_specs(rank)]
KERNEL_BUDGET = 2_000_000  # elements of the reference's per-triple product
KERNEL_RTOL = 1e-13


def kernel_cases():
    for spec in KERNEL_SPECS:
        lhs, _ = spec.split("->")
        sa, sb = lhs.split(",")
        for dim in range(1, 7):
            for order in range(9):
                triples = len(table(dim, order).mul_i)
                if triples * dim ** len(set(sa + sb)) <= KERNEL_BUDGET:
                    yield spec, dim, order


def kernel_operands(spec, dim, order, seed):
    lhs, _ = spec.split("->")
    sa, sb = lhs.split(",")
    rng = np.random.default_rng(seed)
    # b carries one order more than the product can use, as truncated
    # operands do in the geometry layer
    a = rng.standard_normal((table(dim, order).size,) + (dim,) * len(sa))
    b = rng.standard_normal((table(dim, min(order + 1, jets.MAX_ORDER)).size,)
                            + (dim,) * len(sb))
    return a, b


def test_kernel_specs_see_every_tj_einsum_call_site():
    calls, literal = tj_einsum_sites()
    assert literal
    assert calls == len(literal), "a tj_einsum spec this test cannot see"


def test_kernel_specs_cover_every_size():
    cases = list(kernel_cases())
    assert "skj,sil->ijkl" in KERNEL_SPECS  # the Riemann build's product
    assert "yaz,ybcdef->abcdefz" in KERNEL_SPECS
    for spec in KERNEL_SPECS:
        assert {(d, o) for s, d, o in cases if s == spec} >= {
            (d, o) for d in range(1, 4) for o in range(5)}, spec
    assert {d for _, d, _ in cases} == set(range(1, 7))
    assert {o for _, _, o in cases} == set(range(9))


def test_gemm_kernel_matches_reference():
    for k, (spec, dim, order) in enumerate(kernel_cases()):
        a, b = kernel_operands(spec, dim, order, k)
        want = reference_einsum(spec, a, b, dim, order, order + 1)
        got = einsum1(spec, a, b, dim, order, order + 1)
        assert got.shape == want.shape, (spec, dim, order)
        err = np.abs(got - want).max()
        assert err <= KERNEL_RTOL * np.abs(want).max(), (spec, dim, order, err)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_gemm_kernel_propagates_non_finite_like_reference(bad):
    rng = np.random.default_rng(3)
    for spec in KERNEL_SPECS:
        for dim, order in ((2, 3), (3, 2)):
            a, b = kernel_operands(spec, dim, order, 0)
            n = table(dim, order).size
            # row 0 pairs with every output coefficient
            for x, row in ((a, 0), (b, 0), (a, rng.integers(n)),
                           (b, rng.integers(n))):
                spot = (row,) + tuple(rng.integers(dim, size=x.ndim - 1))
                saved = x[spot]
                x[spot] = bad
                with np.errstate(invalid="ignore"):
                    want = reference_einsum(spec, a, b, dim, order, order + 1)
                    got = einsum1(spec, a, b, dim, order, order + 1)
                x[spot] = saved
                assert not np.isfinite(want).all(), spec
                for mask in (np.isnan, np.isposinf, np.isneginf):
                    assert (mask(got) == mask(want)).all(), (spec, spot)
                fin = np.isfinite(want)
                assert np.abs(got[fin] - want[fin]).max(initial=0.0) <= (
                    KERNEL_RTOL * np.abs(want[fin]).max(initial=1.0))


def test_gemm_kernel_output_orders_and_bad_specs():
    dim, order = 3, 4
    for spec in ("ab,bc->ca", "a,b->ba", "ab,->ba", "abc,dc->bda"):
        a, b = kernel_operands(spec, dim, order, 1)
        want = reference_einsum(spec, a, b, dim, order, order)
        got = einsum1(spec, a, b, dim, order, order)
        assert np.abs(got - want).max() <= KERNEL_RTOL * np.abs(want).max()
    for spec in ("ii,i->i", "ab,b->", "a,b->ac", "ia,ja->ija"):
        a, b = kernel_operands(spec, dim, order, 1)
        with pytest.raises(ValueError, match="jet_einsum spec"):
            einsum1(spec, a, b, dim, order, order)


# ---------------------------------------------------------------------------
# the gradient and covariant-derivative kernels against the per-variable
# partials and the per-slot jet_einsum they replace
# ---------------------------------------------------------------------------

DERIV_BUDGET = 200_000  # elements of a rank-r operand times its rank + 1


def deriv_cases():
    for dim in range(1, 7):
        for order in range(1, 9):
            for rank in range(7):
                size = table(dim, order).size * dim ** rank
                if size * (rank + 1) <= DERIV_BUDGET:
                    yield dim, order, rank


def stacked_partials(a, dim, order):
    return np.stack([jets.jet_partial(a, v, dim, order) for v in range(dim)],
                    axis=-1)


def reference_cov_deriv(a, gamma, dim, order):
    """The covariant derivative as the geometry layer took it before: the
    stacked partials minus one ``jet_einsum`` per slot."""
    out = stacked_partials(a, dim, order)
    q = order - 1
    n = table(dim, q).size
    for spec in slot_specs(a.ndim - 1):
        out -= einsum1(spec, gamma[:n], a[:n], dim, q, q)
    return out


def deriv_operands(dim, order, rank, seed):
    """A rank-``rank`` jet of order ``order`` and a Christoffel jet of
    order ``order - 1`` or, as a point's Gamma is for a truncated tensor,
    of one order more."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((table(dim, order).size,) + (dim,) * rank)
    gam_order = order - 1 + seed % 2
    gamma = rng.standard_normal((table(dim, gam_order).size,) + (dim,) * 3)
    return a, gamma


def test_derivative_kernel_cases_cover_every_size():
    cases = list(deriv_cases())
    assert {d for d, _, _ in cases} == set(range(1, 7))
    assert {o for _, o, _ in cases} == set(range(1, 9))
    assert {r for _, _, r in cases} == set(range(7))
    assert {(d, o, r) for d in range(1, 4) for o in range(1, 5)
            for r in range(4)} <= set(cases)


def test_gradient_is_the_stacked_partials():
    for k, (dim, order, rank) in enumerate(deriv_cases()):
        a, _ = deriv_operands(dim, order, rank, k)
        got = gradient1(a, dim, order)
        assert np.array_equal(got, stacked_partials(a, dim, order)), (
            dim, order, rank)
        assert got.flags.c_contiguous


def test_cov_deriv_kernel_is_partials_minus_slot_einsums():
    for k, (dim, order, rank) in enumerate(deriv_cases()):
        a, gamma = deriv_operands(dim, order, rank, k)
        got = cov_deriv1(a, gamma, dim, order)
        assert np.array_equal(got, reference_cov_deriv(a, gamma, dim, order)), (
            dim, order, rank)
        assert got.flags.c_contiguous


def test_cov_deriv_kernel_on_strided_operands():
    # the geometry layer differentiates transposed views as they come
    a, gamma = deriv_operands(3, 4, 3, 1)
    a = a.transpose(0, 3, 1, 2)
    gamma = gamma.transpose(0, 1, 3, 2)
    assert np.array_equal(cov_deriv1(a, gamma, 3, 4),
                          reference_cov_deriv(a, gamma, 3, 4))
    assert np.array_equal(gradient1(a, 3, 4),
                          stacked_partials(a, 3, 4))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_derivative_kernels_propagate_non_finite_like_reference(bad):
    rng = np.random.default_rng(4)
    for dim, order, rank in ((2, 3, 2), (3, 2, 1), (3, 3, 0)):
        a, gamma = deriv_operands(dim, order, rank, dim)
        # row 0 of ``a`` reaches no partial but pairs with every product;
        # the rows of gamma past order - 1 are never read
        read = (table(dim, order - 1).size,) + gamma.shape[1:]
        spots = [(a, (0,) + (0,) * rank)] + [
            (x, tuple(rng.integers(s) for s in shape))
            for x, shape in ((a, a.shape), (a, a.shape), (gamma, read),
                             (gamma, read))]
        for x, spot in spots:
            saved = x[spot]
            x[spot] = bad
            with np.errstate(invalid="ignore"):
                pairs = [(gradient1(a, dim, order),
                          stacked_partials(a, dim, order)),
                         (cov_deriv1(a, gamma, dim, order),
                          reference_cov_deriv(a, gamma, dim, order))]
            x[spot] = saved
            for got, want in pairs:
                assert np.array_equal(got, want, equal_nan=True), (dim, spot)
            if rank and (x is gamma or spot[0] == 0):
                assert not np.isfinite(pairs[1][1]).all(), (dim, spot)


def test_derivative_kernels_refuse_order_zero():
    a = np.ones((1, 3, 3))
    gamma = np.ones((1, 3, 3, 3))
    with pytest.raises(JetOrderError, match="jet order exhausted"):
        jets.jet_gradient(a, 3, 0)
    with pytest.raises(JetOrderError, match="jet order exhausted"):
        jets.jet_cov_deriv(a, gamma, 3, 0)


# ---------------------------------------------------------------------------
# jet-ring inverse (graded recurrence)
# ---------------------------------------------------------------------------

def spd_metric_jet(dim, order, seed):
    """A symmetric matrix jet whose constant term is positive definite and
    whose degree-d coefficients shrink like 2^-d, as a chart's do inside
    its radius of convergence."""
    t = table(dim, order)
    rng = np.random.default_rng(seed)
    a = rng.uniform(-0.5, 0.5, (t.size, dim, dim))
    g = (a + a.swapaxes(-1, -2)) * 0.5 ** t.degree[:, None, None]
    g[0] = a[0] @ a[0].T + np.eye(dim)
    return g


@given(st.integers(0, 10_000), st.integers(1, 5), st.integers(0, 8))
def test_inverse_times_metric_is_the_identity_jet(seed, dim, order):
    g = spd_metric_jet(dim, order, seed)
    y = inverse1(g, dim, order)
    for spec, a, b in (("ab,bc->ac", g, y), ("ab,bc->ac", y, g)):
        prod = einsum1(spec, a, b, dim, order, order)
        prod[0] -= np.eye(dim)
        assert np.abs(prod).max() < 1e-13, (dim, order)


def test_inverse_is_truncation_exact():
    # each degree's GEMM has the same rows, pairs and width at every order
    # that carries it, so a lower order is a prefix bit for bit
    for dim in range(1, 6):
        for order in range(9):
            g = spd_metric_jet(dim, order, 10 * dim + order)
            y = inverse1(g, dim, order)
            for low in range(order):
                n = table(dim, low).size
                assert np.array_equal(y[:n], inverse1(g[:n], dim, low))


# ---------------------------------------------------------------------------
# chunks of points
# ---------------------------------------------------------------------------

def test_chunk_kernels_are_chunks_of_one_bit_for_bit():
    # every point of a chunk gets the GEMMs it runs alone, so its jets are
    # those of a chunk of one, bit for bit
    rng = np.random.default_rng(7)
    for dim, order in ((3, 4), (4, 3), (5, 2)):
        for size in (2, 7):
            n = table(dim, order).size
            for spec in ("iks,slj->ijkl", "ab,b->a", ",ab->ab", "kl,ikjl->ij",
                         "k,ij->ijk", "jl,jl->"):
                lhs, _ = spec.split("->")
                sa, sb = lhs.split(",")
                a = rng.standard_normal((size, n) + (dim,) * len(sa))
                b = rng.standard_normal((size, n) + (dim,) * len(sb))
                got = jets.jet_einsum(spec, a, b, dim, order, order)
                for j in range(size):
                    assert np.array_equal(got[j], einsum1(
                        spec, a[j], b[j], dim, order, order)), (spec, j)
            gamma = rng.standard_normal((size, n, dim, dim, dim))
            for rank in range(4):
                a = rng.standard_normal((size, n) + (dim,) * rank)
                grad = jets.jet_gradient(a, dim, order)
                cov = jets.jet_cov_deriv(a, gamma, dim, order)
                for j in range(size):
                    assert np.array_equal(grad[j], gradient1(a[j], dim, order))
                    assert np.array_equal(cov[j], cov_deriv1(a[j], gamma[j],
                                                             dim, order))
            g = np.stack([spd_metric_jet(dim, order, 100 * size + j)
                          for j in range(size)])
            y = jets.jet_inverse(g, dim, order)
            for j in range(size):
                assert np.array_equal(y[j], inverse1(g[j], dim, order))


# ---------------------------------------------------------------------------
# antisymmetric pairs stored packed: the 2-form slots of Riemann-type jets
# ---------------------------------------------------------------------------

PAIR_BUDGET = 500_000  # elements of the unpacked rank-r operand
PAIR_RTOL = 1e-13


def pair_cases():
    for dim in range(3, 6):
        for rank in range(4, 8):
            for order in range(1, 5):
                if table(dim, order).size * dim ** rank <= PAIR_BUDGET:
                    yield dim, order, rank


def pair_operands(dim, order, rank, seed, points=1):
    """A chunk's rank-``rank`` jet antisymmetric in its slots (01) and
    (23), unpacked, and a Christoffel jet of order ``order - 1`` or one
    more."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((points, table(dim, order).size) + (dim,) * rank)
    a = a - a.swapaxes(2, 3)
    a = a - a.swapaxes(4, 5)
    gamma = rng.standard_normal(
        (points, table(dim, order - 1 + seed % 2).size) + (dim,) * 3)
    return a, gamma


def packed_cov_deriv(a, gamma, dim, order, lift_order):
    lift = jets.jet_pair_lift(gamma, dim, lift_order)
    return jets.jet_cov_deriv(jets.pack_pairs(a, 2, dim), gamma, dim, order,
                              2, lift)


def test_pair_cases_cover_every_rank_and_dim():
    cases = list(pair_cases())
    assert {(d, r) for d, _, r in cases} == {
        (d, r) for d in range(3, 6) for r in range(4, 8)}
    assert {o for _, o, _ in cases} == set(range(1, 5))


def test_pack_and_unpack_pairs_are_inverse():
    for dim in range(2, 7):
        pairs, index, sign = jets.pair_maps(dim)
        assert len(pairs) == dim * (dim - 1) // 2
        assert (pairs[:, 0] < pairs[:, 1]).all()
        assert np.array_equal(index[pairs[:, 0], pairs[:, 1]],
                              np.arange(len(pairs)))
        a, _ = pair_operands(dim, 1, 5, dim, points=2)
        packed = jets.pack_pairs(a, 2, dim)
        assert packed.shape == (2, dim + 1, len(pairs), len(pairs), dim)
        assert np.array_equal(jets.unpack_pairs(packed, 2, dim), a)
        assert np.array_equal(jets.pack_pairs(jets.unpack_pairs(
            packed, 2, dim), 2, dim), packed)
        assert jets.unpack_pairs(a, 0, dim) is a


def test_packed_cov_deriv_is_the_unpacked_one_packed():
    # one GEMM per pair slot against the lift sums what the two slots'
    # Christoffel terms sum, in another order
    for k, (dim, order, rank) in enumerate(pair_cases()):
        a, gamma = pair_operands(dim, order, rank, k)
        want = jets.pack_pairs(jets.jet_cov_deriv(a, gamma, dim, order), 2,
                               dim)
        got = packed_cov_deriv(a, gamma, dim, order, order - 1 + k % 2)
        assert got.shape == want.shape, (dim, order, rank)
        assert got.flags.c_contiguous
        err = np.abs(got - want).max()
        assert err <= PAIR_RTOL * np.abs(want).max(), (dim, order, rank, err)


def test_packed_cov_deriv_chunks_are_chunks_of_one_bit_for_bit():
    for k, (dim, order, rank) in enumerate(pair_cases()):
        if rank > 5:
            continue
        a, gamma = pair_operands(dim, order, rank, k, points=3)
        lift = jets.jet_pair_lift(gamma, dim, order - 1)
        got = packed_cov_deriv(a, gamma, dim, order, order - 1)
        for j in range(len(a)):
            one = slice(j, j + 1)
            assert np.array_equal(lift[one], jets.jet_pair_lift(
                gamma[one], dim, order - 1))
            assert np.array_equal(got[one], packed_cov_deriv(
                a[one], gamma[one], dim, order, order - 1)), (dim, order, j)
