"""Jet arithmetic against finite-difference oracles and ring axioms."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ctlab import jets
from ctlab.jets import Jet, JetDomainError, JetError, JetOrderError, table

from oracles import fd_multi


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
