"""Independent numerical oracles for the test suite.

Everything here but the reference expression walkers and the soliton
presentations avoids the jet engine on purpose: derivatives come from central finite differences, flows from
explicit RK4 integration.  These are the second opinions the exact
machinery is checked against.  ``eval_expr_jet_reference`` is the tree
walker the expression tape replaced: the same jet operation per node, with
no node shared, so the tape must match it bit for bit.
``eval_expr_order0`` is the ring's order-0 arithmetic in plain floats.
The soliton presentations at the end read a point's frame values from its
``CurvatureBundle`` and recombine them in plain numpy: they equal the
bundle's D and D^{u,f} only on an actual soliton structure.
"""

import numpy as np


def eval_expr_jet_reference(e, point, order: int, lift=None):
    """Jet of expression ``e`` at ``point``, walking the tree recursively and
    evaluating every node where it occurs.  ``lift`` makes the leaves, with
    the signature of ``Jet.lift`` (the default); every other node is the
    leaves' own arithmetic."""
    from ctlab import jets
    from ctlab.exprlang import (Bin, Call, Coord, EvalDomainError, Neg, Num,
                                Pow)
    from ctlab.jets import Jet, JetDomainError

    dim = len(point)
    lift = lift or Jet.lift

    def rec(node):
        match node:
            case Num(v):
                return lift(v, dim, order)
            case Coord(slot, _):
                return lift(float(point[slot]), dim, order, slot=slot)
            case Neg(a):
                return -rec(a)
            case Bin(op, a, b):
                x, y = rec(a), rec(b)
                if op == "+":
                    return x + y
                if op == "-":
                    return x - y
                if op == "*":
                    return x * y
                return x / y
            case Pow(base, r):
                return jets.power(rec(base), r)
            case Call(fn, a):
                return jets.FUNCTIONS[fn](rec(a))
        raise TypeError(node)

    try:
        return rec(e)
    except JetDomainError as err:
        raise EvalDomainError(str(err)) from err


def eval_expr_order0(e, point) -> float:
    """Value of expression ``e`` at ``point`` by the jet ring's order-0
    arithmetic in plain floats: ``x / y`` as ``x * (1 / y)``, an integer
    power as repeated products (of ``1 / x`` for a negative one), ``sqrt``
    and every other fractional power as ``x ** r``.  The jet's value must
    equal it bit for bit.  Raises ``EvalDomainError`` where the ring does,
    and ``OverflowError`` where a ``math`` call or ``**`` overflows."""
    import math

    from ctlab.exprlang import Bin, Call, Coord, EvalDomainError, Neg, Num, Pow

    def reciprocal(x):
        if x == 0.0:
            raise EvalDomainError("division by a jet with zero constant term")
        return 1.0 / x

    def power(x, r):
        if float(r).is_integer():
            r = int(r)
            if r == 0:
                return 1.0
            base = x if r > 0 else reciprocal(x)
            out = base
            for _ in range(abs(r) - 1):
                out = out * base
            return out
        if x <= 0.0:
            raise EvalDomainError(f"fractional power of non-positive value {x}")
        return x ** r

    def rec(node):
        match node:
            case Num(v):
                return float(v)
            case Coord(slot, _):
                return float(point[slot])
            case Neg(a):
                return -rec(a)
            case Bin(op, a, b):
                x, y = rec(a), rec(b)
                if op == "+":
                    return x + y
                if op == "-":
                    return x - y
                if op == "*":
                    return x * y
                return x * reciprocal(y)
            case Pow(base, r):
                return power(rec(base), r)
            case Call(fn, a):
                x = rec(a)
                if fn in ("log", "sqrt") and x <= 0.0:
                    raise EvalDomainError(f"{fn} of non-positive value {x}")
                if fn == "sqrt":
                    return x ** 0.5
                return getattr(math, fn)(x)
        raise TypeError(node)

    return rec(e)


def fd1(fn, x, v, h=1e-3):
    """5-point central first derivative of fn along coordinate v."""
    e = np.zeros_like(x, dtype=float)
    e[v] = 1.0
    return (-fn(x + 2 * h * e) + 8 * fn(x + h * e)
            - 8 * fn(x - h * e) + fn(x - 2 * h * e)) / (12 * h)


def fd_multi(fn, x, alpha, h=1e-2):
    """Mixed partial d^alpha fn by nested 5-point stencils."""
    fn_cur = fn
    for v, rep in enumerate(alpha):
        for _ in range(rep):
            fn_prev = fn_cur
            fn_cur = (lambda y, f=fn_prev, vv=v: fd1(f, y, vv, h))
    return fn_cur(np.asarray(x, float))


def metric_at(geometry, x):
    from ctlab.exprlang import eval_expr
    m = geometry.dim
    g = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            g[i, j] = eval_expr(geometry.spec.metric_exprs[i][j], x)
    return g


def christoffel_fd(geometry, p, h=1e-3):
    """Gamma^l_{jk} from finite differences of the metric entries."""
    m = geometry.dim
    dg = np.empty((m, m, m))  # dg[a,b,v] = d_v g_ab
    for v in range(m):
        dg[:, :, v] = fd1(lambda y: metric_at(geometry, y), p, v, h)
    ginv = np.linalg.inv(metric_at(geometry, p))
    b = dg.transpose(0, 2, 1) + dg - dg.transpose(2, 0, 1)
    return 0.5 * np.einsum("lr,rjk->ljk", ginv, b)


def scalar_field(geometry, text):
    from ctlab.exprlang import eval_expr, parse_expr
    expr = parse_expr(text, geometry.spec.coords)
    return lambda x: eval_expr(expr, x)


def hessian_fd(geometry, p, field_text, h=1e-3):
    """Covariant Hessian: FD of the gradient components corrected by the
    FD Christoffel symbols."""
    m = geometry.dim
    f = scalar_field(geometry, field_text)
    grad = lambda y: np.array([fd1(f, y, v, h) for v in range(m)])
    dgrad = np.empty((m, m))  # dgrad[i,j] = d_j grad_i
    for j in range(m):
        dgrad[:, j] = fd1(grad, p, j, h)
    gam = christoffel_fd(geometry, p, h)
    g1 = grad(np.asarray(p, float))
    return dgrad - np.einsum("kij,k->ij", gam, g1)


def laplacian_fd(geometry, p, field_text, h=1e-3):
    hess = hessian_fd(geometry, p, field_text, h)
    return float(np.einsum("ij,ij->",
                           np.linalg.inv(metric_at(geometry, p)), hess))


def flow_rk4(x_fn, p, t, steps=32):
    """Integrate the flow of the vector field x_fn from p for time t."""
    y = np.asarray(p, float).copy()
    dt = t / steps
    for _ in range(steps):
        k1 = x_fn(y)
        k2 = x_fn(y + 0.5 * dt * k1)
        k3 = x_fn(y + 0.5 * dt * k2)
        k4 = x_fn(y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def lie_metric_fd(geometry, p, x_fn, t=1e-3, hx=1e-4):
    """(L_X g)_ij at p by differentiating the pullback of g along the flow
    of X: central difference in flow time, Jacobians by FD in space."""
    m = geometry.dim

    def pullback(t_val):
        phi = lambda y: flow_rk4(x_fn, y, t_val)
        jac = np.empty((m, m))  # jac[k,i] = d phi^k / d x^i
        for i in range(m):
            jac[:, i] = fd1(phi, p, i, hx)
        g_at = metric_at(geometry, phi(np.asarray(p, float)))
        return np.einsum("kl,ki,lj->ij", g_at, jac, jac)

    return (pullback(t) - pullback(-t)) / (2 * t)


# ---------------------------------------------------------------------------
# algebraic references: Kulkarni-Nomizu and the soliton presentations
# ---------------------------------------------------------------------------

def kulkarni_nomizu(h, k):
    """(h ^ k)_ijkt = h_ik k_jt - h_it k_jk + h_jt k_ik - h_jk k_it."""
    h = np.asarray(h, float)
    k = np.asarray(k, float)
    if h.shape != k.shape or h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("Kulkarni-Nomizu factors must be square matrices of equal size")
    return (
        np.einsum("ik,jt->ijkt", h, k)
        - np.einsum("it,jk->ijkt", h, k)
        + np.einsum("jt,ik->ijkt", h, k)
        - np.einsum("jk,it->ijkt", h, k)
    )


def _skew(a, b):
    """out[i,j,k] = a_k b_ij - a_j b_ik."""
    return np.einsum("k,ij->ijk", a, b) - np.einsum("j,ik->ijk", a, b)


def d_tensor_form(b, form: int):
    """The gradient-soliton 3-tensor D in presentation 2, 3 or 4, from the
    frame values of bundle ``b``.  Each uses the gradient-soliton relations,
    so it agrees with ``b.on("d_tensor")`` (the definitional form 1) only on
    a soliton structure."""
    m = b.m
    eye = np.eye(m)
    f1 = b.on("f", 1)
    if form == 2:
        s = b.on("scalar")
        return (_skew(f1, b.on("ricci")) / (m - 2)
                + _skew(b.on("scalar", 1), eye) / (2 * (m - 1) * (m - 2))
                - s * _skew(f1, eye) / ((m - 1) * (m - 2)))
    if form == 3:
        ef = np.einsum("t,tk->k", f1, b.on("einstein"))
        return (_skew(f1, b.on("schouten")) / (m - 2)
                + _skew(ef, eye) / ((m - 1) * (m - 2)))
    if form == 4:
        f2 = b.on("f", 2)
        ff = np.einsum("t,tk->k", f1, f2)
        return (-_skew(f1, f2) / (m - 2)
                - _skew(ff, eye) / ((m - 1) * (m - 2))
                + np.trace(f2) * _skew(f1, eye) / ((m - 1) * (m - 2)))
    raise ValueError(f"unknown form {form}")


def duf_tensor_alt(b):
    """The conformal-gradient tensor D^{u,f} in the presentation that holds
    only under the conformal-gradient structure equation, from the frame
    values of bundle ``b``."""
    m = b.m
    eye = np.eye(m)
    f1, u1 = b.on("f", 1), b.on("u", 1)
    f2 = b.on("f", 2)
    ff = np.einsum("t,tk->k", f1, f2)
    grad_f2 = float(f1 @ f1)
    fu = float(f1 @ u1)
    return (
        (-_skew(ff, eye) + grad_f2 * _skew(u1, eye) - fu * _skew(f1, eye))
        / ((m - 1) * (m - 2))
        - _skew(f1, f2) / (m - 2)
        - (np.einsum("i,k,j->ijk", f1, u1, f1)
           - np.einsum("i,j,k->ijk", f1, u1, f1)) / (m - 2)
        + np.trace(f2) * _skew(f1, eye) / ((m - 1) * (m - 2))
    )


# ---------------------------------------------------------------------------
# the curvature tower by its unpacked routes
# ---------------------------------------------------------------------------

def tower_reference(b) -> dict:
    """Riemann, Ricci, scalar and Weyl of bundle ``b`` as coordinate jets by
    the routes the packed builders replaced: the mixed tensor
    R^i_jkl = d_k Gamma^i_lj - d_l Gamma^i_kj + Gamma^i_ks Gamma^s_lj
    - Gamma^i_ls Gamma^s_kj in full (``riemann13``), lowered and packed
    (``riemann``), its trace R^i_jil (``ricci``), and Weyl by the
    Ricci/scalar decomposition, packed.  Each reads only the bundle's point
    state (metric, inverse and Christoffel jets), never its tower."""
    from ctlab.geometry import TensorJet, tj_combine, tj_einsum, tj_transpose
    from ctlab.jets import jet_gradient

    st, m = b.state, b.m
    gam = st.christoffel
    dgam = TensorJet(jet_gradient(gam.coeffs, m, gam.order), m,
                     gam.order - 1)  # [u, l1, l2, v] = d_v Gamma^u_{l1 l2}
    d1 = tj_transpose(dgam, (0, 2, 3, 1))  # [i,j,k,l] = d_k Gamma^i_{lj}
    d2 = tj_transpose(dgam, (0, 2, 1, 3))  # [i,j,k,l] = d_l Gamma^i_{kj}
    gam = gam.truncate(dgam.order)
    r13 = tj_combine((1.0, d1), (-1.0, d2),
                     (1.0, tj_einsum("iks,slj->ijkl", gam, gam)),
                     (-1.0, tj_einsum("ils,skj->ijkl", gam, gam)))
    riemann = tj_einsum("is,sjkl->ijkl", st.g, r13)
    ricci = TensorJet(np.einsum("zpijil->zpjl", r13.coeffs), m, r13.order)
    out = {"riemann13": r13, "riemann": riemann.packed(), "ricci": ricci,
           "scalar": tj_einsum("jl,jl->", st.ginv, ricci)}
    if m < 3:
        return out
    g, s = st.g, out["scalar"]
    t1 = tj_einsum("ik,jt->ijkt", ricci, g)
    t2 = tj_einsum("it,jk->ijkt", ricci, g)
    ric_part = tj_combine((1.0, t1), (-1.0, t2),
                          (1.0, tj_transpose(t1, (1, 0, 3, 2))),
                          (-1.0, tj_transpose(t2, (1, 0, 3, 2))))
    g = g.truncate(s.order)
    gg = tj_einsum("ik,jt->ijkt", g, g)
    g_part = tj_combine((1.0, gg), (-1.0, tj_transpose(gg, (0, 1, 3, 2))))
    s_part = tj_einsum(",ijkt->ijkt", s, g_part)
    out["weyl"] = tj_combine((1.0, riemann),
                             (-1.0 / (m - 2), ric_part),
                             (1.0 / ((m - 1) * (m - 2)), s_part)).packed()
    return out


def ricci_by_gradient(b):
    """Ricci of bundle ``b`` as a coordinate jet by the route its builder
    replaced: d_i Gamma^i_lj read off the gradient of every Christoffel
    component, taken whole and traced."""
    from ctlab.geometry import TensorJet, tj_combine, tj_einsum
    from ctlab.jets import jet_gradient

    m, gam = b.m, b.state.christoffel
    q = gam.order - 1
    div = np.einsum("zpilji->zpjl", jet_gradient(gam.coeffs, m, gam.order))
    tr = TensorJet(np.einsum("zpiij->zpj", gam.coeffs), m, gam.order)
    dtr = jet_gradient(tr.coeffs, m, tr.order)
    gam = gam.truncate(q)
    return tj_combine(
        (1.0, TensorJet(div, m, q)), (-1.0, TensorJet(dtr, m, q)),
        (1.0, tj_einsum("s,slj->jl", tr, gam)),
        (-1.0, tj_einsum("ils,sij->jl", gam, gam)),
    )
