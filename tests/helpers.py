"""Shared test utilities: seeded random expression trees and independent
numerical oracles.

The symbolic-expansion reference for the package's Taylor jets, which
:func:`residual_on_surrogate` runs on one surrogate, lives here:
:func:`substitute_field` puts a surrogate's polynomial tree
(:func:`surrogate_expr`) in place of the field and expands every
derivative node with :func:`differentiate`, and :func:`evaluate` computes
the result on a grid. The package scores residuals with Taylor jets only;
the tests check the jets, and canonicalization, against this path.

:func:`symbolic_error_per_surrogate` is the reference for
``metrics.symbolic_error``'s batched run: it draws, tests and scores one
surrogate at a time."""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from pdesym.errors import DegenerateReference, UnsupportedNode
from pdesym.expr import (
    FIELD,
    Binary,
    Const,
    Deriv,
    Expr,
    Field,
    Int,
    Placeholder,
    Unary,
    Var,
    int_to_float,
    walk,
)
from pdesym.metrics import _FieldGrids, _grid, _monomials, _polyval, _residual, rel_l2

_MANUAL_DERIVS = [("t", 1), ("x", 1), ("x", 2), ("x", 3)]


def random_manual_tree(rng, depth: int = 4) -> Expr:
    """Random tree within manual-dialect coverage (shorthand derivatives)."""
    if depth == 0 or rng.random() < 0.3:
        choice = rng.integers(5)
        if choice == 0:
            return FIELD
        if choice == 1:
            var, order = _MANUAL_DERIVS[rng.integers(len(_MANUAL_DERIVS))]
            return Deriv(FIELD, var, order)
        if choice == 2:
            return Var(["x", "t", "y", "k"][rng.integers(4)])
        return Const(float(np.round(rng.uniform(-2.0, 2.0), 3)))
    choice = rng.integers(7)
    if choice < 4:
        op = ["add", "sub", "mul", "div"][choice]
        return Binary(op, random_manual_tree(rng, depth - 1), random_manual_tree(rng, depth - 1))
    if choice == 4:
        return Binary("pow", random_manual_tree(rng, depth - 1), Int(int(rng.integers(2, 4))))
    fn = ["sin", "cos", "neg"][rng.integers(3)]
    child = random_manual_tree(rng, depth - 1)
    if fn == "neg" and isinstance(child, Const):
        return Const(-child.value)  # parser folds literal negation
    if fn == "neg" and isinstance(child, Int):
        return Int(-child.value)
    return Unary(fn, child)


def random_general_tree(rng, depth: int = 4) -> Expr:
    """Random tree for canonicalization tests; division only by safe constants."""
    if depth == 0 or rng.random() < 0.3:
        choice = rng.integers(5)
        if choice == 0:
            return FIELD
        if choice == 1:
            var, order = _MANUAL_DERIVS[rng.integers(len(_MANUAL_DERIVS))]
            return Deriv(FIELD, var, order)
        if choice == 2:
            return Var("x" if rng.random() < 0.5 else "t")
        return Const(float(np.round(rng.uniform(-2.0, 2.0), 3)))
    choice = rng.integers(8)
    if choice < 3:
        op = ["add", "sub", "mul"][choice]
        return Binary(op, random_general_tree(rng, depth - 1), random_general_tree(rng, depth - 1))
    if choice == 3:
        denom = Const(float(np.round(rng.uniform(0.5, 2.0), 3)))
        return Binary("div", random_general_tree(rng, depth - 1), denom)
    if choice == 4:
        return Binary("pow", random_general_tree(rng, depth - 1), Int(int(rng.integers(2, 4))))
    if choice < 7:
        fn = ["sin", "cos", "neg"][choice - 5]
        return Unary(fn, random_general_tree(rng, depth - 1))
    return Binary("mul", Const(float(np.round(rng.uniform(-2.0, 2.0), 3))),
                  random_general_tree(rng, depth - 1))


def random_deriv_tree(rng, depth: int = 4) -> Expr:
    """Random tree with derivative nodes over composite subtrees and the
    unbound variables ``y`` and ``k`` among its leaves."""
    if depth == 0 or rng.random() < 0.25:
        choice = rng.integers(5)
        if choice == 0:
            return FIELD
        if choice == 1:
            return Deriv(FIELD, ["x", "t"][rng.integers(2)], int(rng.integers(1, 3)))
        if choice == 2:
            return Var(["x", "t", "y", "k"][rng.integers(4)])
        if choice == 3:
            return Var(["y", "k"][rng.integers(2)])
        return Const(float(np.round(rng.uniform(-2.0, 2.0), 3)))
    choice = rng.integers(9)
    if choice < 4:
        op = ["add", "sub", "mul", "div"][choice]
        return Binary(op, random_deriv_tree(rng, depth - 1), random_deriv_tree(rng, depth - 1))
    if choice == 4:
        return Binary("pow", random_deriv_tree(rng, depth - 1), Int(int(rng.integers(-1, 4))))
    if choice == 5:
        fn = ["sin", "cos", "neg"][rng.integers(3)]
        return Unary(fn, random_deriv_tree(rng, depth - 1))
    var = ["x", "t"][rng.integers(2)]
    return Deriv(random_deriv_tree(rng, depth - 1), var, int(rng.integers(1, 3)))


# ---------------------------------------------------------------------------
# symbolic-expansion reference for the Taylor jets

def _fold_shared(root: Expr, enter, leave):
    """:func:`walk` for folds whose value depends on the node alone: a
    subtree reached again through another parent (the same object, as
    :func:`differentiate` shares its operands) takes its first value and is
    not walked again, so the fold is linear in the shared graph."""
    memo = {}

    def enter_once(e, ctx):
        value = memo.get(id(e), memo)
        return enter(e, ctx) if value is memo else (value,)

    def leave_once(e, note, *values):
        memo[id(e)] = value = leave(e, note, *values)
        return value

    return walk(root, enter_once, leave_once)


def differentiate(e: Expr, var: str) -> Expr:
    """Symbolic partial derivative with respect to ``var``.

    Placeholders differentiate to zero (they stand for unknown constants).
    Mixed partials of the field and non-integer powers are unsupported.
    """

    def enter(e, _):
        t = type(e)
        if t is Binary or t is Unary:
            return None
        if t is Const or t is Int or t is Placeholder:
            return (Const(0.0),)
        if t is Var:
            return (Const(1.0 if e.name == var else 0.0),)
        if t is Field:
            return (Deriv(FIELD, var, 1),)
        if t is Deriv:
            if e.var == var:
                return (Deriv(e.child, var, e.order + 1),)
            raise UnsupportedNode("mixed partial derivatives are not supported")
        raise UnsupportedNode(f"cannot differentiate {t.__name__}")

    def leave(e, _, dl, dr=None):
        if type(e) is Unary:
            if e.fn == "neg":
                return Unary("neg", dl)
            if e.fn == "sin":
                return Binary("mul", Unary("cos", e.child), dl)
            return Binary("mul", Binary("mul", Const(-1.0), Unary("sin", e.child)), dl)
        if e.op in ("add", "sub"):
            return Binary(e.op, dl, dr)
        if e.op == "mul":
            return Binary(
                "add", Binary("mul", dl, e.right), Binary("mul", e.left, dr)
            )
        if e.op == "div":
            return Binary(
                "sub",
                Binary("div", dl, e.right),
                Binary("div", Binary("mul", e.left, dr), Binary("pow", e.right, Int(2))),
            )
        if isinstance(e.right, Int):
            n = e.right.value
            inner = Binary("pow", e.left, Int(n - 1)) if n != 1 else Const(1.0)
            return Binary("mul", Const(int_to_float(n)), Binary("mul", inner, dl))
        raise UnsupportedNode("cannot differentiate a non-integer power")

    return _fold_shared(e, enter, leave)


def substitute_field(e: Expr, replacement: Expr) -> Expr:
    """Replace the field with ``replacement`` and expand derivative nodes.

    ``Deriv`` nodes are expanded by symbolically differentiating their
    (substituted) child, so the result contains only ordinary arithmetic
    over variables and constants.
    """

    def enter(e, _):
        t = type(e)
        if t is Binary or t is Unary or t is Deriv:
            return None
        return (replacement if t is Field else e,)

    def leave(e, _, *kids):
        t = type(e)
        if t is Deriv:
            node = kids[0]
            for _ in range(e.order):
                node = differentiate(node, e.var)
            return node
        if t is Unary:
            return Unary(e.fn, kids[0])
        return Binary(e.op, *kids)

    return _fold_shared(e, enter, leave)


_ARITHMETIC = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
               "div": np.divide, "pow": np.power}


def evaluate(e: Expr, env):
    """Numerically evaluate a tree over an environment of variable values.

    ``env`` maps variable names to scalars or numpy arrays. The field,
    derivative nodes and placeholders are not evaluable directly; substitute
    them away first (see :func:`substitute_field`). Division follows numpy
    for scalars too: a zero divisor gives inf or NaN, not an exception.
    """

    def enter(e, _):
        t = type(e)
        if t is Binary or t is Unary:
            return None
        if t is Const:
            return (e.value,)
        if t is Int:
            return (int_to_float(e.value),)
        if t is Var:
            if e.name not in env:
                raise UnsupportedNode(f"unbound variable {e.name!r}")
            return (env[e.name],)
        if t is Field or t is Deriv or t is Placeholder:
            raise UnsupportedNode(f"{t.__name__} is not directly evaluable")
        raise UnsupportedNode(f"cannot evaluate {t.__name__}")

    def leave(e, _, l, r=None):
        if type(e) is Unary:
            return np.sin(l) if e.fn == "sin" else np.cos(l) if e.fn == "cos" else -l
        return _ARITHMETIC[e.op](l, r)

    with np.errstate(all="ignore"):
        return _fold_shared(e, enter, leave)


# ---------------------------------------------------------------------------
# one polynomial surrogate

@dataclass(frozen=True)
class PolySurrogate:
    """Separable polynomial stand-in for the field with exact derivatives:
    one row of the block ``metrics.symbolic_error`` draws."""

    c: tuple[float, ...]

    def __post_init__(self):
        if len(self.c) != 8:
            raise ValueError("surrogate needs exactly 8 coefficients")
        object.__setattr__(self, "c", tuple(float(v) for v in self.c))

    @classmethod
    def random(cls, rng) -> "PolySurrogate":
        return cls(tuple(rng.uniform(-1.0, 1.0, 8)))

    def value(self, x, t, dx_order: int = 0, dt_order: int = 0):
        """d^dx_order/dx d^dt_order/dt P at (x, t): the one-row case of the
        field grids ``metrics.symbolic_error`` computes for a block."""
        return (_polyval(self.c[:3], t, dt_order, _monomials(t, 2, dt_order))
                * _polyval(self.c[3:], x, dx_order, _monomials(x, 4, dx_order)))


def residual_on_surrogate(eq, surrogate: PolySurrogate, xs: np.ndarray,
                          ts: np.ndarray) -> np.ndarray:
    """The residual with u := P on a (len(ts), len(xs)) grid: the one-row
    case of the Taylor-jet walk (``metrics._residual``) that
    ``metrics.symbolic_error`` makes on a block of surrogates at once.

    It raises :class:`UnsupportedNode` wherever the symbolic expansion
    (:func:`substitute_field`, then :func:`evaluate`) does. It matches that
    expansion bit for bit when every derivative node applies to the field
    itself, and to rounding otherwise.
    """
    return _residual(eq, _FieldGrids(np.array([surrogate.c]), _grid(xs, ts)))[0]


def surrogate_expr(p) -> Expr:
    """The :class:`PolySurrogate` ``p`` as a tree over ``x`` and ``t``."""
    t, x = Var("t"), Var("x")
    tpart = _poly_expr(p.c[:3], t)
    xpart = _poly_expr(p.c[3:], x)
    return Binary("mul", tpart, xpart)


def _poly_expr(coeffs, var: Var) -> Expr:
    node: Expr = Const(coeffs[0])
    for k, c in enumerate(coeffs[1:], start=1):
        power = var if k == 1 else Binary("pow", var, Int(k))
        node = Binary("add", node, Binary("mul", Const(c), power))
    return node


# ---------------------------------------------------------------------------
# per-surrogate reference for symbolic_error

def symbolic_error_per_surrogate(learned, truth, n_polys: int = 10, n_x: int = 32,
                                 n_t: int = 32, seed: int = 0) -> float:
    """``metrics.symbolic_error`` one surrogate at a time: each draw's truth
    residual is computed and tested alone, and the learned residual is
    evaluated on each accepted surrogate as it is found."""
    for name, size in (("n_polys", n_polys), ("n_x", n_x), ("n_t", n_t)):
        if size < 1:
            raise ValueError(f"{name} must be at least 1, got {size}")
    grid = _grid(np.linspace(0.0, 1.0, n_x), np.linspace(0.0, 1.0, n_t))
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(n_polys):
        for _attempt in range(100):
            field = _FieldGrids(np.array([PolySurrogate.random(rng).c]), grid)
            truth_vals = _residual(truth, field)[0]
            with np.errstate(all="ignore"):
                if float(np.sqrt(np.mean(truth_vals**2))) >= 1e-6:
                    break
        else:
            raise DegenerateReference(
                "truth residual vanishes on every sampled surrogate"
            )
        errors.append(rel_l2(truth_vals, _residual(learned, field)[0]))
    return float(np.mean(errors))


# ---------------------------------------------------------------------------
# solver oracle

def oracle_euler_step(flux_kind: str, q1: float, q2: float, u, dt: float, dx: float):
    """Straight-line, loop-based re-implementation of one conservative
    forward-Euler update (local Lax-Friedrichs flux + central diffusion)."""
    import math

    def f(v):
        if flux_kind == "quadratic":
            return q1 * v * v
        if flux_kind == "cubic":
            return q1 * v**3
        return q1 * math.sin(v)

    def speed(v):
        if flux_kind == "quadratic":
            return abs(2.0 * q1 * v)
        if flux_kind == "cubic":
            return abs(3.0 * q1 * v * v)
        return abs(q1 * math.cos(v))

    n = len(u)
    flux = [0.0] * n
    for i in range(n):
        j = (i + 1) % n
        a = max(speed(u[i]), speed(u[j]))
        flux[i] = 0.5 * (f(u[i]) + f(u[j])) - 0.5 * a * (u[j] - u[i])
    out = np.empty(n)
    for i in range(n):
        im = (i - 1) % n
        ip = (i + 1) % n
        val = u[i] - dt * (flux[i] - flux[im]) / dx
        if q2 > 0.0:
            val += dt * q2 * (u[ip] - 2.0 * u[i] + u[im]) / (dx * dx)
        out[i] = val
    return out
