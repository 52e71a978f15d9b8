"""Census of canonical forms against SymPy's automatic simplification.

A tree converts to SymPy exactly: a ``Const`` becomes the exact
``Rational`` of its float, the field ``Function('u')(x, t)``, a variable a
``Symbol`` and a ``Deriv`` an unevaluated ``Derivative``. SymPy simplifies
what it builds automatically; converting that back, each rational rounded
to the nearest float, gives a tree that ``equivalent`` should equate with
the first. The trees where it does not are the canonicalizer's gaps
against SymPy, pinned here per generator so that a rule that closes some
moves the count on purpose.

A canonical form is sound when it has the value of its input: the
difference of the two, converted, is 0 after ``doit()`` and ``expand``,
or at a 50-digit point check with the field set to a smooth function.
"""
from __future__ import annotations

import numpy as np
import sympy as sp

from pdesym.canon import canonicalize, equivalent
from pdesym.errors import PdesymError
from pdesym.expr import FIELD, Binary, Const, Deriv, Field, Int, Unary, Var

from helpers import random_deriv_tree, random_general_tree, random_manual_tree

X, T = sp.Symbol("x"), sp.Symbol("t")
U = sp.Function("u")(X, T)
# the field of the point check: smooth, and not a polynomial in x or t
SMOOTH = sp.sin(X + sp.Rational(1, 3)) * sp.exp(T / 2) + sp.Rational(2, 7) * X * T
POINT = {X: sp.Rational(3, 10), T: sp.Rational(7, 10), sp.Symbol("y"): sp.Rational(-11, 13),
         sp.Symbol("k"): sp.Rational(5, 17)}
GENERATORS = {"manual": (1, random_manual_tree), "general": (2, random_general_tree),
              "deriv": (3, random_deriv_tree)}
_BINARY = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b, "mul": lambda a, b: a * b,
           "div": lambda a, b: a / b, "pow": lambda a, b: a**b}
_UNARY = {"sin": sp.sin, "cos": sp.cos, "neg": lambda a: -a}


class _Skip(Exception):
    """A side has no counterpart: a SymPy value such as ``zoo`` has no
    tree, and a non-integer exponent is not converted, since SymPy would
    try to factor the huge integers of its exact rational."""


def to_sympy(e, field=U):
    t = type(e)
    if t is Const:
        return sp.Rational(*e.value.as_integer_ratio())
    if t is Int:
        return sp.Integer(e.value)
    if t is Field:
        return field
    if t is Var:
        return sp.Symbol(e.name)
    if t is Deriv:
        return sp.Derivative(to_sympy(e.child, field), (sp.Symbol(e.var), e.order))
    if t is Unary:
        return _UNARY[e.fn](to_sympy(e.child, field))
    if e.op == "pow" and type(e.right) is not Int:
        raise _Skip(f"non-integer exponent {e.right}")
    return _BINARY[e.op](to_sympy(e.left, field), to_sympy(e.right, field))


def from_sympy(s):
    if s == U:
        return FIELD
    if isinstance(s, sp.Symbol):
        return Var(s.name)
    if isinstance(s, sp.Rational):
        return Const(int(s.p) / int(s.q))  # an int quotient rounds to the nearest float
    if isinstance(s, sp.Pow) and isinstance(s.exp, sp.Integer):
        return Binary("pow", from_sympy(s.base), Int(int(s.exp)))
    if isinstance(s, (sp.Add, sp.Mul)):
        op = "add" if isinstance(s, sp.Add) else "mul"
        node = from_sympy(s.args[0])
        for arg in s.args[1:]:
            node = Binary(op, node, from_sympy(arg))
        return node
    if isinstance(s, (sp.sin, sp.cos)):
        return Unary(type(s).__name__, from_sympy(s.args[0]))
    if isinstance(s, sp.Derivative):
        node = from_sympy(s.expr)
        for var, order in s.variable_count:
            node = Deriv(node, var.name, int(order))
        return node
    raise _Skip(str(s))


def _trees(n):
    for name, (seed, make) in GENERATORS.items():
        rng = np.random.default_rng(seed)
        yield name, [make(rng) for _ in range(n)]


def _disagrees(tree):
    """Whether the SymPy round trip of ``tree`` is not equivalent to it, or
    None when either side has no canonical form or no tree."""
    try:
        canonicalize(tree)
        return not equivalent(from_sympy(to_sympy(tree)), tree)
    except (PdesymError, _Skip):
        return None


def test_sympy_round_trip_disagreements_are_pinned():
    found = {}
    for name, trees in _trees(1000):
        verdicts = [_disagrees(tree) for tree in trees]
        found[name] = (verdicts.count(True), verdicts.count(None))
    # (trees whose round trip is not equivalent, trees skipped)
    assert found == {"manual": (191, 1), "general": (124, 0), "deriv": (58, 49)}


def _value(e, field):
    value = to_sympy(e, field).doit().subs(POINT).evalf(50)
    if not value.is_finite:
        raise _Skip(str(value))
    return value


def _sound(tree):
    """Whether the canonical form of ``tree`` has its value, or None when
    it has no canonical form or SymPy cannot compare the two."""
    try:
        canonical = canonicalize(tree)
        if sp.expand((to_sympy(tree) - to_sympy(canonical)).doit()) == 0:
            return True
        a, b = _value(tree, SMOOTH), _value(canonical, SMOOTH)
    except (PdesymError, _Skip):
        return None
    return abs(a - b) <= 1e-12 * (1 + abs(a))


def test_canonical_forms_are_sound():
    found = {}
    for name, trees in _trees(300):
        verdicts = [_sound(tree) for tree in trees]
        found[name] = (verdicts.count(False), verdicts.count(None))
    # (unsound canonical forms, trees skipped: no canonical form, or a divisor
    # SymPy takes for 0)
    assert found == {"manual": (0, 0), "general": (0, 0), "deriv": (0, 19)}
