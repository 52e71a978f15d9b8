"""Canonical forms for PDE expression trees.

``canonicalize`` reduces a tree to a unique normal form so that
mathematically equivalent inputs serialize to identical token sequences:

1. rewrite ``a - b`` as ``a + (-1)*b`` and ``-a`` as ``(-1)*a``;
2. flatten the sum into its terms, each a coefficient times a list of
   non-constant factors, folding constant subexpressions into the
   coefficient; a constant times a sum distributes over the sum's terms;
3. merge identical factors of a term into integer powers and sort them by
   a total key;
4. collect like terms once over the flattened sum: coefficients of terms
   with the same factors are summed exactly (every float is dyadic, an
   integer times a power of two; a quotient's is a fraction), exact zeros
   are dropped and each sum is rounded once;
5. order terms by their factors' keys, the constant term last;
6. re-binarize: the sum nests to the left and each product to the right,
   coefficient first (``c*(f1*(f2*f3))``), as the parser groups a ``*``
   chain.

:func:`terms` returns the result of steps 1-5 as ``(coefficient,
factors)`` pairs and :func:`build` performs step 6, so ``canonicalize(e)``
is ``build(terms(e))``. A multi-term operand of a product stays one opaque
factor: products do not distribute over sums, except that a constant does.
``2*(u + x)`` becomes ``2*u + 2*x`` and ``-(u - x)`` becomes ``(-1)*u +
x``, each coefficient multiplied exactly and rounded once, so no term is a
constant times a lone sum. ``2*(u + x)*u_x`` keeps ``u + x`` as a factor.

Derivatives of the field are normalized as well: same-variable nests merge
(``(u_x)_x`` becomes ``u_xx``), derivatives distribute over sums, and
constant multiples are pulled out. Derivatives of composite expressions
such as ``(u^2)_x`` are kept intact; no chain-rule expansion, distribution
over products, or trigonometric rewriting is performed.

Each root is folded once while it is among the last few asked for, so
``equivalent(from_tokens(to_canonical_tokens(p)), p)`` walks ``p`` once.
A function, power or derivative node that is its own canonical form is
marked as such on the node (``Expr._canon``) and folds to itself again
without a walk. The expression module builds equal nodes as one shared
object, so that node, met later in any tree, carries its mark.

The module keeps no table of its own, so threads may call it at once. The
memo of recent roots is a ``functools.lru_cache``, which is thread-safe,
keyed by the root's identity; a root that is ``==`` to a cached one but
another object, say one holding ``Const(-0.0)`` where the other holds
``Const(0.0)``, is folded for itself. Setting a node's mark, like caching
its key, is an idempotent write.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import DivisionByZero, UnsupportedNode
from .expr import (
    PLACEHOLDER,
    Binary,
    Const,
    Deriv,
    Equation,
    Expr,
    Field,
    Int,
    Placeholder,
    Unary,
    Var,
    canonical_key,
    walk,
)


def canonicalize(e):
    """Reduce an expression (or equation) to its canonical form.

    Idempotent: re-canonicalizing a canonical tree is the identity.
    Raises :class:`DivisionByZero` when constant folding divides by zero
    and :class:`UnsupportedNode` when a constant is not finite.
    """
    if isinstance(e, Equation):
        return Equation(build(terms(e.residual)))
    return build(terms(e))


def terms(e: Expr) -> list[tuple[float, tuple[Expr, ...]]]:
    """The canonical terms of ``e`` as ``(coefficient, factors)`` pairs.

    Factors are the term's non-constant factors, merged and sorted; the
    constant term has none. Terms are sorted by their factors' keys with
    the constant term last. No terms means zero. A root is folded once
    while it is among the last few asked for.
    """
    return list(_rounded(id(e), e))


def build(terms) -> Expr:
    """Binarize ``(coefficient, factors)`` pairs, in the order given, as a
    sum of products: the sum nests to the left and each product to the
    right, coefficient first (``c*(f1*(f2*f3))``), as :func:`parse_infix`
    groups a ``*`` chain. A coefficient of 1 is left out of a term that has
    factors. No terms give ``Const(0.0)``."""
    node = None
    for coeff, factors in terms:
        items = factors if factors and coeff == 1.0 else (Const(coeff), *factors)
        term = items[-1]
        for f in reversed(items[:-1]):
            term = Binary("mul", f, term)
        node = term if node is None else Binary("add", node, term)
    return Const(0.0) if node is None else node


def term_head(coeff: float, factors: tuple[Expr, ...]):
    """Split a canonical term into its head and its remaining factors.

    The head of a masked term (coefficient 1 and a leading placeholder) is
    that :class:`Placeholder`; the head of any other term is its
    coefficient.
    """
    if coeff == 1.0 and factors and isinstance(factors[0], Placeholder):
        return factors[0], factors[1:]
    return coeff, factors


def equivalent(a, b) -> bool:
    """True iff the two expressions (or equations) share a canonical form.

    Two canonical trees are equal exactly when their terms have equal
    coefficients and factors, so the trees are not built.
    """
    ra, rb = (e.residual if isinstance(e, Equation) else e for e in (a, b))
    return _rounded(id(ra), ra) == _rounded(id(rb), rb)


# Internally a term is (exact coefficient, factors). An exact coefficient
# is a pair (m, e) standing for m * 2**e; m is an int while the value is
# dyadic, as every float is, and a Fraction only below a quotient. Factors
# are sorted by their keys, which nodes cache.
_ONE = (1, 0)


@functools.lru_cache(maxsize=16)
def _rounded(_, e: Expr) -> list:
    """The rounded terms of ``e``, called as ``_rounded(id(e), e)`` and
    folded once while ``e`` is among the last few roots asked for. The id
    keys the memo by identity, and the key holds ``e``, so the id is not
    reused while it is cached. Every caller gets the one cached list, so
    callers only read it."""
    return _round(_collect(_terms(e)))


def _round(ts) -> list:
    """Round exact coefficients to floats (the one rounding point), dropping
    terms that underflow to zero."""
    try:
        rounded = [(_float(c), fs) for c, fs in ts]
    except OverflowError:
        raise UnsupportedNode("coefficient is too large for a float") from None
    return [t for t in rounded if t[0] != 0.0]


def _float(c) -> float:
    """The exact coefficient ``c`` rounded once to the nearest float, as
    ``float(Fraction)`` rounds (a true division of integers)."""
    m, e = c
    return float(m * (1 << e)) if e >= 0 else float(m / (1 << -e))


def _add(a, b):
    (m, e), (n, f) = (a, b) if a[1] <= b[1] else (b, a)
    return (m + n * (1 << f - e), e)


def _mul(a, b):
    return (a[0] * b[0], a[1] + b[1])


def _factor(f: Expr) -> list:
    """``f`` as a term."""
    return [(_ONE, (f,))]


def _constant(value) -> list:
    return [(_exact(value), ())] if value else []


def _exact(value):
    """The exact coefficient of an int or a float."""
    m, d = value.as_integer_ratio()
    return (m, 1 - d.bit_length())


_MINUS_ONE = _constant(-1)


def _terms(e: Expr) -> list:
    """Uncollected terms of ``e``, folded bottom-up in one walk."""
    return walk(e, _enter_terms, _leave_terms)


def _enter_terms(e: Expr, _):
    t = type(e)
    if t is Unary or t is Deriv or t is Binary and e.op == "pow":
        if e._canon:  # a marked node folds to itself
            return (_factor(e),)
        if t is Binary:  # the exponent first: it is canonicalized first
            return (None, e.right, None, e.left, None)
        return None
    if t is Binary:
        return None
    if t is Const or t is Int:
        if t is Const and not math.isfinite(e.value):
            raise UnsupportedNode(f"non-finite constant {e.value!r}")
        return (_constant(e.value),)
    if t is Field or t is Var or t is Placeholder:
        return (_factor(e),)
    raise TypeError(f"cannot canonicalize {t.__name__}")


def _leave_terms(e: Expr, _, a: list, b: list | None = None) -> list:
    """Terms of ``e`` from the uncollected terms of its children."""
    t = type(e)
    if t is Deriv:
        ts = _deriv_terms(e, a)
    elif t is Unary:
        if e.fn == "neg":
            return _product(_MINUS_ONE, _collect(a))
        child = build(_round(_collect(a)))
        if isinstance(child, Const):
            fn = math.sin if e.fn == "sin" else math.cos
            return _constant(fn(child.value))
        ts = _factor(Unary(e.fn, child))
    elif e.op == "pow":
        ts = _power(_collect(b), _collect(a))
    elif e.op == "add":
        return a + b
    elif e.op == "sub":
        return a + _product(_MINUS_ONE, _collect(b))
    elif e.op == "mul":
        return _product(_collect(a), _collect(b))
    else:
        return _quotient(_collect(a), _collect(b))
    if len(ts) == 1 and ts[0][0] == _ONE and len(ts[0][1]) == 1 and ts[0][1][0] is e:
        e._canon = True  # e folds to itself: 1 times e, its one factor
    return ts


def _power(base: list, exponent: list) -> list:
    """Terms of a power of two collected operands, decided on their rounded
    terms; the base becomes a tree only as the base of a power factor."""
    rounded, exp = _round(base), build(_round(exponent))
    if type(exp) is Const and exp.value.is_integer():
        exp = Int(int(exp.value))
    if type(exp) is Int and exp.value in (0, 1):
        return [(_exact(c), fs) for c, fs in rounded] if exp.value else _constant(1)
    if isinstance(exp, (Const, Int)) and (not rounded or len(rounded) == 1 and not rounded[0][1]):
        b = rounded[0][0] if rounded else 0.0
        if b == 0.0 and exp.value < 0:
            raise DivisionByZero("zero raised to a negative power")
        try:
            value = b**exp.value
        except OverflowError:
            raise UnsupportedNode("constant power is too large for a float") from None
        if isinstance(value, complex):
            raise UnsupportedNode("constant power has no real value")
        return _constant(value)
    b = build(rounded)  # a lone factor is itself, so only a new base is built
    if type(exp) is Int and type(b) is Binary and b.op == "pow" and type(b.right) is Int:
        # (f^m)^n is f^(m*n), folded from f's terms without the root memo
        return _power(_collect(_terms(b.left)), _constant(b.right.value * exp.value))
    return _factor(Binary("pow", b, exp))


def _quotient(left: list, denom: list) -> list:
    """Terms of the quotient of two collected operands: ``left`` times the
    power -1 of ``denom``, built from the denominator's own terms."""
    if not denom:
        raise DivisionByZero("division by constant zero")
    if len(denom) == 1 and not denom[0][1]:
        m, e = denom[0][0]
        return _product(left, [((1 / Fraction(m), -e), ())])
    return _product(left, _power(denom, _MINUS_ONE))


def _collect(ts: list) -> list:
    """Sum like terms exactly, drop zeros and sort, constants last."""
    if len(ts) < 2:
        return ts
    groups: dict[tuple, list] = {}
    for coeff, factors in ts:
        group = groups.get(factors)
        if group is None:
            groups[factors] = [coeff, factors]
        else:
            group[0] = _add(group[0], coeff)
    kept = [tuple(g) for g in groups.values() if g[0][0] != 0]
    kept.sort(key=lambda t: (not t[1], [canonical_key(f) for f in t[1]]))
    return kept


def _product(left: list, right: list) -> list:
    """Terms of the product of two collected operands.

    A constant distributes over the terms of the other operand, each
    coefficient multiplied exactly. Any other multi-term operand stays one
    opaque factor, rounded once, and a product whose factors merge to a
    single sum dissolves into that sum's terms. An operand whose terms
    round to one term or none, the rest underflowing to zero, is instead
    that term, its coefficient kept exact, or zero.
    """
    if not left or not right:
        return []
    for const, side in ((left, right), (right, left)):
        if len(const) == 1 and not const[0][1]:
            return [(_mul(const[0][0], c), fs) for c, fs in side]
    coeff = _ONE
    factors = []
    for side in (left, right):
        if len(side) == 1:
            c, fs = side[0]
            coeff = c if coeff is _ONE else _mul(coeff, c)
            factors += fs
            continue
        rounded = _round(side)
        if len(rounded) < 2:  # settled: it may now be a constant, or zero
            kept = [t for t in side if _float(t[0]) != 0.0]
            return _product(kept, right) if side is left else _product(left, kept)
        factors.append(build(rounded))
    factors = _merge_factors(factors)
    if len(factors) == 1 and type(factors[0]) is Binary and factors[0].op == "add":
        return [(_mul(coeff, c), fs) for c, fs in _terms(factors[0])]
    return [(coeff, factors)]


def _merge_factors(factors: list) -> tuple[Expr, ...]:
    """Merge repeated bases into integer powers and sort by key; the caller
    passes at least two factors."""
    merged: dict[Expr, int] = {}
    for f in factors:
        if type(f) is Binary and f.op == "pow" and type(f.right) is Int:
            base, n = f.left, f.right.value
        else:
            base, n = f, 1
        merged[base] = merged.get(base, 0) + n
    out = []
    for base, n in merged.items():
        if n != 0:
            out.append(base if n == 1 else Binary("pow", base, Int(n)))
    out.sort(key=canonical_key)  # the keys differ, so factors are never compared
    return tuple(out)


def _deriv_terms(e: Deriv, child: list) -> list:
    """Distribute a derivative over the terms of its child."""
    out = []
    for coeff, factors in _collect(child):
        if factors in ((), (PLACEHOLDER,)):
            continue
        single = factors[0] if len(factors) == 1 else None
        if isinstance(single, Var):
            unit = _constant(1) if single.name == e.var and e.order == 1 else []
        elif isinstance(single, Deriv):
            unit = _factor(_normalize_deriv_nest(single, e.var, e.order))
        else:
            unit = _factor(Deriv(build([(1.0, factors)]), e.var, e.order))
        out += [(coeff if c is _ONE else _mul(coeff, c), fs) for c, fs in unit]
    return out


def _normalize_deriv_nest(inner: Deriv, var: str, order: int) -> Expr:
    # Collect the full chain of derivative applications; mixed partials
    # commute, so rebuild in a fixed nesting order ("t" innermost).
    orders = {var: order}
    node: Expr = inner
    while isinstance(node, Deriv):
        orders[node.var] = orders.get(node.var, 0) + node.order
        node = node.child
    for v in ("t", "x"):
        if orders.get(v):
            node = Deriv(node, v, orders[v])
    return node
