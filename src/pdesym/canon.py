"""Canonical forms for PDE expression trees.

``canonicalize`` reduces a tree to a unique normal form so that
mathematically equivalent inputs serialize to identical token sequences:

1. rewrite ``a - b`` as ``a + (-1)*b`` and ``-a`` as ``(-1)*a``;
2. flatten the sum into its terms, each a coefficient times a list of
   non-constant factors, folding constant subexpressions into the
   coefficient;
3. merge identical factors of a term into integer powers and sort them by
   a total key;
4. collect like terms once over the flattened sum: coefficients of terms
   with the same factors are summed exactly (as fractions of the input
   floats), exact zeros are dropped and each sum is rounded once;
5. order terms by their factors' keys, the constant term last;
6. re-binarize left to right.

:func:`terms` returns the result of steps 1-5 as ``(coefficient,
factors)`` pairs and :func:`build` performs step 6, so ``canonicalize(e)``
is ``build(terms(e))``. A multi-term operand of a product stays one opaque
factor: products do not distribute over sums.

Derivatives of the field are normalized as well: same-variable nests merge
(``(u_x)_x`` becomes ``u_xx``), derivatives distribute over sums, and
constant multiples are pulled out. Derivatives of composite expressions
such as ``(u^2)_x`` are kept intact; no chain-rule expansion, distribution
over products, or trigonometric rewriting is performed.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import DivisionByZero, UnsupportedNode
from .expr import (
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
)

_FN_RANK = {"sin": 0, "cos": 1, "neg": 2}
_OP_RANK = {"pow": 0, "mul": 1, "add": 2, "sub": 3, "div": 4}

# Class ranks put the coefficient-like placeholder first, then the field,
# derivatives, applied functions, powers and variables, constants last.
_RANK_PLACEHOLDER = 0
_RANK_FIELD = 1
_RANK_DERIV = 2
_RANK_UNARY = 3
_RANK_BINARY = 4
_RANK_VAR = 5
_RANK_INT = 8
_RANK_CONST = 9


def canonical_key(e: Expr):
    """Total-order key over subtrees; equal keys imply identical trees."""
    if isinstance(e, Placeholder):
        return (_RANK_PLACEHOLDER,)
    if isinstance(e, Field):
        return (_RANK_FIELD,)
    if isinstance(e, Deriv):
        return (_RANK_DERIV, e.var, e.order, canonical_key(e.child))
    if isinstance(e, Unary):
        return (_RANK_UNARY, _FN_RANK[e.fn], canonical_key(e.child))
    if isinstance(e, Binary):
        return (
            _RANK_BINARY,
            _OP_RANK[e.op],
            canonical_key(e.left),
            canonical_key(e.right),
        )
    if isinstance(e, Var):
        return (_RANK_VAR, e.name)
    if isinstance(e, Int):
        return (_RANK_INT, e.value)
    if isinstance(e, Const):
        return (_RANK_CONST, e.value)
    raise TypeError(f"cannot key {type(e).__name__}")


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
    the constant term last. No terms means zero.
    """
    return _round(_collect(_terms(e)))


def build(terms) -> Expr:
    """Binarize ``(coefficient, factors)`` pairs left to right, in the order
    given, as a sum of products; a coefficient of 1 is left out of a term
    that has factors. No terms give ``Const(0.0)``."""
    node = None
    for coeff, factors in terms:
        if factors and coeff == 1.0:
            term, rest = factors[0], factors[1:]
        else:
            term, rest = Const(coeff), factors
        for f in rest:
            term = Binary("mul", term, f)
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


# Internally a term is (exact coefficient, factors, factor keys), so each
# factor is keyed once, when it is made.
_ONE = Fraction(1)


def _round(ts) -> list[tuple[float, tuple[Expr, ...]]]:
    """Round exact coefficients to floats (the one rounding point), dropping
    terms that underflow to zero."""
    try:
        rounded = [(float(c), fs) for c, fs, _ in ts]
    except OverflowError:
        raise UnsupportedNode("coefficient is too large for a float") from None
    return [t for t in rounded if t[0] != 0.0]


def _factor(f: Expr) -> list:
    return [(_ONE, (f,), (canonical_key(f),))]


def _constant(value) -> list:
    return [(Fraction(value), (), ())] if value != 0 else []


def _terms(e: Expr) -> list:
    """Uncollected terms of ``e``; a sum's left spine is walked in a loop."""
    if isinstance(e, Binary) and e.op in ("add", "sub"):
        spine = []
        while isinstance(e, Binary) and e.op in ("add", "sub"):
            spine.append(e)
            e = e.left
        out = _terms(e)
        for node in reversed(spine):
            right = _terms(node.right)
            if node.op == "sub":
                right = _product(_constant(-1), _collect(right))
            out += right
        return out
    if isinstance(e, Const):
        if not math.isfinite(e.value):
            raise UnsupportedNode(f"non-finite constant {e.value!r}")
        return _constant(e.value)
    if isinstance(e, Int):
        return _constant(e.value)
    if isinstance(e, (Field, Var, Placeholder)):
        return _factor(e)
    if isinstance(e, Unary):
        if e.fn == "neg":
            return _product(_constant(-1), _collect(_terms(e.child)))
        child = build(terms(e.child))
        if isinstance(child, Const):
            fn = math.sin if e.fn == "sin" else math.cos
            return _constant(fn(child.value))
        return _factor(Unary(e.fn, child))
    if isinstance(e, Deriv):
        return _deriv_terms(e)
    if isinstance(e, Binary):
        if e.op == "mul":
            return _product(_collect(_terms(e.left)), _collect(_terms(e.right)))
        if e.op == "div":
            left = _collect(_terms(e.left))
            denom = _collect(_terms(e.right))
            if not denom:
                raise DivisionByZero("division by constant zero")
            if len(denom) == 1 and not denom[0][1]:
                return _product(left, _constant(1 / denom[0][0]))
            inverse = Binary("pow", build(_round(denom)), Int(-1))
            return _product(left, _collect(_terms(inverse)))
        # pow: the result is one factor unless it folded to another form
        result = _canon_pow(e.left, e.right)
        if isinstance(result, Binary) and result.op == "pow":
            return _factor(result)
        return _terms(result)
    raise TypeError(f"cannot canonicalize {type(e).__name__}")


def _collect(ts: list) -> list:
    """Sum like terms exactly, drop zeros and sort, constants last."""
    if len(ts) < 2:
        return ts
    groups: dict[tuple, list] = {}
    for coeff, factors, keys in ts:
        group = groups.get(keys)
        if group is None:
            groups[keys] = [coeff, factors, keys]
        else:
            group[0] += coeff
    for keys, (coeff, factors, _) in groups.items():
        s = _bare_sum(coeff, factors)
        if s is not None:
            # like opaque sums whose coefficients add up to 1 (rounded) dissolve
            del groups[keys]
            return _collect([tuple(g) for g in groups.values()] + _terms(s))
    kept = [tuple(g) for g in groups.values() if g[0] != 0]
    kept.sort(key=lambda t: (not t[2], t[2]))
    return kept


def _bare_sum(coeff, factors: tuple[Expr, ...]) -> Expr | None:
    """The sum a term stands for when it is 1 times a single sum factor.

    The coefficient counts as 1 when it rounds to 1.0, the test
    :func:`build` uses to leave it out, so no canonical tree holds a bare
    sum as a term.
    """
    if len(factors) == 1 and isinstance(factors[0], Binary) and factors[0].op == "add":
        if 0 < coeff < 2 and float(coeff) == 1.0:
            return factors[0]
    return None


def _product(left: list, right: list) -> list:
    """Terms of the product of two collected operands.

    A multi-term operand stays one opaque factor; a product that comes out
    as 1 times a single sum factor dissolves back into that sum's terms.
    """
    if not left or not right:
        return []
    coeff = _ONE
    pairs = []
    for side in (left, right):
        if len(side) == 1:
            c, factors, keys = side[0]
            coeff *= c
            pairs += zip(factors, keys)
        else:
            s = build(_round(side))
            pairs.append((s, canonical_key(s)))
    factors, keys = _merge_factors(pairs)
    s = _bare_sum(coeff, factors)
    if s is not None:
        return _terms(s)
    return [(coeff, factors, keys)]


def _merge_factors(pairs) -> tuple[tuple[Expr, ...], tuple]:
    """Merge repeated bases of ``(factor, key)`` pairs into integer powers
    and sort by key."""
    merged: dict[tuple, list] = {}
    for f, k in pairs:
        if isinstance(f, Binary) and f.op == "pow" and isinstance(f.right, Int):
            base, n, kb = f.left, f.right.value, k[2]  # k[2] keys the base
        else:
            base, n, kb = f, 1, k
        if kb in merged:
            merged[kb][1] += n
        else:
            merged[kb] = [base, n]
    out = []
    for kb, (base, n) in merged.items():
        if n == 1:
            out.append((kb, base))
        elif n != 0:
            f = Binary("pow", base, Int(n))
            out.append((canonical_key(f), f))
    out.sort(key=lambda p: p[0])
    return tuple(f for _, f in out), tuple(k for k, _ in out)


def _canon_pow(base: Expr, exponent: Expr) -> Expr:
    exp = build(terms(exponent))
    if isinstance(exp, Const) and exp.value.is_integer() and abs(exp.value) < 2**31:
        exp = Int(int(exp.value))
    b = build(terms(base))
    if isinstance(exp, Int) and exp.value in (0, 1):
        return b if exp.value == 1 else Const(1.0)
    if isinstance(b, Const) and isinstance(exp, (Int, Const)):
        if b.value == 0.0 and exp.value < 0:
            raise DivisionByZero("zero raised to a negative power")
        try:
            value = b.value**exp.value
        except OverflowError:
            raise UnsupportedNode("constant power is too large for a float") from None
        if isinstance(value, complex):
            raise UnsupportedNode("constant power has no real value")
        return Const(value)
    if isinstance(exp, Int) and isinstance(b, Binary) and b.op == "pow" and isinstance(b.right, Int):
        return _canon_pow(b.left, Int(b.right.value * exp.value))
    return Binary("pow", b, exp)


def _deriv_terms(e: Deriv) -> list:
    """Distribute a derivative over the terms of its child."""
    out = []
    for coeff, factors, _ in _collect(_terms(e.child)):
        if factors in ((), (Placeholder(),)):
            continue
        single = factors[0] if len(factors) == 1 else None
        if isinstance(single, Var):
            unit = _constant(1) if single.name == e.var and e.order == 1 else []
        elif isinstance(single, Deriv):
            unit = _factor(_normalize_deriv_nest(single, e.var, e.order))
        else:
            unit = _factor(Deriv(build([(1.0, factors)]), e.var, e.order))
        out += [(coeff * c, fs, ks) for c, fs, ks in unit]
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


def equivalent(a, b) -> bool:
    """True iff the two expressions (or equations) share a canonical form."""
    ca = canonicalize(a.residual if isinstance(a, Equation) else a)
    cb = canonicalize(b.residual if isinstance(b, Equation) else b)
    return ca == cb
