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
    walk,
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


def canonical_key(e: Expr) -> tuple:
    """Total-order key over subtrees; equal keys imply identical trees.

    The key is flat: every node's rank and fields in pre-order. A rank
    fixes how many children follow it, so no key is a prefix of another and
    flat keys sort as the nested ``(rank, fields, child keys)`` would. Being
    flat, keys of deep trees compare and hash without recursion.
    """
    return _key(e, {})


def _key(e: Expr, known: dict) -> tuple:
    """:func:`canonical_key`, taking the key of a node ``n`` in the tree
    from ``known[id(n)]`` where it has one."""
    out = []
    child = getattr(e, "child", None)
    if id(child) in known:  # one step above a known key: no walk needed
        _key_enter(e, (out, known))
        out += known[id(child)]
    else:
        walk(e, _key_enter, None, (out, known))
    return tuple(out)


def _key_enter(e: Expr, ctx):
    out, known = ctx
    if known and id(e) in known:
        out += known[id(e)]
        return (None,)
    t = type(e)
    if t is Binary:
        out += (_RANK_BINARY, _OP_RANK[e.op])
    elif t is Unary:
        out += (_RANK_UNARY, _FN_RANK[e.fn])
    elif t is Deriv:
        out += (_RANK_DERIV, e.var, e.order)
    elif t is Field:
        out.append(_RANK_FIELD)
    elif t is Var:
        out += (_RANK_VAR, e.name)
    elif t is Int:
        out += (_RANK_INT, e.value)
    elif t is Const:
        out += (_RANK_CONST, e.value)
    elif t is Placeholder:
        out.append(_RANK_PLACEHOLDER)
    else:
        raise TypeError(f"cannot key {t.__name__}")


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
    return [(c, fs) for c, fs, _ in _round(_collect(_terms(e)))]


def build(terms) -> Expr:
    """Binarize ``(coefficient, factors)`` pairs left to right, in the order
    given, as a sum of products; a coefficient of 1 is left out of a term
    that has factors. No terms give ``Const(0.0)``."""
    node = None
    for coeff, factors, *_ in terms:
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


def _round(ts) -> list:
    """Round exact coefficients to floats (the one rounding point), dropping
    terms that underflow to zero."""
    try:
        rounded = [(float(c), fs, ks) for c, fs, ks in ts]
    except OverflowError:
        raise UnsupportedNode("coefficient is too large for a float") from None
    return [t for t in rounded if t[0] != 0.0]


def _factor(f: Expr, ts=()) -> list:
    """``f`` as a term; the keys the terms ``ts`` hold for their factors are
    reused where ``f`` contains those factors."""
    return [(_ONE, (f,), (_key(f, {id(g): k for t in ts for g, k in zip(t[1], t[2])}),))]


def _constant(value) -> list:
    return [(Fraction(value), (), ())] if value != 0 else []


_MINUS_ONE = _constant(-1)


def _terms(e: Expr) -> list:
    """Uncollected terms of ``e``, folded bottom-up in one walk."""
    return walk(e, _enter_terms, _leave_terms)


def _enter_terms(e: Expr, _):
    t = type(e)
    if t is Binary and e.op == "pow":  # the exponent first: it is canonicalized first
        return (None, e.right, None, e.left, None)
    if t is Binary or t is Unary or t is Deriv:
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
        return _deriv_terms(e, a)
    if t is Unary:
        if e.fn == "neg":
            return _product(_MINUS_ONE, _collect(a))
        a = _collect(a)
        child = build(_round(a))
        if isinstance(child, Const):
            fn = math.sin if e.fn == "sin" else math.cos
            return _constant(fn(child.value))
        return _factor(Unary(e.fn, child), a)
    if e.op == "add":
        return a + b
    if e.op == "sub":
        return a + _product(_MINUS_ONE, _collect(b))
    if e.op == "mul":
        return _product(_collect(a), _collect(b))
    if e.op == "div":
        return _quotient(_collect(a), _collect(b))
    a, b = _collect(a), _collect(b)
    exponent = build(_round(a))
    result = _canon_pow(build(_round(b)), exponent)
    # the power is one factor unless it folded to another form
    if isinstance(result, Binary) and result.op == "pow":
        return _factor(result, a + b)
    return _terms(result)


def _quotient(left: list, denom: list) -> list:
    """Terms of the quotient of two collected operands."""
    if not denom:
        raise DivisionByZero("division by constant zero")
    if len(denom) == 1 and not denom[0][1]:
        return _product(left, _constant(1 / denom[0][0]))
    inverse = Binary("pow", build(_round(denom)), Int(-1))
    return _product(left, _collect(_terms(inverse)))


def _collect(ts: list) -> list:
    """Sum like terms exactly, drop zeros and sort, constants last."""
    while len(ts) >= 2:
        groups: dict[tuple, list] = {}
        for coeff, factors, keys in ts:
            group = groups.get(keys)
            if group is None:
                groups[keys] = [coeff, factors, keys]
            else:
                group[0] += coeff
        for keys, (coeff, factors, _) in groups.items():
            s = _bare_sum(coeff, factors)
            if s is not None:  # like opaque sums whose coefficients add up to 1 dissolve
                break
        else:
            kept = [tuple(g) for g in groups.values() if g[0] != 0]
            kept.sort(key=lambda t: (not t[2], t[2]))
            return kept
        del groups[keys]
        ts = [tuple(g) for g in groups.values()] + _terms(s)
    return ts


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
            coeff = c if coeff is _ONE else coeff * c
            pairs += zip(factors, keys)
        else:
            _, factors, keys = _factor(build(_round(side)), side)[0]
            pairs += zip(factors, keys)
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
        if type(f) is Binary and f.op == "pow" and type(f.right) is Int:
            base, n, kb = f.left, f.right.value, k[2:-2]  # the key of the base
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
            key = (_RANK_BINARY, _OP_RANK["pow"], *kb, _RANK_INT, n)
            out.append((key, Binary("pow", base, Int(n))))
    out.sort()  # by key: the keys differ, so factors are never compared
    return tuple(f for _, f in out), tuple(k for k, _ in out)


def _canon_pow(b: Expr, exp: Expr) -> Expr:
    """``b`` to the power ``exp``, both canonical."""
    if isinstance(exp, Const) and exp.value.is_integer() and abs(exp.value) < 2**31:
        exp = Int(int(exp.value))
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
        exp = build(terms(Int(b.right.value * exp.value)))
        return _canon_pow(build(terms(b.left)), exp)
    return Binary("pow", b, exp)


def _deriv_terms(e: Deriv, child: list) -> list:
    """Distribute a derivative over the terms of its child."""
    out = []
    for term in _collect(child):
        coeff, factors, _ = term
        if factors in ((), (Placeholder(),)):
            continue
        single = factors[0] if len(factors) == 1 else None
        if isinstance(single, Var):
            unit = _constant(1) if single.name == e.var and e.order == 1 else []
        elif isinstance(single, Deriv):
            unit = _factor(_normalize_deriv_nest(single, e.var, e.order))
        else:
            unit = _factor(Deriv(build([(1.0, factors)]), e.var, e.order), [term])
        out += [(coeff if c is _ONE else coeff * c, fs, ks) for c, fs, ks in unit]
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
    """True iff the two expressions (or equations) share a canonical form.

    Two canonical trees are equal exactly when their terms have equal
    coefficients and factor keys, so the trees are not built.
    """
    sides = [e.residual if isinstance(e, Equation) else e for e in (a, b)]
    sa, sb = ([(c, ks) for c, _, ks in _round(_collect(_terms(e)))] for e in sides)
    return sa == sb
