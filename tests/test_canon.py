import hashlib
import itertools
import sys
import threading
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdesym import canon as canon_module
from pdesym.canon import build, canonical_key, canonicalize, equivalent, terms
from pdesym.datagen import FAMILIES, equation_for
from pdesym.errors import DivisionByZero, PdesymError, UnsupportedNode
from pdesym.expr import (
    FIELD,
    Binary,
    Const,
    Deriv,
    Equation,
    Int,
    Unary,
    Var,
    parse_infix,
    to_infix,
)
from pdesym.metrics import symbolic_error
from pdesym.perturb import PerturbConfig, swap_branches
from pdesym.tokens import Dialect, TokenSeq, from_tokens, to_canonical_tokens, to_manual_tokens

from helpers import (
    PolySurrogate,
    evaluate,
    random_deriv_tree,
    random_general_tree,
    random_manual_tree,
    substitute_field,
    surrogate_expr,
)


def canon(src: str):
    return canonicalize(parse_infix(src).residual)


def test_reordered_sum_example():
    assert canon("x - 1 + 1 + y") == canon("y + x")
    assert to_canonical_tokens(parse_infix("x - 1 + 1 + y")) == to_canonical_tokens(
        parse_infix("y + x")
    )


def test_reordered_burgers_trees_share_canonical_form():
    k, eps = Const(0.9), Const(0.27)
    left = Binary(
        "add",
        Deriv(FIELD, "t", 1),
        Binary(
            "sub",
            Binary("mul", k, Binary("mul", FIELD, Deriv(FIELD, "x", 1))),
            Binary("mul", eps, Deriv(FIELD, "x", 2)),
        ),
    )
    right = Binary(
        "add",
        Binary("mul", Const(-1.0), Binary("mul", Deriv(FIELD, "x", 2), eps)),
        Binary(
            "add",
            Deriv(FIELD, "t", 1),
            Binary("mul", Deriv(FIELD, "x", 1), Binary("mul", k, FIELD)),
        ),
    )
    assert canonicalize(left) == canonicalize(right)
    assert equivalent(left, right)
    assert canonicalize(Equation(left)) == Equation(canonicalize(right))


def test_leaf_fixed_points():
    assert canonicalize(FIELD) == FIELD
    assert canonicalize(Var("x")) == Var("x")
    assert canonicalize(Const(2.5)) == Const(2.5)


def test_like_term_collection():
    assert canon("u_x + u_x") == Binary("mul", Const(2.0), Deriv(FIELD, "x", 1))
    assert canon("x - x") == Const(0.0)
    assert canon("5.0*x - 5.0*x") == Const(0.0)
    assert canon("2.0*x + 3.0*x") == Binary("mul", Const(5.0), Var("x"))
    assert canon("u - u") == Const(0.0)
    assert to_canonical_tokens(parse_infix("0.5*(x + y) + u + 0.5*(x + y)")) == (
        to_canonical_tokens(parse_infix("u + x + y"))
    )
    # coefficients that round to 1.0 without being exactly 1 dissolve too
    for text in ("u + 0.1*(10*(x + y))", "u + 0.3*(x + y) + 0.7*(x + y)"):
        once = canon(text)
        assert once == canon("u + x + y")
        assert canonicalize(once) == once


def test_constant_folding():
    assert canon("2.0*3.0") == Const(6.0)
    assert canon("(2.0 + 3.0)*x") == Binary("mul", Const(5.0), Var("x"))
    assert canon("2.0^3") == Const(8.0)
    assert canon("x^0") == Const(1.0)
    assert canon("x^1") == Var("x")
    assert canon("cos(0.0)") == Const(1.0)
    assert canon("6.0/3.0") == Const(2.0)
    assert canon("(x^-1)^-1") == Var("x")


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        canon("x/0.0")
    # (t - 0.455)*-0.906 distributes, so its second derivative is zero
    with pytest.raises(DivisionByZero):
        canon("(-u_t)_x/((t - 0.455)*-0.906)_xx")
    with pytest.raises(DivisionByZero):
        canon("0.0^-1")
    with pytest.raises(DivisionByZero):
        canonicalize(Binary("pow", Const(0.0), Const(-0.5)))


def test_factor_power_merging():
    assert canon("u*u") == Binary("pow", FIELD, Int(2))
    assert canon("u^2*u") == Binary("pow", FIELD, Int(3))
    assert canon("x/x") == Const(1.0)
    assert canon("(u^2)^3") == Binary("pow", FIELD, Int(6))
    assert canon("(u + x)^1*u_x") == canon("u_x*(u + x)")
    # a float exponent that is an integer becomes an Int, at any size
    assert canon("(u^65536)^65536") == Binary("pow", FIELD, Int(2**32))
    # a constant base stays the base of one power factor
    manual = from_tokens(TokenSeq(Dialect.MANUAL, ("pow", "2.0", "u")))
    assert canonicalize(manual.residual) == Binary("pow", Const(2.0), FIELD)


def test_derivative_normalization():
    assert equivalent(parse_infix("u_t - (u_x)_x"), parse_infix("u_t - u_xx"))
    assert canon("(u_x)_x") == Deriv(FIELD, "x", 2)
    assert canon("(2.0*u^2)_x") == Binary(
        "mul", Const(2.0), Deriv(Binary("pow", FIELD, Int(2)), "x", 1)
    )
    assert canon("(u^2 + u)_x") == canon("(u^2)_x + u_x")
    assert canon("(0.5)_x") == Const(0.0)


def test_products_nest_to_the_right_as_the_parser_groups_them():
    once = canon("u_t + 2*u^2*u_x*sin(u) - 0.1*x*u_xx - (u - x)")
    text = to_infix(once)
    assert text == "(-1.0)*u + u_t + 2.0*u_x*sin(u)*u^2 + (-0.1)*u_xx*x + x"
    assert parse_infix(text).residual == once


def test_mixed_partials_commute_but_do_not_tokenize():
    a = canon("((u_x)_t)_x")
    b = canon("((u_t)_x)_x")
    assert a == b
    with pytest.raises(UnsupportedNode):
        to_canonical_tokens(a)


# sum factors all of whose terms but one, or all, underflow to zero
_UNDERFLOWING_SUMS = (
    "(1e-200*(1e-200*x) + 2*y)*u_x",
    "(1e-200*(1e-200*x) + 1e-200*(1e-200*y))*u_x",
    "(1e-200*(1e-200*x) + 0.1)*(u/7 + x)",
    "(1e-200*(1e-200*x) + y/49)*(49*u_x)",
    "(1e-200*(1e-200*x) + 2)*(u + x)*(1e-200*(1e-200*x) + y)",
)


def test_equivalent_examples():
    assert equivalent(parse_infix("x - 1 + 1 + y"), parse_infix("y + x"))
    assert not equivalent(parse_infix("u_t"), parse_infix("u_x"))
    # a constant multiple of a sum, and a derivative of one, distribute
    for a, b in (
        ("u_t - (u - x)", "u_t - u + x"),
        ("(t - (u - x))*u_x", "(t - u + x)*u_x"),
        ("sin(u - (u_x - x))", "sin(u - u_x + x)"),
        ("-(u + x)*u_x", "(-u - x)*u_x"),
        ("(2*(u + x))_t", "2*u_t"),
        ("2*(u + x)", "2*u + 2*x"),
        # the terms of a sum factor that underflow to zero drop out of it
        (_UNDERFLOWING_SUMS[0], "2*y*u_x"),
        (_UNDERFLOWING_SUMS[1], "0"),
        (_UNDERFLOWING_SUMS[2], "0.1*(u/7 + x)"),
        # a surviving term keeps its exact coefficient
        (_UNDERFLOWING_SUMS[3], "y*u_x"),
        # a sum factor left with a constant distributes it
        (_UNDERFLOWING_SUMS[4], "2*(u + x)*y"),
        # a constant distributes exactly over a sum whose terms it rescales
        ("1e200*(1e-200*(1e-200*x) + y)", "1e200*(1e-200*(1e-200*x)) + 1e200*y"),
        ("1e-300*(1e300*(1e300*x) + y)", "1e-300*(1e300*(1e300*x)) + 1e-300*y"),
        ("2*(0.5*(5e-324*x) + y)", "2*(0.5*(5e-324*x)) + 2*y"),
        # integral exponents merge at any size
        ("u^3000000000", "u^1500000000*u^1500000000"),
    ):
        assert equivalent(parse_infix(a), parse_infix(b))
        assert to_canonical_tokens(parse_infix(a)) == to_canonical_tokens(parse_infix(b))


def test_non_finite_constants_are_typed_errors():
    for src in ("2^100000", "(1e200*x)*1e200"):
        with pytest.raises(UnsupportedNode):
            canon(src)
        with pytest.raises(UnsupportedNode):
            to_canonical_tokens(parse_infix(src))
    for value in (float("inf"), float("nan")):
        tree = Binary("add", Deriv(FIELD, "t", 1), Binary("mul", Const(value), Deriv(FIELD, "x", 1)))
        with pytest.raises(UnsupportedNode):
            canonicalize(tree)
        with pytest.raises(UnsupportedNode):
            to_canonical_tokens(tree)
    with pytest.raises(UnsupportedNode):
        canonicalize(Binary("pow", Const(-8.0), Const(0.5)))


_LIKE_TERM_FACTORS = [
    FIELD,
    Deriv(FIELD, "x", 1),
    Deriv(FIELD, "x", 2),
    Deriv(Binary("pow", FIELD, Int(2)), "x", 1),
    Unary("sin", FIELD),
    Var("x"),
]
# three-decimal coefficients in thousandths; a multiple of 125 would be dyadic
_MILLIS = st.integers(-2000, 2000).filter(lambda k: k % 125 != 0)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_like_term_splits_tokenize_alike_however_grouped(data):
    picks = data.draw(st.lists(st.sampled_from(_LIKE_TERM_FACTORS), min_size=2,
                               max_size=4, unique=True))
    parts = []
    for factor in picks:
        millis = data.draw(st.lists(_MILLIS, min_size=2, max_size=4))
        parts += [Binary("mul", Const(k / 1000), factor) for k in millis]

    def group(items):
        if len(items) == 1:
            return items[0]
        cut = data.draw(st.integers(1, len(items) - 1))
        return Binary("add", group(items[:cut]), group(items[cut:]))

    fixed = parts[0]
    for p in parts[1:]:
        fixed = Binary("add", fixed, p)
    tree = group(data.draw(st.permutations(parts)))
    if data.draw(st.booleans()):
        tree = swap_branches(tree, PerturbConfig(seed=data.draw(st.integers(0, 2**31))))
    assert to_canonical_tokens(Equation(tree)) == to_canonical_tokens(Equation(fixed))


def test_long_flat_sum_collects_to_one_term():
    tree = parse_infix(" + ".join(["0.001*x"] * 3000)).residual
    coeff = float(3000 * Fraction(0.001))
    assert canonicalize(tree) == Binary("mul", Const(coeff), Var("x"))
    # swapped links turn the left spine into a zigzag, also walked in a loop
    zigzag = swap_branches(tree, PerturbConfig(swap_prob=0.5, seed=1))
    assert canonicalize(zigzag) == Binary("mul", Const(coeff), Var("x"))


def test_deep_like_terms_collect_to_one_term():
    """Two equal 3,000-deep factors group as like terms: their flat keys
    compare and hash without recursion."""
    deep = "sin(" * 3000 + "u" + ")" * 3000
    ((coeff, (factor,)),) = terms(parse_infix(f"{deep} + {deep}").residual)
    assert coeff == 2.0
    assert canonical_key(factor) == (3, 0) * 3000 + (1,)


def test_long_product_chains_collect_to_one_power():
    """The parser groups a pure ``*`` chain into a right spine and a chain
    with ``/`` into a left spine; both, and the zigzags that branch swaps
    make of them, are walked without recursion."""
    x3000 = Binary("pow", Var("x"), Int(3000))
    tree = parse_infix("*".join(["x"] * 3000)).residual
    assert canonicalize(tree) == x3000
    assert canonicalize(swap_branches(tree, PerturbConfig(swap_prob=0.5, seed=2))) == x3000
    tree = parse_infix("*".join(["x"] * 3000) + "/2").residual
    assert canonicalize(tree) == Binary("mul", Const(0.5), x3000)
    tree = parse_infix("x/2*" + "*".join(["x"] * 2999)).residual
    assert canonicalize(tree) == Binary("mul", Const(0.5), x3000)
    tree = parse_infix("x/" + "/".join(["x"] * 2999) + "*u").residual
    assert canonicalize(tree) == Binary("mul", FIELD, Binary("pow", Var("x"), Int(-2998)))


def test_reciprocal_nest_canonicalizes_in_linear_time():
    """``1/(...1/(x + 1) + y...) + y``: each level inverts the terms its
    denominator already has, instead of canonicalizing the whole built
    denominator again (which grew about cubically: 3.3 s at 400 levels)."""
    e = Binary("add", Var("x"), Int(1))
    for _ in range(400):
        e = Binary("add", Binary("div", Int(1), e), Var("y"))
    start = time.perf_counter()
    ts = terms(e)
    assert time.perf_counter() - start < 0.5
    assert len(ts) == 2 and ts[1] == (1.0, (Var("y"),))


def test_scaled_sum_nest_canonicalizes_in_linear_time():
    """``2*(0.5*(...(u + x)...))``: each level scales the terms below it,
    without building the sum again; so does the nest under ``_x``."""
    e = Binary("add", FIELD, Var("x"))
    for i in range(4000):
        e = Binary("mul", Const(2.0 if i % 2 else 0.5), e)
    start = time.perf_counter()
    assert canonicalize(e) == Binary("add", FIELD, Var("x"))
    assert canonicalize(Deriv(e, "x", 1)) == Binary("add", Deriv(FIELD, "x", 1), Const(1.0))
    assert time.perf_counter() - start < 0.5


def _quotient_by_rewalk(left, denom):
    """The quotient through a walk of the built inverse ``denom^-1``."""
    if not denom:
        raise DivisionByZero("division by constant zero")
    if len(denom) == 1 and not denom[0][1]:
        m, e = denom[0][0]
        return canon_module._product(left, [((1 / Fraction(m), -e), ())])
    inverse = Binary("pow", build(canon_module._round(denom)), Int(-1))
    return canon_module._product(left, canon_module._collect(canon_module._terms(inverse)))


def test_quotient_matches_the_walk_of_its_built_inverse(monkeypatch):
    def tokens_of(seed):  # a fresh tree each time, so no fold is reused
        try:
            return to_canonical_tokens(random_manual_tree(np.random.default_rng(seed), 5))
        except (DivisionByZero, UnsupportedNode) as exc:
            return type(exc)

    ours = [tokens_of(seed) for seed in range(600)]
    monkeypatch.setattr(canon_module, "_quotient", _quotient_by_rewalk)
    assert ours == [tokens_of(seed) for seed in range(600)]


def test_canonical_key_is_total_order_on_distinct_nodes():
    nodes = [
        FIELD,
        Deriv(FIELD, "t", 1),
        Deriv(FIELD, "x", 1),
        Deriv(FIELD, "x", 2),
        Unary("sin", FIELD),
        Unary("cos", FIELD),
        Binary("pow", FIELD, Int(2)),
        Var("x"),
        Var("y"),
        Const(1.0),
        Const(2.0),
    ]
    keys = [canonical_key(n) for n in nodes]
    assert len(set(keys)) == len(keys)
    # field sorts before derivatives, t-derivative before x, lower order first
    assert canonical_key(FIELD) < canonical_key(Deriv(FIELD, "t", 1))
    assert canonical_key(Deriv(FIELD, "t", 1)) < canonical_key(Deriv(FIELD, "x", 1))
    assert canonical_key(Deriv(FIELD, "x", 1)) < canonical_key(Deriv(FIELD, "x", 3))
    assert canonical_key(Var("x")) < canonical_key(Const(0.0))


def _seeded_trees(seed: int, count: int = 10_000):
    """``count`` trees from each ``helpers`` generator."""
    for make in (random_manual_tree, random_general_tree, random_deriv_tree):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            yield make(rng)


def test_idempotence():
    checked = 0
    underflowing = [parse_infix(src).residual for src in _UNDERFLOWING_SUMS]
    for tree in itertools.chain(_seeded_trees(23), underflowing):
        try:
            once = canonicalize(tree)
        except DivisionByZero:
            continue
        checked += 1
        assert canonicalize(once) == once
    assert checked > 29_000


def test_every_canonical_form_prints_and_reads_back():
    """Every tree and every canonical form prints; the print of a tree
    reads back equivalent to it, and the print of a canonical form
    canonicalizes back to that form."""
    checked = 0
    for tree in _seeded_trees(29):
        text = to_infix(tree)
        try:
            once = canonicalize(tree)
        except DivisionByZero:
            continue
        assert equivalent(parse_infix(text), tree)
        assert canonicalize(parse_infix(to_infix(once)).residual) == once
        checked += 1
    assert checked > 29_000


# each rewrite the module docstring promises: (name, one side, the other)
_REWRITES = (
    ("c*(a + b) = c*a + c*b",
     lambda a, b, c, var: Binary("mul", c, Binary("add", a, b)),
     lambda a, b, c, var: Binary("add", Binary("mul", c, a), Binary("mul", c, b))),
    ("-(a + b) = -a - b",
     lambda a, b, c, var: Unary("neg", Binary("add", a, b)),
     lambda a, b, c, var: Binary("sub", Unary("neg", a), b)),
    ("(a + b)_x = a_x + b_x",
     lambda a, b, c, var: Deriv(Binary("add", a, b), var, 1),
     lambda a, b, c, var: Binary("add", Deriv(a, var, 1), Deriv(b, var, 1))),
    ("a - b = a + (-1)*b",
     lambda a, b, c, var: Binary("sub", a, b),
     lambda a, b, c, var: Binary("add", a, Binary("mul", Const(-1.0), b))),
)


def _tokens_or_error(tree):
    try:
        return to_canonical_tokens(tree).tokens
    except PdesymError as exc:
        return type(exc)


@given(st.integers(0, 2**32 - 1), st.sampled_from(_REWRITES))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_promised_rewrites_give_identical_tokens(seed, rewrite):
    rng = np.random.default_rng(seed)
    make = (random_manual_tree, random_general_tree, random_deriv_tree)[seed % 3]
    a, b = make(rng, 3), make(rng, 3)
    c = Const(float(np.round(rng.uniform(-2.0, 2.0), 3)))
    var = "xt"[rng.integers(2)]
    _, one, other = rewrite
    assert _tokens_or_error(one(a, b, c, var)) == _tokens_or_error(other(a, b, c, var))


@given(st.integers(0, 10_000), st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_order_invariance_under_branch_swaps(seed, swap_seed):
    tree = random_general_tree(np.random.default_rng(seed))
    swapped = swap_branches(tree, PerturbConfig(swap_prob=0.5, seed=swap_seed))
    try:
        expected = canonicalize(tree)
    except DivisionByZero:
        return
    assert canonicalize(swapped) == expected


def _sample_values(tree, n_points=64, seed=0):
    surrogate = PolySurrogate((0.3, -0.7, 0.45, 0.8, -0.2, 0.6, -0.35, 0.15))
    body = substitute_field(tree, surrogate_expr(surrogate))
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 1.0, n_points)
    ts = rng.uniform(0.0, 1.0, n_points)
    vals = np.asarray(evaluate(body, {"x": xs, "t": ts}), dtype=float)
    return np.broadcast_to(vals, xs.shape).copy()


def test_numeric_soundness_of_canonicalization():
    rng = np.random.default_rng(123)
    checked = 0
    for _ in range(200):
        tree = random_general_tree(rng)
        try:
            reduced = canonicalize(tree)
        except DivisionByZero:
            continue
        before = _sample_values(tree)
        after = _sample_values(reduced)
        mask = np.isfinite(before) & np.isfinite(after)
        if not mask.any():
            continue
        checked += 1
        diff = np.abs(before[mask] - after[mask])
        assert np.all(diff <= 1e-9 * (1.0 + np.abs(before[mask])))
    assert checked > 150


def test_random_swap_harness_with_numeric_cross_check():
    rng = np.random.default_rng(321)
    for i in range(200):
        tree = random_general_tree(rng, depth=3)
        swapped = swap_branches(tree, PerturbConfig(swap_prob=0.5, seed=i))
        assert equivalent(tree, swapped)
        before = _sample_values(tree, n_points=16, seed=i)
        after = _sample_values(swapped, n_points=16, seed=i)
        mask = np.isfinite(before) & np.isfinite(after)
        assert np.allclose(before[mask], after[mask], rtol=1e-9, atol=1e-9)


def test_canonical_zero_residual():
    assert canon("u - u") == Const(0.0)
    assert list(to_canonical_tokens(parse_infix("u - u")).tokens) == ["×", "0"]


def test_canonical_tokens_then_equivalent_fold_the_tree_once(monkeypatch):
    """``equivalent`` reuses the fold ``to_canonical_tokens`` has just made
    of the same root."""
    p = parse_infix("u_t + 0.5*(u^2)_x - 0.05*u_xx = 0")
    folded = []
    fold = canon_module._terms
    monkeypatch.setattr(canon_module, "_terms", lambda e: folded.append(e) or fold(e))
    decoded = from_tokens(to_canonical_tokens(p))
    assert equivalent(decoded, p)
    assert [e is p.residual for e in folded] == [True, False]
    assert folded[1] is decoded.residual


def test_a_power_of_a_power_leaves_only_its_root_in_the_memo():
    """``(b^2)^3`` folds its exponent product and its base without the
    public entry point, so neither enters the memo of recent roots; an
    exponent product beyond the float range is an unsupported node."""
    canon_module._rounded.cache_clear()
    e = parse_infix("((u + x)^2)^3*u_x + u_t").residual
    assert build(terms(e)) == parse_infix("u_t + u_x*(u + x)^6").residual
    info = canon_module._rounded.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert terms(e) and canon_module._rounded.cache_info().hits == 1
    with pytest.raises(UnsupportedNode, match="too large for a float"):
        terms(parse_infix(f"(u^{10**300})^1000000000").residual)


def test_the_memo_is_keyed_by_identity():
    """A root ``==`` to a cached root but another object is folded for itself."""
    canon_module._rounded.cache_clear()
    zero, minus_zero = (Binary("add", FIELD, Const(v)) for v in (0.0, -0.0))
    assert zero == minus_zero and zero is not minus_zero
    assert terms(zero) == terms(minus_zero) == [(1.0, (FIELD,))]
    assert canon_module._rounded.cache_info().misses == 2


def test_a_node_that_folds_to_itself_is_marked():
    own = Unary("sin", Binary("add", FIELD, Var("x")))
    other = Unary("sin", Binary("add", Var("x"), FIELD))
    assert canonicalize(Binary("add", own, other)) == Binary("mul", Const(2.0), own)
    assert own._canon and not other._canon


def test_terms_returns_a_fresh_list_each_call():
    e = parse_infix("u_t + 0.5*(u^2)_x - 0.05*u_xx").residual
    first = terms(e)
    expected = list(first)
    first.reverse()
    first.append((2.0, ()))
    assert terms(e) == expected


# Pinned since a constant distributes over a sum, products nest to the
# right and every derivative prints; a change to it is a change of
# canonical output, to be recorded in CHANGES.md.
_CANONICAL_OUTPUTS_SHA256 = "78c713c77a88145895cb5cc308f3f9688a992908e21b44033434e14665a3cdff"


def _canonical_outputs_digest() -> str:
    """sha256 over the canonical tokens, canonical infix, manual tokens (or
    the error type where there are none) and three ``equivalent`` verdicts
    of 3,000 seeded random trees and the six family templates."""
    trees = []
    for seed, make in ((1, random_manual_tree), (2, random_general_tree), (3, random_deriv_tree)):
        rng = np.random.default_rng(seed)
        trees += [make(rng) for _ in range(1000)]
    trees += [equation_for(spec, spec.q1, spec.q2).residual for spec in FAMILIES.values()]
    digest = hashlib.sha256()
    previous = trees[-1]
    for i, tree in enumerate(trees):
        swapped = swap_branches(tree, PerturbConfig(swap_prob=0.5, seed=i))
        for output in (
            lambda: to_canonical_tokens(tree).text,
            lambda: to_infix(canonicalize(tree)),
            lambda: to_manual_tokens(tree).text,
            lambda: equivalent(tree, swapped),
            lambda: equivalent(from_tokens(to_canonical_tokens(tree)), tree),
            lambda: equivalent(tree, previous),
        ):
            try:
                text = str(output())
            except PdesymError as exc:
                text = type(exc).__name__
            digest.update(text.encode() + b"\n")
        previous = tree
    return digest.hexdigest()


def test_canonical_outputs_match_the_pinned_digest():
    assert _canonical_outputs_digest() == _CANONICAL_OUTPUTS_SHA256


def _outputs(trees, order) -> dict:
    """Each library call's output on ``trees``, visited in ``order``, as text
    or the name of the library error raised, by tree index."""
    out = {}
    for i in order:
        tree, other = trees[i], trees[i - 1]
        texts = []
        for output in (
            lambda: to_infix(canonicalize(tree)),
            lambda: to_manual_tokens(tree).text,
            lambda: to_canonical_tokens(tree).text,
            lambda: to_infix(from_tokens(to_canonical_tokens(tree)).residual),
            lambda: equivalent(from_tokens(to_canonical_tokens(tree)), tree),
            lambda: equivalent(canonicalize(other), tree),
            lambda: i % 20 or symbolic_error(Equation(tree), Equation(other), seed=i),
        ):
            try:
                texts.append(repr(output()))
            except PdesymError as exc:
                texts.append(type(exc).__name__)
        out[i] = texts
    return out


def test_threads_sharing_the_library_get_single_thread_results():
    """Four threads run the canonicalizer, both serializers, the decoder and
    ``symbolic_error`` over the same generator trees, each from its own
    start, while the interpreter switches threads every microsecond. Each
    thread's outputs equal a single-thread pass: the memo of recent roots
    and the nodes' cached keys and marks are shared safely."""
    rng = np.random.default_rng(26)
    trees = [make(rng) for _ in range(400)
             for make in (random_general_tree, random_manual_tree)]
    expected = _outputs(trees, range(len(trees)))
    results, errors = {}, []

    def run(k):
        start = k * len(trees) // 4
        try:
            results[k] = _outputs(trees, [*range(start, len(trees)), *range(start)])
        except Exception as exc:  # raised in a thread, it would not fail the test
            errors.append(repr(exc))

    threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert all(results[k] == expected for k in range(4))
