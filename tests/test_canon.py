from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdesym.canon import canonical_key, canonicalize, equivalent, terms
from pdesym.errors import DivisionByZero, UnsupportedNode
from pdesym.expr import (
    FIELD,
    Binary,
    Const,
    Deriv,
    Equation,
    Int,
    Unary,
    Var,
    evaluate,
    parse_infix,
    substitute_field,
)
from pdesym.metrics import PolySurrogate
from pdesym.perturb import PerturbConfig, swap_branches
from pdesym.tokens import to_canonical_tokens

from helpers import random_general_tree


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


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        canon("x/0.0")
    with pytest.raises(DivisionByZero):
        canon("0.0^-1")
    with pytest.raises(DivisionByZero):
        canonicalize(Binary("pow", Const(0.0), Const(-0.5)))


def test_factor_power_merging():
    assert canon("u*u") == Binary("pow", FIELD, Int(2))
    assert canon("u^2*u") == Binary("pow", FIELD, Int(3))
    assert canon("x/x") == Const(1.0)
    assert canon("(u^2)^3") == Binary("pow", FIELD, Int(6))


def test_derivative_normalization():
    assert equivalent(parse_infix("u_t - (u_x)_x"), parse_infix("u_t - u_xx"))
    assert canon("(u_x)_x") == Deriv(FIELD, "x", 2)
    assert canon("(2.0*u^2)_x") == Binary(
        "mul", Const(2.0), Deriv(Binary("pow", FIELD, Int(2)), "x", 1)
    )
    assert canon("(u^2 + u)_x") == canon("(u^2)_x + u_x")
    assert canon("(0.5)_x") == Const(0.0)


def test_mixed_partials_commute_but_do_not_tokenize():
    a = canon("((u_x)_t)_x")
    b = canon("((u_t)_x)_x")
    assert a == b
    with pytest.raises(UnsupportedNode):
        to_canonical_tokens(a)


def test_equivalent_examples():
    assert equivalent(parse_infix("x - 1 + 1 + y"), parse_infix("y + x"))
    assert not equivalent(parse_infix("u_t"), parse_infix("u_x"))


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


@given(st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_idempotence(seed):
    tree = random_general_tree(np.random.default_rng(seed))
    try:
        once = canonicalize(tree)
    except DivisionByZero:
        return
    assert canonicalize(once) == once


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
    body = substitute_field(tree, surrogate.as_expr())
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
