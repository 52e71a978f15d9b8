import gc
import json
import os
import pickle
import re
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

import pdesym
from pdesym import metrics
from pdesym.canon import canonical_key, canonicalize
from pdesym.datagen import FAMILIES, equation_for
from pdesym.errors import ParseError, PdesymError, UnknownSymbol, UnsupportedNode
from pdesym.expr import (
    FIELD,
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
    parse_infix,
    to_infix,
)
from pdesym.metrics import symbolic_error
from pdesym.perturb import PerturbConfig, swap_branches
from pdesym.tokens import from_tokens, to_canonical_tokens, to_manual_tokens

import helpers
from helpers import (
    differentiate,
    evaluate,
    random_manual_tree,
    substitute_field,
    surrogate_expr,
)


def test_parse_sine_flux_equation():
    eq = parse_infix("u_t + 0.955*cos(u)*u_x = 0")
    expected = Binary(
        "add",
        Deriv(FIELD, "t", 1),
        Binary(
            "mul",
            Const(0.955),
            Binary("mul", Unary("cos", FIELD), Deriv(FIELD, "x", 1)),
        ),
    )
    assert eq.residual == expected


def test_parse_left_assoc_addition_chain():
    eq = parse_infix("x - 1 + 1 + y")
    expected = Binary(
        "add",
        Binary("add", Binary("sub", Var("x"), Const(1.0)), Const(1.0)),
        Var("y"),
    )
    assert eq.residual == expected


def test_parse_single_field_leaf():
    assert parse_infix("u").residual == FIELD


def test_parse_flux_derivative_group():
    eq = parse_infix("(u^2)_x")
    assert eq.residual == Deriv(Binary("pow", FIELD, Int(2)), "x", 1)


def test_parse_nested_derivative_group():
    eq = parse_infix("(u_x)_x")
    assert eq.residual == Deriv(Deriv(FIELD, "x", 1), "x", 1)


def test_parse_nonzero_rhs_subtracted():
    eq = parse_infix("u_t = 0.01*u_xx")
    assert eq.residual == Binary(
        "sub", Deriv(FIELD, "t", 1), Binary("mul", Const(0.01), Deriv(FIELD, "x", 2))
    )


def test_parse_unary_minus_folds_literals():
    eq = parse_infix("-2.5*u")
    assert eq.residual == Binary("mul", Const(-2.5), FIELD)
    assert parse_infix("-u").residual == Unary("neg", FIELD)


def test_parse_power_requires_integer_exponent():
    with pytest.raises(ParseError):
        parse_infix("u^2.5")


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError) as err:
        parse_infix("u_t +")
    assert err.value.offset == 5
    with pytest.raises(ParseError) as err:
        parse_infix("u_t @ u_x")
    assert err.value.offset == 4


@pytest.mark.parametrize(
    "src, message",
    [
        ("(" * 3000 + "u" + ")" * 2999, "expected ')'"),
        ("-" * 3000, "expected expression"),
        ("sin(" * 3000 + "u" + ")" * 2999, "expected ')'"),
    ],
    ids=["parentheses", "unary-minus", "sin"],
)
def test_deep_nesting_is_a_parse_error(src, message):
    """A deep nest that is malformed at its far end fails there."""
    with pytest.raises(ParseError, match=re.escape(message)) as err:
        parse_infix(src)
    assert err.value.offset == len(src)


@pytest.mark.parametrize(
    "src, key",
    [
        ("(" * 3000 + "u" + ")" * 3000, (1,)),
        ("-" * 3000 + "u", (3, 2) * 3000 + (1,)),
        ("sin(" * 3000 + "u" + ")" * 3000, (3, 0) * 3000 + (1,)),
        ("(" * 3000 + "u" + ")_x" * 3000, (2, "x", 1) * 3000 + (1,)),
    ],
    ids=["parentheses", "unary-minus", "sin", "deriv"],
)
def test_deep_nesting_parses_and_prints(src, key):
    e = parse_infix(src).residual
    assert canonical_key(e) == key
    assert canonical_key(parse_infix(to_infix(e)).residual) == key


def test_non_finite_literals_are_parse_errors():
    for src, offset in (("u_t + 1e400*u", 6), ("u - " + "9" * 400, 4), ("-1e999", 1)):
        with pytest.raises(ParseError, match="outside the float range") as err:
            parse_infix(src)
        assert err.value.offset == offset
    with pytest.raises(UnsupportedNode):
        to_infix(Binary("mul", Const(float("inf")), FIELD))
    with pytest.raises(UnsupportedNode):
        to_infix(Const(float("nan")))


def test_unknown_symbols():
    with pytest.raises(UnknownSymbol):
        parse_infix("tan(u)")
    with pytest.raises(UnknownSymbol):
        parse_infix("u_yy + u_t")
    with pytest.raises(UnknownSymbol):
        parse_infix("y(x)")


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_infix("u_t = 0 = 0")


def test_to_infix_round_trip():
    sources = [
        "u_t + 0.955*cos(u)*u_x = 0",
        "x - 1 + 1 + y",
        "u_t + 0.5*(u^2)_x = 0.01*u_xx",
        "sin(u + 1.0)*u_xx - 2.0/x",
        "u^3 - -2.0*u",
    ]
    for src in sources:
        eq = parse_infix(src)
        assert parse_infix(to_infix(eq.residual)).residual == eq.residual


def test_to_infix_round_trip_random_trees():
    rng = np.random.default_rng(11)
    count = 0
    for _ in range(200):
        tree = random_manual_tree(rng)
        try:
            text = to_infix(tree)
        except UnsupportedNode:
            continue
        count += 1
        assert parse_infix(text).residual == tree
    assert count > 150


def test_to_infix_writes_other_orders_as_nests_of_shorthand_groups():
    """A derivative order without a shorthand prints as a nest of the
    groups the parser reads, the largest innermost; the nest reparses and
    canonicalizes back to one derivative."""
    u2 = Binary("pow", FIELD, Int(2))
    for tree, text in (
        (Deriv(FIELD, "t", 2), "(u_t)_t"),
        (Deriv(FIELD, "x", 5), "(u_xxx)_xx"),
        (Deriv(FIELD, "x", 7), "((u_xxx)_xxx)_x"),
        (Deriv(u2, "x", 5), "((u^2)_xxx)_xx"),
        (Deriv(Deriv(u2, "x", 3), "x", 2), "((u^2)_xxx)_xx"),
        (Deriv(Deriv(FIELD, "t", 2), "x", 1), "((u_t)_t)_x"),
    ):
        assert to_infix(tree) == text
        assert canonicalize(parse_infix(text).residual) == canonicalize(tree)


def _fd_partial(func, x, t, var, h=1e-6):
    if var == "x":
        return (func(x + h, t) - func(x - h, t)) / (2 * h)
    return (func(x, t + h) - func(x, t - h)) / (2 * h)


def test_to_infix_brackets_what_would_regroup():
    """A negative exponent and a right-grouped product before ``/`` print
    in a form that reads back as the same tree."""
    abc = Binary("mul", Var("a"), Binary("mul", Var("b"), Var("c")))
    for tree in (Binary("pow", FIELD, Int(-2)), Binary("div", abc, Var("d")),
                 Binary("div", Binary("mul", abc, Var("e")), Var("d"))):
        assert parse_infix(to_infix(tree)).residual == tree
    # a product whose spine already holds a division needs no outer brackets
    assert to_infix(parse_infix("a*(b/c)/d").residual) == "a*(b/c)/d"


def test_to_infix_round_trips_long_chains():
    for src in (" + ".join(["u_x"] * 3000), "*".join(["u"] * 3000),
                " - ".join(["x"] * 3000), "/".join(["2"] * 3000)):
        tree = parse_infix(src).residual
        assert parse_infix(to_infix(tree)).residual == tree


_BURGERS = equation_for(FAMILIES["burgers"], 0.5, 0.05)
_SIBLINGS = [FIELD, Var("x"), Var("t"), Deriv(FIELD, "x", 1), Deriv(FIELD, "x", 3),
             Const(0.5), Const(-2.0)]


def _chain(seed: int, links: int) -> Expr:
    """A tree ``links`` nodes deep: each link wraps the chain so far in a
    random node type, a binary one next to a leaf on a random side. At most
    two derivative links, both among the first eight, keep the symbolic
    expansion of ``substitute_field`` small."""
    rng = np.random.default_rng(seed)
    starts = [FIELD, Var("x"), Deriv(FIELD, "x", 2), Deriv(FIELD, "t", 1), Placeholder()]
    e = starts[rng.integers(len(starts))]
    derivs = 0
    for i in range(links):
        kind = int(rng.integers(10))
        if kind < 3:
            e = Unary(("sin", "cos", "neg")[kind], e)
        elif kind == 3 and i < 8 and derivs < 2:
            e = Deriv(e, "x", int(rng.integers(1, 4)))
            derivs += 1
        elif kind <= 4:
            e = Binary("pow", e, Int(int(rng.integers(0, 4))))
        else:
            op = ("add", "sub", "mul", "div", "mul")[kind - 5]
            leaf = _SIBLINGS[rng.integers(len(_SIBLINGS))]
            e = Binary(op, e, leaf) if rng.random() < 0.5 else Binary(op, leaf, e)
    return e


@given(st.integers(0, 2**32 - 1), st.integers(1, 3000))
@example(1, 3000)
@settings(max_examples=10, deadline=None)
def test_every_walker_handles_long_chains(seed, links):
    """Deep trees of every node type go through every public walker with no
    recursion: each returns or raises its typed error, and printing or
    serializing then reading back is the identity."""
    e = swap_branches(_chain(seed, links), PerturbConfig(swap_prob=0.5, seed=seed))
    for write, read in ((to_infix, parse_infix), (to_manual_tokens, from_tokens)):
        try:
            written = write(e)
        except UnsupportedNode:
            continue
        assert read(written).residual == e
    env = {"x": np.linspace(0.0, 1.0, 4), "t": 0.5}
    walks = (
        canonicalize,
        to_canonical_tokens,
        lambda e: differentiate(e, "x"),
        lambda e: evaluate(substitute_field(e, Binary("mul", Var("t"), Var("x"))), env),
        lambda e: symbolic_error(Equation(e), _BURGERS),
    )
    with pytest.MonkeyPatch.context() as mp:  # small surrogate grids
        for name, size in (("N_POLYS", 2), ("N_X", 8), ("N_T", 8)):
            mp.setattr(metrics, name, size)
        for walk in walks:
            try:
                walk(e)
            except PdesymError:
                pass


def test_differentiate_against_finite_differences():
    # trees over x,t only so they evaluate directly
    cases = [
        parse_infix("x^3 + 2.0*t*x").residual,
        parse_infix("sin(1.3*x)*cos(t)").residual,
        parse_infix("x*t - t^2/(x + 3.0)").residual,
    ]
    pts = np.random.default_rng(5).uniform(0.2, 0.8, size=(8, 2))
    for tree in cases:
        def func(x, t, tree=tree):
            return evaluate(tree, {"x": x, "t": t})

        for var in ("x", "t"):
            dtree = differentiate(tree, var)
            for x, t in pts:
                exact = evaluate(dtree, {"x": x, "t": t})
                approx = _fd_partial(func, x, t, var)
                assert abs(exact - approx) < 1e-5 * (1 + abs(exact))


def test_evaluate_divides_floats_like_arrays():
    with np.errstate(divide="ignore", invalid="ignore"):
        assert evaluate(parse_infix("1/0").residual, {}) == np.inf
        assert np.isnan(evaluate(parse_infix("0/0").residual, {}))


def test_differentiate_placeholder_is_zero():
    from pdesym.expr import Placeholder

    assert differentiate(Placeholder(), "x") == Const(0.0)


def test_substitute_field_expands_derivatives():
    # residual u_t with u := x^2 * t gives x^2
    eq = parse_infix("u_t")
    replaced = substitute_field(eq.residual, parse_infix("x^2*t").residual)
    assert evaluate(replaced, {"x": 3.0, "t": 7.0}) == pytest.approx(9.0)
    # (u^2)_x with u := x*t gives 2*x*t^2
    flux = parse_infix("(u^2)_x").residual
    replaced = substitute_field(flux, parse_infix("x*t").residual)
    assert evaluate(replaced, {"x": 2.0, "t": 3.0}) == pytest.approx(2 * 2 * 9.0)


def test_evaluate_rejects_field_nodes():
    with pytest.raises(UnsupportedNode):
        evaluate(FIELD, {})


def test_var_rejects_reserved_names():
    with pytest.raises(ValueError):
        Var("u")
    with pytest.raises(ValueError):
        Var("u_xx")
    for name in (1, 1.0, b"x"):
        with pytest.raises(ValueError, match="must be a str"):
            Var(name)


def test_deriv_invariants():
    with pytest.raises(ValueError):
        Deriv(FIELD, "y", 1)
    for order in (0, 2.0, 1.5, True):
        with pytest.raises(ValueError, match="order must be an int"):
            Deriv(FIELD, "x", order)


def test_equation_is_value_like():
    a = parse_infix("u_t + u_x")
    b = parse_infix("u_t + u_x")
    assert a == Equation(a.residual)
    assert a.residual == b.residual


def test_node_equality_keeps_float_semantics():
    """``Const(-0.0) == Const(0.0)``, yet they print apart, so a zero is
    never shared with the other sign's (they share one hash, so the one
    built first holds the table entry); a NaN equals nothing and is never
    shared."""
    neg, pos = Const(-0.0), Const(0.0)
    assert neg == pos and hash(neg) == hash(pos) and neg is not pos
    assert Const(-0.0) is neg or Const(0.0) is pos
    assert (to_infix(Const(-0.0)), to_infix(Const(0.0))) == ("-0.0", "0.0")
    assert repr(Binary("add", neg, pos)) == (
        "Binary(op='add', left=Const(value=-0.0), right=Const(value=0.0))"
    )
    a, b = Const(float("nan")), Const(float("nan"))
    assert a != b and a == a and Const(a.value) is not a
    assert Int(1) != Const(1.0) and Field() != Placeholder()
    assert Var("x") != Var("y") and Deriv(FIELD, "x", 1) != Deriv(FIELD, "t", 1)


def test_equal_trees_built_apart_are_equal_and_hash_equal():
    for seed in range(200):
        a, b = (random_manual_tree(np.random.default_rng(seed)) for _ in range(2))
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    src = "u_t + 0.5*(u^2)_x - 0.05*u_xx"
    assert hash(parse_infix(src).residual) == hash(equation_for(FAMILIES["burgers"], 0.5, 0.05).residual)


def test_equal_constructions_are_one_node():
    """Building a node equal to a live one returns that object, for every
    node class, so two parses of one string are one tree."""
    k, sin_u = Var("k"), Unary("sin", FIELD)
    pairs = [
        (Const(1.5), Const(1.5)), (Int(3), Int(3)), (k, Var("k")),
        (Field(), FIELD), (Placeholder(), Placeholder()),
        (sin_u, Unary("sin", Field())), (Binary("mul", k, sin_u), Binary("mul", Var("k"), sin_u)),
        (Deriv(sin_u, "x", 2), Deriv(Unary("sin", FIELD), "x", 2)),
    ]
    for a, b in pairs:
        assert a is b
    src = "u_t + 0.5*(u^2)_x - 0.05*u_xx + sin(x)*u_x"
    assert parse_infix(src).residual is parse_infix(src).residual
    assert parse_infix("(u^2)_x").residual.child is parse_infix("u^2").residual


def test_a_shared_node_keeps_its_cached_key():
    e = parse_infix("k*(u^2)_x").residual
    key = canonical_key(e)
    assert parse_infix("k*(u^2)_x").residual._key is key


def test_colliding_hashes_keep_their_values():
    """``hash(-1) == hash(-2)``, so these nodes collide in the table: the
    one built first holds the entry, the other is not shared, and each
    keeps its own value."""
    for cls, a, b in ((Int, -1, -2), (Const, -1.0, -2.0)):
        x, y = cls(a), cls(b)
        assert hash(x) == hash(y) and x != y and x is not y
        assert (x.value, y.value) == (a, b)
        assert cls(a) is x or cls(b) is y
        assert (cls(a).value, cls(b).value) == (a, b)


def test_unreferenced_trees_leave_the_table():
    from pdesym import expr

    e = parse_infix("sin(never_seen_before)*u_xxx").residual
    h = hash(e)
    assert expr._NODES[h]() is e
    del e
    gc.collect()
    assert expr._NODES[h]() is None
    expr._sweep()
    assert h not in expr._NODES


def test_threads_building_and_sweeping_at_once_get_the_trees_they_asked_for():
    """Threads share the table, so a race may lose some sharing, but every
    tree still prints as the text it was parsed from. More threads than
    cores build distinct trees and drop them, while one sweeps the table
    in a loop, under a short switch interval."""
    from pdesym import expr

    def build(seed, errors):
        rng = np.random.default_rng(seed)
        try:
            for _ in range(300):
                a, b = (float(v) for v in rng.integers(1, 60, 2) / 8)
                src = f"u_t + {a!r}*(u^2)_x - {b!r}*u_xx + sin({a!r}*x)*u_x"
                if to_infix(parse_infix(src).residual) != src:
                    errors.append(src)
        except Exception as exc:  # raised in a thread, it would not fail the test
            errors.append(repr(exc))

    def sweep(stop, errors):
        try:
            while not stop.is_set():
                expr._sweep()
        except Exception as exc:
            errors.append(repr(exc))

    errors, stop = [], threading.Event()
    builders = [threading.Thread(target=build, args=(seed, errors)) for seed in range(6)]
    sweeper = threading.Thread(target=sweep, args=(stop, errors))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        sweeper.start()
        for t in builders:
            t.start()
        for t in builders:
            t.join(timeout=60)
    finally:
        stop.set()
        sweeper.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in [*builders, sweeper])
    assert errors == []


def test_pickled_trees_rehash_where_they_are_loaded():
    """A node's hash is made from string hashes, which change with the hash
    seed, so a pickle carries no hash: unpickled in a process with another
    ``PYTHONHASHSEED``, a tree hashes, compares and tokenizes as the same
    tree parsed there, and is that process's shared node."""
    src = "u_t + 0.5*(u^2)_x - 0.05*u_xx + sin(x)*u_x"
    eq = parse_infix(src)
    code = (
        "import json, pickle, sys\n"
        "from pdesym.expr import parse_infix\n"
        "from pdesym.tokens import to_canonical_tokens\n"
        "eq = pickle.loads(sys.stdin.buffer.read())\n"
        f"again = parse_infix({src!r})\n"
        "print(json.dumps([hash(eq.residual), hash(again.residual), eq == again,\n"
        "                  eq.residual is again.residual,\n"
        "                  to_canonical_tokens(eq).text, to_canonical_tokens(again).text]))\n"
    )
    src_dir = os.path.dirname(os.path.dirname(pdesym.__file__))
    path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed)
    out = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(eq),
                         capture_output=True, env=env, timeout=60, check=True).stdout
    loaded_hash, parsed_hash, equal, same, loaded_text, parsed_text = json.loads(out)
    assert loaded_hash == parsed_hash != hash(eq.residual)
    assert equal and same
    assert pickle.loads(pickle.dumps(eq)).residual is eq.residual
    assert loaded_text == parsed_text == to_canonical_tokens(eq).text


def test_deep_trees_compare_and_hash_without_recursion():
    def nest(fn):
        e = FIELD
        for _ in range(5000):
            e = Unary(fn, e)
        return e

    a, b = nest("sin"), nest("sin")
    assert a == b and hash(a) == hash(b) and a in {b}
    assert a != nest("cos") and a != Unary("sin", a)


def test_repr_names_every_field_and_does_not_recurse():
    assert repr(Binary("add", FIELD, Const(1.0))) == (
        "Binary(op='add', left=Field(), right=Const(value=1.0))"
    )
    assert repr(parse_infix("sin(x)*k1 - (u^2)_x").residual) == (
        "Binary(op='sub', left=Binary(op='mul', left=Unary(fn='sin', child=Var(name='x')),"
        " right=Var(name='k1')), right=Deriv(child=Binary(op='pow', left=Field(),"
        " right=Int(value=2)), var='x', order=1))"
    )
    assert repr(Placeholder()) == "Placeholder()"
    e = FIELD
    for _ in range(5000):
        e = Unary("sin", e)
    assert repr(e) == "Unary(fn='sin', child=" * 5000 + "Field()" + ")" * 5000


def _nested_flux_derivative(k: int) -> Expr:
    """``e = ((e u)_x)`` nested k times from ``e = u``."""
    e = FIELD
    for _ in range(k):
        e = Deriv(Binary("mul", e, FIELD), "x", 1)
    return e


def test_shared_subtrees_are_expanded_and_evaluated_once(monkeypatch):
    """``differentiate`` reuses its operands, so expanding nested
    derivatives of products makes a graph whose tree is exponentially
    larger. Substitution and evaluation fold each shared node once (k = 6
    took 25 s as a tree walk) and give the tree walk's values bit for bit."""
    from pdesym import expr

    p = surrogate_expr(helpers.PolySurrogate((0.3, -0.7, 0.45, 0.8, -0.2, 0.6, -0.35, 0.15)))
    env = {"x": np.linspace(-1.0, 1.0, 64), "t": 0.25}
    start = time.perf_counter()
    big = evaluate(substitute_field(_nested_flux_derivative(6), p), env)
    assert time.perf_counter() - start < 1.0
    assert big.shape == (64,) and np.isfinite(big).all()
    ours = [evaluate(substitute_field(_nested_flux_derivative(k), p), env) for k in range(5)]
    monkeypatch.setattr(helpers, "_fold_shared", expr.walk)
    for k in range(5):
        tree_walk = evaluate(substitute_field(_nested_flux_derivative(k), p), env)
        assert ours[k].tobytes() == tree_walk.tobytes()
