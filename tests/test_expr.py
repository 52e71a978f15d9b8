import numpy as np
import pytest

from pdesym.errors import ParseError, UnknownSymbol, UnsupportedNode
from pdesym.expr import (
    FIELD,
    MAX_DEPTH,
    Binary,
    Const,
    Deriv,
    Equation,
    Int,
    Unary,
    Var,
    differentiate,
    evaluate,
    parse_infix,
    substitute_field,
    to_infix,
)
from pdesym.tokens import to_manual_tokens

from helpers import random_manual_tree


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
    "src",
    ["(" * 3000 + "u" + ")" * 3000, "-" * 3000 + "u", "sin(" * 3000 + "u" + ")" * 3000],
    ids=["parentheses", "unary-minus", "sin"],
)
def test_deep_nesting_is_a_parse_error(src):
    with pytest.raises(ParseError, match=f"nesting deeper than {MAX_DEPTH} levels"):
        parse_infix(src)


def test_nesting_limit_counts_parentheses_minus_and_calls():
    deepest = "sin(-(" * 33 + "u" + "))" * 33  # 99 levels around u
    assert to_infix(parse_infix(deepest).residual).count("sin") == 33
    with pytest.raises(ParseError):
        parse_infix("(" + deepest + ")")


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


def _fd_partial(func, x, t, var, h=1e-6):
    if var == "x":
        return (func(x + h, t) - func(x - h, t)) / (2 * h)
    return (func(x, t + h) - func(x, t - h)) / (2 * h)


def test_to_infix_round_trips_long_chains():
    for src in (" + ".join(["u_x"] * 3000), "*".join(["u"] * 3000),
                " - ".join(["x"] * 3000), "/".join(["2"] * 3000)):
        tree = parse_infix(src).residual
        # a prefix walk fixes the structure; == on a deep tree would recurse
        again = parse_infix(to_infix(tree)).residual
        assert to_manual_tokens(again) == to_manual_tokens(tree)


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


def test_deriv_invariants():
    with pytest.raises(ValueError):
        Deriv(FIELD, "y", 1)
    with pytest.raises(ValueError):
        Deriv(FIELD, "x", 0)


def test_equation_is_value_like():
    a = parse_infix("u_t + u_x")
    b = parse_infix("u_t + u_x")
    assert a == Equation(a.residual)
    assert a.residual == b.residual
