import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdesym.canon import canonical_key, canonicalize
from pdesym.errors import DecodeError, UnsupportedNode
from pdesym.expr import (
    DERIV_LEAVES,
    FIELD,
    PLACEHOLDER,
    Binary,
    Const,
    Deriv,
    Equation,
    Int,
    Placeholder,
    Unary,
    Var,
    parse_infix,
    to_infix,
)
from pdesym.perturb import mask_coefficients
from pdesym.tokens import (
    Dialect,
    TokenSeq,
    format_sig3,
    from_tokens,
    round_sig3,
    to_canonical_tokens,
    to_manual_tokens,
)

from helpers import random_general_tree, random_manual_tree


# ---------------------------------------------------------------------------
# manual dialect

def test_manual_prefix_example():
    # cos(1.5 x_1) + (x_2^2 - 2.6), stored right-grouped
    tree = Binary(
        "add",
        Unary("cos", Binary("mul", Const(1.5), Var("x_1"))),
        Binary("sub", Binary("pow", Var("x_2"), Int(2)), Const(2.6)),
    )
    seq = to_manual_tokens(tree)
    assert list(seq.tokens) == ["+", "cos", "×", "1.5", "x_1", "-", "pow", "x_2", "2", "2.6"]


def test_manual_viscous_burgers_tree():
    # u_t + (k u u_x - eps u_xx) with numeric constants for k and eps
    tree = Binary(
        "add",
        Deriv(FIELD, "t", 1),
        Binary(
            "sub",
            Binary("mul", Const(0.75), Binary("mul", FIELD, Deriv(FIELD, "x", 1))),
            Binary("mul", Const(0.096), Deriv(FIELD, "x", 2)),
        ),
    )
    seq = to_manual_tokens(tree)
    assert list(seq.tokens) == [
        "+", "u_t", "-", "×", "0.75", "×", "u", "u_x", "×", "0.096", "u_xx",
    ]


def test_manual_single_leaf():
    assert list(to_manual_tokens(Const(2.6)).tokens) == ["2.6"]
    two = from_tokens(TokenSeq(Dialect.MANUAL, ("2",))).residual  # an integer decodes as Int
    assert two == Int(2) and to_infix(two) == "2"


def test_manual_rejects_unsupported_derivatives():
    with pytest.raises(UnsupportedNode):
        to_manual_tokens(Deriv(Binary("pow", FIELD, Int(2)), "x", 1))
    with pytest.raises(UnsupportedNode):
        to_manual_tokens(Deriv(Deriv(FIELD, "x", 1), "t", 1))


@pytest.mark.parametrize(
    "serialize, tree, message",
    [
        (to_manual_tokens, parse_infix("(u^2)_x"),
         "manual dialect has shorthand tokens only for field derivatives up to u_xxx and u_t"),
        (to_manual_tokens, Const(float("inf")), "non-finite constant inf has no token"),
        (to_canonical_tokens, parse_infix("(u_t)_x"),
         "nested (mixed-partial) derivatives are not tokenized"),
        (to_canonical_tokens, parse_infix("(u*u_x)_x"), "derivative of a product is not tokenized"),
        (to_canonical_tokens, from_tokens(TokenSeq(Dialect.MANUAL, ("pow", "u", "0.5"))),
         "non-integer exponents are not tokenized"),
        (to_infix, from_tokens(TokenSeq(Dialect.MANUAL, ("pow", "u", "0.5"))).residual,
         "non-integer exponent has no infix form"),
        (to_manual_tokens, ("sin", "u"), "cannot serialize tuple"),
    ],
    ids=["manual-composite-derivative", "manual-non-finite", "canonical-mixed-partial",
         "canonical-derivative-of-product", "canonical-non-integer-exponent",
         "infix-non-integer-exponent", "manual-not-a-node"],
)
def test_serializer_failures_name_their_cause(serialize, tree, message):
    with pytest.raises(UnsupportedNode) as info:
        serialize(tree)
    assert str(info.value) == message


def test_manual_round_trip_random_trees():
    rng = np.random.default_rng(42)
    for _ in range(300):
        tree = random_manual_tree(rng)
        seq = to_manual_tokens(tree)
        assert from_tokens(seq).residual == tree


def test_manual_round_trip_parsed_equation():
    eq = parse_infix("u_t + 0.955*cos(u)*u_x = 0")
    seq = to_manual_tokens(eq)
    assert from_tokens(seq).residual == eq.residual


# ---------------------------------------------------------------------------
# canonical dialect

KDV_TOKENS = [
    "+",
    "×", "1", "u(x,t)", "∂", "(", "u(x,t)", ",", "x", ")",
    "×", "1", "∂", "(", "u(x,t)", ",", "t", ")",
    "×", "0.0484", "∂", "(", "u(x,t)", ",", "(", "x", ",", "3", ")", ")",
]


def test_canonical_kdv_sequence():
    eq = parse_infix("u*u_x + u_t + 0.0484*u_xxx = 0")
    assert list(to_canonical_tokens(eq).tokens) == KDV_TOKENS


def test_canonical_single_term_field_time_derivative():
    eq = parse_infix("u_t")
    assert list(to_canonical_tokens(eq).tokens) == [
        "×", "1", "∂", "(", "u(x,t)", ",", "t", ")",
    ]


def test_canonical_burgers_three_significant_digit_floats():
    eq = parse_infix("u_t + 0.5*(u^2)_x = 0.01*u_xx")
    seq = to_canonical_tokens(eq)
    assert list(seq.tokens) == [
        "+",
        "×", "1", "∂", "(", "u(x,t)", ",", "t", ")",
        "×", "0.500", "∂", "(", "pow", "u(x,t)", "2", ",", "x", ")",
        "×", "-0.0100", "∂", "(", "u(x,t)", ",", "(", "x", ",", "2", ")", ")",
    ]
    assert "0.500" in seq.tokens
    assert "-0.0100" in seq.tokens


def test_canonical_round_trip_is_identity_on_canonical_trees():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(400):
        tree = canonicalize(random_general_tree(rng))
        try:
            seq = to_canonical_tokens(tree)
        except UnsupportedNode:
            continue
        checked += 1
        assert from_tokens(seq).residual == tree
    assert checked > 300


def test_canonical_round_trip_equals_canonicalization():
    rng = np.random.default_rng(8)
    for _ in range(200):
        tree = random_general_tree(rng)
        try:
            seq = to_canonical_tokens(tree)
        except UnsupportedNode:
            continue
        assert from_tokens(seq).residual == canonicalize(tree)


def test_decoding_truncated_sequences_fails():
    with pytest.raises(DecodeError):
        from_tokens(TokenSeq(Dialect.MANUAL, ("+", "×", "1")))
    with pytest.raises(DecodeError):
        from_tokens(TokenSeq(Dialect.CANONICAL, ("+", "×", "1")))


def test_decoding_rejects_out_of_vocabulary():
    with pytest.raises(DecodeError):
        from_tokens(TokenSeq(Dialect.MANUAL, ("+", "u", "u(x,t)")))
    with pytest.raises(DecodeError):
        from_tokens(TokenSeq(Dialect.CANONICAL, ("×", "1", "frog!")))
    with pytest.raises(DecodeError):
        from_tokens(TokenSeq(Dialect.CANONICAL, ("×", "1", "u")))


def test_decoding_rejects_trailing_tokens():
    with pytest.raises(DecodeError):
        from_tokens(TokenSeq(Dialect.MANUAL, ("u", "u")))


def test_decoding_rejects_malformed_derivative_groups():
    with pytest.raises(DecodeError):
        from_tokens(
            TokenSeq(Dialect.CANONICAL, ("×", "1", "∂", "(", "u(x,t)", ",", "x"))
        )
    with pytest.raises(DecodeError):
        from_tokens(
            TokenSeq(
                Dialect.CANONICAL,
                ("×", "1", "∂", "(", "u(x,t)", ",", "(", "x", ",", "1", ")", ")"),
            )
        )


def test_decoding_single_term_with_trailing_term_fails():
    toks = ("×", "1", "u(x,t)", "×", "1", "u(x,t)")
    with pytest.raises(DecodeError):
        from_tokens(TokenSeq(Dialect.CANONICAL, toks))


_DEEP = [
    (Dialect.MANUAL, ["neg"] * 5000 + ["u"]),
    (Dialect.MANUAL, ["+"] * 3000 + ["u"] * 3001),
    (Dialect.CANONICAL, ["×", "1"] + ["sin"] * 5000 + ["u(x,t)"]),
    (Dialect.CANONICAL, ["×", "1"] + ["∂", "("] * 3000 + ["u(x,t)"] + [",", "x", ")"] * 3000),
]
_DEEP_IDS = ["manual-neg", "manual-sum", "canonical-sin", "canonical-deriv"]


@pytest.mark.parametrize(
    "toks, message",
    [
        (_DEEP[0][:1] + (_DEEP[0][1][:-1],), "truncated token sequence"),
        (_DEEP[1][:1] + (_DEEP[1][1][:-1],), "truncated token sequence"),
        (_DEEP[2][:1] + (_DEEP[2][1][:-1] + ["u"],), "reserved identifier 'u'"),
        (_DEEP[3][:1] + (_DEEP[3][1][:-2] + ["y", ")"],), "found 'y'"),
    ],
    ids=_DEEP_IDS,
)
def test_deep_nesting_is_a_decode_error(toks, message):
    """A deep nest that is malformed at its far end fails there."""
    with pytest.raises(DecodeError, match=message):
        from_tokens(TokenSeq(*toks))


@pytest.mark.parametrize(
    "toks, key",
    zip(_DEEP, [(3, 2) * 5000 + (1,), (4, 2) * 3000 + (1,) * 3001,
                (3, 0) * 5000 + (1,), (2, "x", 1) * 3000 + (1,)]),
    ids=_DEEP_IDS,
)
def test_deep_nesting_decodes(toks, key):
    seq = TokenSeq(toks[0], tuple(toks[1]))
    eq = from_tokens(seq)
    assert canonical_key(eq.residual) == key
    if seq.dialect == Dialect.MANUAL:
        assert to_manual_tokens(eq) == seq


def test_non_finite_numbers_are_decode_errors():
    for toks in (
        (Dialect.MANUAL, ("+", "u_t", "×", "1e400", "u")),
        (Dialect.MANUAL, ("-1e400",)),
        (Dialect.CANONICAL, tuple("+ × 1 ∂ ( u(x,t) , t ) × 1e400 u(x,t)".split())),
        (Dialect.CANONICAL, ("×", "1", "pow", "u(x,t)", "2", "9" * 400 + ".0")),
    ):
        with pytest.raises(DecodeError, match="outside the float range"):
            from_tokens(TokenSeq(*toks))
    for value in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(UnsupportedNode):
            to_manual_tokens(Binary("add", FIELD, Const(value)))


def test_manual_tokens_of_long_chains():
    product = parse_infix("*".join(["x"] * 3000))
    assert to_manual_tokens(product).tokens == ("×", "x") * 2999 + ("x",)
    total = parse_infix(" + ".join(["x"] * 3000))
    assert to_manual_tokens(total).tokens == ("+",) * 2999 + ("x",) * 3000


def test_deepest_accepted_nesting_survives_every_walk():
    """A 3,000-deep tree goes through every serializer, decoder and
    canonicalization without recursing."""
    levels = 3000
    eq = parse_infix("sin(" * levels + "u" + ")" * levels + " + u_x")
    manual = to_manual_tokens(eq)
    assert to_manual_tokens(from_tokens(manual)) == manual
    canonical = to_canonical_tokens(eq)
    assert canonical.tokens.count("sin") == levels
    assert to_canonical_tokens(from_tokens(canonical)) == canonical
    assert to_manual_tokens(parse_infix(to_infix(eq.residual))) == manual


def test_serialization_is_deterministic():
    eq = parse_infix("u_t + 0.5*(u^2)_x = 0.01*u_xx")
    assert to_canonical_tokens(eq) == to_canonical_tokens(eq)
    assert to_manual_tokens(parse_infix("u_t + u")) == to_manual_tokens(
        parse_infix("u_t + u")
    )


# ---------------------------------------------------------------------------
# float-token formatting

def _sig_digits(s: str) -> int:
    mantissa = s.lstrip("-").split("e")[0].split("E")[0]
    digits = mantissa.replace(".", "").lstrip("0")
    if "." not in mantissa:
        digits = digits.rstrip("0")  # trailing zeros of integers are padding
    return len(digits) if digits else 1


@given(
    st.floats(
        min_value=1e-4, max_value=1e4, allow_nan=False, allow_infinity=False
    ).filter(lambda v: v != 0)
)
@settings(max_examples=200, deadline=None)
def test_format_sig3_has_three_significant_digits(value):
    token = format_sig3(value)
    assert _sig_digits(token) <= 3
    rounded = round_sig3(value)
    assert format_sig3(rounded) == token
    assert abs(rounded - value) <= 5e-3 * abs(value)


def test_format_sig3_known_values():
    assert format_sig3(0.5) == "0.500"
    assert format_sig3(0.01) == "0.0100"
    assert format_sig3(0.955) == "0.955"
    assert format_sig3(1.5) == "1.50"
    assert format_sig3(0.0484) == "0.0484"
    assert format_sig3(1234.0) == "1230"
    assert format_sig3(0.9996) == "1.00"
    assert format_sig3(-0.01) == "-0.0100"
    assert format_sig3(0.0) == "0"
    assert (format_sig3(np.inf), format_sig3(-np.inf)) == ("inf", "-inf")


def test_canonical_float_tokens_are_three_significant_digits():
    float_re = re.compile(r"-?(?:\d+\.\d+|\d+\.?\d*[eE][+-]?\d+)$")
    eq = parse_infix("u_t + 0.512*(u^3)_x = 0.0461*u_xx")
    for tok in to_canonical_tokens(eq).tokens:
        if float_re.match(tok):
            assert _sig_digits(tok) <= 3


def test_canonical_floats_fall_back_losslessly():
    # a coefficient that is not representable in three significant digits
    value = 0.12345678901234
    eq = Equation(Binary("mul", Const(value), Deriv(FIELD, "t", 1)))
    seq = to_canonical_tokens(eq)
    decoded = from_tokens(seq).residual
    assert decoded == canonicalize(eq.residual)
    assert any(tok == repr(value) for tok in seq.tokens)


def test_placeholder_round_trip():
    tree = Binary("mul", Placeholder(), Deriv(FIELD, "t", 1))
    seq = to_canonical_tokens(tree)
    assert list(seq.tokens) == ["×", "[?]", "∂", "(", "u(x,t)", ",", "t", ")"]
    assert from_tokens(seq).residual == tree


def test_decoded_leaves_are_the_shared_nodes():
    """Both decoders return the parser's shared derivative leaves and the one
    placeholder node, so interned lookups of decoded trees hit by identity."""
    eq = mask_coefficients(parse_infix("u_t + u*u_x - 0.1*u_xx + 2*u_xxx"))
    shared = {id(node) for node in DERIV_LEAVES.values()}
    for seq in (to_canonical_tokens(eq), to_manual_tokens(eq)):
        stack, placeholders, leaves = [from_tokens(seq).residual], [], []
        while stack:
            node = stack.pop()
            if isinstance(node, Placeholder):
                placeholders.append(node)
            elif isinstance(node, Deriv) and node.child is FIELD:
                leaves.append(node)
            stack += [getattr(node, name) for name in ("left", "right", "child")
                      if hasattr(node, name)]
        assert len(placeholders) == 4 and all(n is PLACEHOLDER for n in placeholders)
        assert set(leaves) == set(DERIV_LEAVES.values())
        assert all(id(n) in shared for n in leaves)
