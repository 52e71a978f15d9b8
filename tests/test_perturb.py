import pytest

from pdesym.canon import canonicalize, equivalent
from pdesym.expr import (
    FIELD,
    Binary,
    Const,
    Deriv,
    Unary,
    Var,
    parse_infix,
)
from pdesym.perturb import (
    NOISE_TERMS,
    PerturbConfig,
    inject_noise_term,
    mask_coefficients,
    swap_branches,
)
from pdesym.tokens import to_canonical_tokens


def test_forced_swap_of_binary_add():
    tree = Binary("add", Var("a"), Var("b"))
    out = swap_branches(tree, PerturbConfig(swap_prob=1.0, seed=0))
    assert out == Binary("add", Var("b"), Var("a"))


def test_zero_probability_is_structural_identity():
    eq = parse_infix("u_t + 0.5*u*u_x - 0.01*u_xx = 0")
    out = swap_branches(eq, PerturbConfig(swap_prob=0.0, seed=5))
    assert out.residual == eq.residual


def test_swapped_subtraction_multiplies_minus_one():
    tree = Binary("sub", Var("a"), Var("b"))
    out = swap_branches(tree, PerturbConfig(swap_prob=1.0, seed=0))
    assert out == Binary("add", Binary("mul", Const(-1.0), Var("b")), Var("a"))


def test_seeded_swap_is_equivalent_and_sometimes_restructures():
    tree = parse_infix("u_t + 0.9*u*u_x - 0.27*u_xx").residual
    changed = 0
    for seed in range(30):
        out = swap_branches(tree, PerturbConfig(swap_prob=0.5, seed=seed))
        assert equivalent(tree, out)
        if out != tree:
            changed += 1
    assert changed >= 15


def test_swap_is_deterministic():
    tree = parse_infix("u_t + u*u_x + sin(u)").residual
    cfg = PerturbConfig(swap_prob=0.5, seed=99)
    assert swap_branches(tree, cfg) == swap_branches(tree, cfg)


def test_injection_off_is_identity():
    eq = parse_infix("u_t + u*u_x")
    res = inject_noise_term(eq, PerturbConfig(noise_prob=0.0, seed=1))
    assert res.equation == eq
    assert res.injected_term is None
    assert not res.fired


def test_forced_injection_of_diffusion_term():
    eq = parse_infix("u_t + 1.0*u*u_x = 0")
    res = inject_noise_term(eq, PerturbConfig(noise_prob=1.0, seed=0))
    assert res.fired
    assert res.injected_term.right == Deriv(FIELD, "x", 2)
    coeff = res.injected_term.left
    assert isinstance(coeff, Const) and 0.1 <= coeff.value <= 1.0
    assert res.equation.residual == Binary("add", eq.residual, res.injected_term)
    toks = to_canonical_tokens(res.equation).tokens
    joined = " ".join(toks)
    assert joined.count("( x , 2 )") == 1


def test_injection_frequency_matches_probability():
    eq = parse_infix("u_t + u*u_x")
    fired = sum(
        inject_noise_term(eq, PerturbConfig(noise_prob=0.5, seed=seed)).fired
        for seed in range(1000)
    )
    assert 460 <= fired <= 540


def test_injection_flag_matches_equivalence_change():
    eq = parse_infix("u_t + 0.7*u*u_x")
    for seed in range(50):
        res = inject_noise_term(eq, PerturbConfig(noise_prob=0.5, seed=seed))
        assert res.fired == (not equivalent(eq, res.equation))


def test_mask_sine_flux_equation():
    eq = parse_infix("u_t + 0.955*cos(u)*u_x = 0")
    masked = mask_coefficients(eq)
    toks = list(to_canonical_tokens(masked).tokens)
    assert toks == [
        "+",
        "×", "[?]", "∂", "(", "u(x,t)", ",", "t", ")",
        "×", "[?]", "∂", "(", "u(x,t)", ",", "x", ")", "cos", "u(x,t)",
    ]
    assert toks.count("[?]") == 2


def test_mask_replaces_every_coefficient_slot():
    # explicit coefficients and the implicit 1 of u_t are all masked
    eq = parse_infix("u_t + 0.5*(u^2)_x = 0.01*u_xx")
    toks = to_canonical_tokens(mask_coefficients(eq)).tokens
    assert list(toks).count("[?]") == 3
    eq2 = parse_infix("u_t + u*u_x")
    toks2 = to_canonical_tokens(mask_coefficients(eq2)).tokens
    assert list(toks2).count("[?]") == 2


def test_mask_is_stable_under_reserialization():
    eq = parse_infix("u_t + 0.955*cos(u)*u_x = 0")
    masked = mask_coefficients(eq)
    once = to_canonical_tokens(masked)
    again = to_canonical_tokens(canonicalize(masked.residual))
    assert once.tokens == again.tokens


def test_mask_constant_term():
    eq = parse_infix("u_t + 5.0")
    toks = to_canonical_tokens(mask_coefficients(eq)).tokens
    assert list(toks).count("[?]") == 2


def test_default_noise_library_contents():
    assert FIELD in NOISE_TERMS
    assert Deriv(FIELD, "x", 2) in NOISE_TERMS
    assert Unary("sin", FIELD) in NOISE_TERMS
    assert Binary("mul", FIELD, Deriv(FIELD, "x", 1)) in NOISE_TERMS


def test_config_validation():
    with pytest.raises(ValueError):
        PerturbConfig(swap_prob=1.5)
    with pytest.raises(ValueError):
        PerturbConfig(noise_prob=-0.1)
