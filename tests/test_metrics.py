import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdesym.canon import canonicalize
from pdesym.datagen import FAMILIES, equation_for, grid_for, law_for, sample_ic, sample_params
from pdesym.errors import DegenerateReference, NotSolvable, UnsupportedNode
from pdesym.expr import (
    FIELD,
    Binary,
    Const,
    Deriv,
    Equation,
    Int,
    Placeholder,
    Var,
    parse_infix,
)
from pdesym import metrics
from pdesym.metrics import (
    law_from_equation,
    r2_score,
    rel_l2,
    symbolic_error,
    time_series_error,
    valid_fraction,
)
from pdesym.perturb import PerturbConfig, inject_noise_term, mask_coefficients, swap_branches
from pdesym.solver import FLUXES, solve
from pdesym.tokens import Dialect, TokenSeq, to_canonical_tokens

from helpers import (
    PolySurrogate,
    differentiate,
    evaluate,
    random_deriv_tree,
    random_general_tree,
    random_manual_tree,
    residual_on_surrogate,
    substitute_field,
    surrogate_expr,
    symbolic_error_per_surrogate,
)


# ---------------------------------------------------------------------------
# rel_l2 / r2

def test_rel_l2_identities():
    u = np.array([3.0, 4.0])
    assert rel_l2(u, u) == 0.0
    assert rel_l2(u, np.zeros(2)) == 1.0
    assert rel_l2(u, np.array([3.0, 0.0])) == pytest.approx(0.8)


def test_rel_l2_degenerate_reference():
    with pytest.raises(DegenerateReference):
        rel_l2(np.zeros(3), np.ones(3))


def test_rel_l2_keeps_the_bits_of_numpy_norms():
    """The norm helper computes sqrt(x . x), as np.linalg.norm does for a
    float vector: pinned on random, overflowing and zero-norm inputs."""
    rng = np.random.default_rng(16)
    cases = [(rng.normal(size=shape) * scale, rng.normal(size=shape) * scale)
             for shape in [(1,), (7,), (32, 32), (13, 7), (3, 5, 4), (20000,)]
             for scale in (1e-150, 1.0, 1e150, 1e200)]
    big = np.array([1e300, -1e300, 3.0])
    cases += [(big, -big), (big, big), (big, np.zeros(3)), (big[2:], np.array([np.inf])),
              (np.array([2.0, 0.0]), np.array([2.0, 0.0]))]
    for u, v in cases:
        with np.errstate(all="ignore"):
            want = np.linalg.norm(u - v) / np.linalg.norm(u)
        assert np.float64(rel_l2(u, v)).tobytes() == np.float64(want).tobytes()
    # a vector whose squares all underflow has zero norm, as numpy finds too
    for u in (np.zeros((4, 4)), np.full(3, 1e-200)):
        assert np.linalg.norm(u) == 0.0
        with pytest.raises(DegenerateReference):
            rel_l2(u, np.ones_like(u))


@given(st.floats(min_value=0.01, max_value=100.0), st.integers(0, 1000))
@settings(max_examples=60, deadline=None)
def test_rel_l2_scale_invariance(c, seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=16) + 2.0
    v = rng.normal(size=16)
    assert rel_l2(c * u, c * v) == pytest.approx(rel_l2(u, v), rel=1e-12)


def test_r2_identities():
    rng = np.random.default_rng(0)
    targets = [rng.normal(size=(4, 5)) for _ in range(3)]
    assert r2_score(targets, targets) == 1.0
    mean_preds = [np.full_like(u, np.mean(u)) for u in targets]
    assert r2_score(targets, mean_preds) == 0.0


def test_r2_hand_case():
    assert r2_score([np.array([0.0, 2.0])], [np.array([1.0, 1.0])]) == 0.0


def test_r2_degenerate():
    with pytest.raises(DegenerateReference):
        r2_score([np.ones(4)], [np.zeros(4)])


# ---------------------------------------------------------------------------
# surrogate

def test_surrogate_closed_form_derivatives_match_symbolic():
    rng = np.random.default_rng(42)
    xs = np.linspace(0.0, 1.0, 7)
    ts = np.linspace(0.0, 1.0, 5)
    X, T = np.meshgrid(xs, ts)
    for _ in range(10):
        surrogate = PolySurrogate.random(rng)
        expr = surrogate_expr(surrogate)
        for dx_order, dt_order in [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)]:
            closed = surrogate.value(X, T, dx_order=dx_order, dt_order=dt_order)
            node = expr
            for _ in range(dx_order):
                node = differentiate(node, "x")
            for _ in range(dt_order):
                node = differentiate(node, "t")
            symbolic = evaluate(node, {"x": X, "t": T})
            assert np.allclose(closed, symbolic, atol=1e-12)


def test_residual_on_surrogate_matches_manual_substitution():
    eq = parse_infix("u_t + 0.5*(u^2)_x = 0.01*u_xx")
    surrogate = PolySurrogate((0.3, -0.7, 0.45, 0.8, -0.2, 0.6, -0.35, 0.15))
    xs = np.linspace(0.0, 1.0, 6)
    ts = np.linspace(0.0, 1.0, 4)
    X, T = np.meshgrid(xs, ts)
    got = residual_on_surrogate(eq, surrogate, xs, ts)
    P = surrogate.value(X, T)
    Px = surrogate.value(X, T, dx_order=1)
    Pt = surrogate.value(X, T, dt_order=1)
    Pxx = surrogate.value(X, T, dx_order=2)
    want = Pt + 0.5 * 2.0 * P * Px - 0.01 * Pxx
    assert np.allclose(got, want, atol=1e-12)


# ---------------------------------------------------------------------------
# symbolic error

def test_symbolic_error_identical_equation_is_zero():
    eq = parse_infix("u_t + 0.7*(u^2)_x = 0")
    assert symbolic_error(eq, eq) == 0.0


def test_symbolic_error_doubled_residual_is_one():
    spec = FAMILIES["inviscid_burgers"]
    truth = equation_for(spec, 1.0, 0.0)
    doubled = Equation(Binary("mul", Const(2.0), truth.residual))
    assert symbolic_error(doubled, truth) == pytest.approx(1.0, abs=1e-12)


def test_symbolic_error_one_percent_coefficient_offset():
    spec = FAMILIES["inviscid_burgers"]
    truth = equation_for(spec, 1.0, 0.0)
    learned = equation_for(spec, 1.01, 0.0)
    err = symbolic_error(learned, truth, seed=0)
    assert err == pytest.approx(0.007000500793454864, abs=1e-12)
    assert 0.003 < err < 0.02


def test_symbolic_error_invariant_under_canonicalization():
    spec = FAMILIES["burgers"]
    truth = equation_for(spec, 0.5, 0.05)
    learned = equation_for(spec, 0.52, 0.048)
    base = symbolic_error(learned, truth, seed=1)
    swapped = swap_branches(learned, PerturbConfig(swap_prob=0.8, seed=5))
    assert symbolic_error(swapped, truth, seed=1) == pytest.approx(base, abs=1e-9)
    assert symbolic_error(
        Equation(canonicalize(learned.residual)), truth, seed=1
    ) == pytest.approx(base, abs=1e-9)


def test_symbolic_error_rejects_vanishing_truth():
    zero = parse_infix("u - u")
    with pytest.raises(DegenerateReference):
        symbolic_error(zero, zero)


def test_out_of_range_integers_are_unsupported_nodes():
    huge = 10**400
    truth = equation_for(FAMILIES["burgers"], 0.5, 0.05)
    u_x = Deriv(FIELD, "x", 1)
    for learned in (
        parse_infix(f"u_t + u^{huge}"),
        parse_infix(f"(u^{huge})_x"),
        Equation(Binary("mul", Int(huge), u_x)),
    ):
        with pytest.raises(UnsupportedNode):
            symbolic_error(learned, truth)
    with pytest.raises(UnsupportedNode):
        evaluate(parse_infix(f"2^{huge}").residual, {})
    # an integer's derivative is zero however large the integer
    learned = Equation(Binary("add", u_x, Deriv(Int(huge), "x", 1)))
    assert symbolic_error(learned, truth) > 0.0


def test_symbolic_error_on_a_long_sum(monkeypatch):
    monkeypatch.setattr(metrics, "N_POLYS", 2)
    src = " + ".join(["u_t"] + [f"x^{k}*u_x" for k in range(1, 3001)])
    truth = equation_for(FAMILIES["burgers"], 0.5, 0.05)
    err = symbolic_error(parse_infix(src), truth)
    assert isinstance(err, float) and np.isfinite(err)


# ---------------------------------------------------------------------------
# the batched run against the per-surrogate reference

def _assert_matches_per_surrogate(learned, truth, seed=0, **sizes):
    """Both scores' bytes, or both errors' type and message, are equal;
    returns the error's type, or None. ``sizes`` (``n_polys``, ``n_x``,
    ``n_t``) go to the reference and, for this call, to the ``metrics``
    constants of the same names."""
    with pytest.MonkeyPatch.context() as mp:
        for name, size in sizes.items():
            mp.setattr(metrics, name.upper(), size)
        got = _outcome(lambda: np.float64(symbolic_error(learned, truth, seed=seed)).tobytes())
    want = _outcome(lambda: np.float64(
        symbolic_error_per_surrogate(learned, truth, seed=seed, **sizes)).tobytes())
    assert got == want, (learned, truth, seed, sizes)
    return got[0] and got[0][0]


def test_batched_symbolic_error_matches_per_surrogate_on_family_variants():
    variants = [eq for _, eq in _family_variants()]
    templates = [equation_for(spec, spec.q1, spec.q2) for spec in FAMILIES.values()]
    variants += templates + [mask_coefficients(eq) for eq in templates]
    for truth in templates:
        for seed, learned in enumerate(variants):
            _assert_matches_per_surrogate(learned, truth, seed=seed)


def test_batched_symbolic_error_matches_per_surrogate_on_random_trees():
    rng = np.random.default_rng(15)
    generators = (random_manual_tree, random_general_tree, random_deriv_tree)
    kinds = []
    for i in range(2001):
        truth = Equation(generators[i % 3](rng))
        learned = Equation(generators[i // 3 % 3](rng))
        error = _assert_matches_per_surrogate(learned, truth, seed=i)
        kinds.append(error.__name__ if error else "ok")
    # the set has many of each outcome: a score, a degenerate truth, a failure
    assert set(kinds) == {"ok", "DegenerateReference", "UnsupportedNode"}
    assert min(map(kinds.count, set(kinds))) > 100


def test_batched_symbolic_error_draws_blocks_until_enough_are_accepted(monkeypatch):
    """A truth of 1e-6*u is rejected on about 94% of draws, so it takes many
    blocks, each of the surrogates still needed."""
    blocks = []
    residual = metrics._residual

    def counted(eq, field):
        blocks.append(len(field.coeffs))
        return residual(eq, field)

    monkeypatch.setattr(metrics, "_residual", counted)
    learned = equation_for(FAMILIES["burgers"], 0.5, 0.05)
    assert _assert_matches_per_surrogate(learned, parse_infix("1e-6*u = 0")) is None
    *truth_blocks, learned_block = blocks
    assert truth_blocks[0] == learned_block == 10 and len(truth_blocks) > 20
    assert truth_blocks == sorted(truth_blocks, reverse=True)


_BURGERS = equation_for(FAMILIES["burgers"], 0.5, 0.05)
_INVISCID = equation_for(FAMILIES["inviscid_burgers"], 0.5, 0.0)
_UNBOUND = parse_infix("u_t + y*u_x = 0")  # fails when the walk ends
_TOO_DEEP = Equation(Deriv(Binary("pow", FIELD, Int(2)), "x", 17))  # fails during the walk
_DEGENERATE = parse_infix("(u_xx)_xxx = 0")


@pytest.mark.parametrize("kwargs", [{}, {"n_polys": 1}, {"n_x": 7, "n_t": 13},
                                    {"n_polys": 3, "n_x": 40, "n_t": 1}])
@pytest.mark.parametrize("learned,truth,want", [
    (_BURGERS, parse_infix("1e-6*u = 0"), None),
    (_BURGERS, _INVISCID, None),
    (_INVISCID, _BURGERS, None),
    (_BURGERS, _DEGENERATE, DegenerateReference),
    (_UNBOUND, _BURGERS, UnsupportedNode),
    (_TOO_DEEP, _BURGERS, UnsupportedNode),
    # a truth that vanishes on every draw is reported before the learned
    # residual is evaluated
    (_UNBOUND, _DEGENERATE, DegenerateReference),
    (_TOO_DEEP, _DEGENERATE, DegenerateReference),
])
def test_batched_symbolic_error_matches_per_surrogate_on_edge_cases(learned, truth, want, kwargs):
    assert _assert_matches_per_surrogate(learned, truth, **kwargs) is want


def test_learned_errors_come_before_a_later_degenerate_surrogate():
    """At seed 0 a truth of 5e-7*u accepts a few draws, then is rejected
    100 times in a row: the learned residual's error, met at the first
    accepted draw, is the one raised."""
    late = parse_infix("5e-7*u = 0")
    assert _assert_matches_per_surrogate(_BURGERS, late) is DegenerateReference
    assert _assert_matches_per_surrogate(_UNBOUND, late) is UnsupportedNode
    assert _assert_matches_per_surrogate(_TOO_DEEP, late) is UnsupportedNode


def test_a_truth_whose_squares_overflow_scores_nan_without_a_warning():
    """RuntimeWarnings are errors in these tests: the acceptance test of a
    truth residual near 1e300 squares to inf quietly, in both paths."""
    huge = equation_for(FAMILIES["burgers"], 1e300, 0.05)
    assert _assert_matches_per_surrogate(_BURGERS, huge) is None
    assert np.isnan(symbolic_error(_BURGERS, huge))


@pytest.mark.parametrize("learned,message", [
    (Binary("add", Var("y"), _TOO_DEEP.residual), "derivatives above total order 16"),
    (Binary("add", _TOO_DEEP.residual, Var("y")), "derivatives above total order 16"),
    (Binary("mul", Var("y"), Deriv(Binary("pow", FIELD, Const(0.5)), "x", 1)),
     "cannot differentiate a non-integer power"),
    (parse_infix("u/0 + y").residual, "unbound variable 'y'"),
])
def test_a_residual_with_two_failures_raises_the_same_one_in_both_paths(learned, message):
    """A node the walk cannot take fails before any unevaluable leaf,
    wherever the two are; a zero divisor is no failure."""
    with pytest.raises(UnsupportedNode, match=message):
        symbolic_error(Equation(learned), _BURGERS)
    assert _assert_matches_per_surrogate(Equation(learned), _BURGERS) is UnsupportedNode


def test_shared_sample_grids_are_keyed_by_size_and_read_only():
    """Calls of three sizes, interleaved in one process, each match the
    per-surrogate reference, which builds its grids afresh; every derivative
    order of both surrogate polynomials is read, past their degrees too."""
    metrics._sample_grid.cache_clear()
    high = parse_infix("u_t + ((u_t)_t)_t + (u_xxx)_x + (u_xxx)_xx + u*u_x = 0")
    pairs = [(_BURGERS, _INVISCID), (high, _BURGERS), (_INVISCID, high)]
    for seed in range(3):
        for learned, truth in pairs:
            for n_x, n_t in ((32, 32), (7, 13), (40, 1)):
                assert _assert_matches_per_surrogate(learned, truth, n_x=n_x, n_t=n_t,
                                                     seed=seed) is None
    assert metrics._sample_grid.cache_info().currsize == 3
    grid = metrics._sample_grid(7, 13)
    assert np.array_equal(grid.xs, np.linspace(0.0, 1.0, 7)) and grid.X.shape == (13, 7)
    arrays = [grid.xs, grid.ts, grid.X, grid.T]
    arrays += [m for rows in grid.monomials for row in rows for m in row
               if isinstance(m, np.ndarray)]
    assert len(arrays) == 4 + 3 + 10  # the axes, then every power of t and of x
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0


# ---------------------------------------------------------------------------
# jets against the symbolic path: substitute the surrogate, expand, evaluate

_XS = np.linspace(0.0, 1.0, 32)
_TS = np.linspace(0.0, 1.0, 32)


def _outcome(compute):
    try:
        return None, compute()
    except Exception as exc:  # the two paths must fail alike, message included
        return (type(exc), str(exc)), None


def _assert_matches_symbolic_path(residual, surrogates):
    X, T = np.meshgrid(_XS, _TS)
    for surrogate in surrogates:
        def symbolic():
            with np.errstate(all="ignore"):
                body = substitute_field(residual, surrogate_expr(surrogate))
                vals = evaluate(body, {"x": X, "t": T})
            return np.broadcast_to(np.asarray(vals, dtype=float), X.shape)

        want_error, want = _outcome(symbolic)
        got_error, got = _outcome(lambda: residual_on_surrogate(residual, surrogate, _XS, _TS))
        assert got_error == want_error, residual
        if want is None:
            continue
        finite = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), finite), residual
        scale = np.max(np.abs(want[finite]), initial=0.0)
        assert np.all(np.abs(got[finite] - want[finite]) <= 1e-12 * scale), residual


def _family_variants():
    rng = np.random.default_rng(11)
    for name, spec in sorted(FAMILIES.items()):
        q1, q2 = sample_params(spec, rng)
        eq = equation_for(spec, q1, q2)
        yield name, eq
        yield f"{name}-swap", swap_branches(eq, PerturbConfig(swap_prob=0.8, seed=3))
        cfg = PerturbConfig(noise_prob=1.0, seed=4)
        yield f"{name}-noise", inject_noise_term(eq, cfg).equation
        flux = Deriv(FLUXES[spec.flux_kind].expr, "x", 1)
        split = Binary("add", Deriv(FIELD, "t", 1), Binary("mul", Const(0.372 * q1), flux))
        split = Binary("add", split, Binary("mul", Const(0.628 * q1), flux))
        if q2:
            split = Binary("sub", split, Binary("mul", Const(q2), Deriv(FIELD, "x", 2)))
        yield f"{name}-split", Equation(split)


@pytest.mark.parametrize("name,eq", list(_family_variants()))
def test_jets_match_symbolic_path_on_family_variants(name, eq):
    rng = np.random.default_rng(5)
    _assert_matches_symbolic_path(eq.residual, [PolySurrogate.random(rng) for _ in range(3)])


def test_jets_match_symbolic_path_on_random_trees():
    rng = np.random.default_rng(2026)
    for i in range(320):
        generate = random_general_tree if i % 2 else random_manual_tree
        tree = generate(rng, int(rng.integers(2, 6)))
        _assert_matches_symbolic_path(tree, [PolySurrogate.random(rng)])


def test_jets_match_symbolic_path_on_derivatives_of_composite_trees():
    rng = np.random.default_rng(2027)
    for _ in range(200):
        tree = random_deriv_tree(rng, int(rng.integers(2, 5)))
        _assert_matches_symbolic_path(tree, [PolySurrogate.random(rng)])


@pytest.mark.parametrize("src", [
    "((u^2)_x)_t",
    "(u_t)_xx",
    "u_x/(1 + u^2)",
    "(u_x/(1 + u^2))_x",
    "(((x + u)/(2 + u^2))_x)_t",
    "(x^2)_xxx",
    "(u^0)_x",
    "(x^0)_x",
    "(sin(cos(u)))_xx",
    "(u^-2)_x",
    "((1 + u^2)^-3)_xx",
    "((u^3)_xx)_t",
    "(u^1)_xx",
    "((cos(u)*u)_x)_t",
    "(u*x/(1 + t))_xx",
    "(1/0)_x",
    "((y + u)^1)_x",
    "(y + u)_x",
    "(y*u)_x",
    # two unevaluable leaves meet
    "k*1.695 - (y - u_t)",
    "k/y + u",
    "(k/y)_x",
    "((k/y)_x)_t",
    "(k*y*u)_xx",
    "((k*u)*(y - u))_x",
    "(u/(k + y))_xx",
    "sin(k*u)*cos(y) + (y*k)^2",
    # an unevaluable leaf under (...)^1 inside a derivative
    "(y^1)_x + u",
    "((y*u)^1)_x",
    "((k + y*u)^1)_xx",
    "((k/y)^1)_x",
    "(((y^1)_x*u)^1)_t",
    # an unevaluable leaf in a subtree with no field leaf
    "(k*y)_x + u",
    "u_t + (y/k)_xx*u",
    "sin(k*y)*u_x",
    "(x*y)_x*u + (t^2*k)_t",
    "(k^1)_x*u",
])
def test_jets_match_symbolic_path_on_hand_cases(src):
    rng = np.random.default_rng(8)
    surrogates = [PolySurrogate.random(rng) for _ in range(3)]
    _assert_matches_symbolic_path(parse_infix(src).residual, surrogates)


@pytest.mark.parametrize("tree", [
    Deriv(Placeholder(), "x", 1),
    Deriv(Binary("mul", Placeholder(), FIELD), "t", 1),
    Deriv(Binary("pow", FIELD, Const(2.0)), "x", 1),
    Binary("pow", Var("x"), FIELD),
    Binary("add", Deriv(Var("k"), "x", 2), Deriv(Deriv(FIELD, "x", 3), "t", 2)),
    Deriv(Deriv(Binary("mul", Var("k"), Placeholder()), "x", 2), "x", 1),
    Deriv(Binary("div", Placeholder(), Binary("add", Var("y"), FIELD)), "t", 1),
    Binary("add", Binary("mul", Placeholder(), Var("y")), Deriv(Int(10**400), "x", 1)),
    Binary("mul", Binary("pow", Binary("mul", Var("k"), Placeholder()), Int(1)), FIELD),
])
def test_jets_match_symbolic_path_on_trees_without_infix(tree):
    rng = np.random.default_rng(9)
    _assert_matches_symbolic_path(tree, [PolySurrogate.random(rng)])


def test_derivatives_past_the_surrogate_degree_are_zero():
    # the symbolic path would differentiate the surrogate a million times
    surrogate = PolySurrogate.random(np.random.default_rng(4))
    got = residual_on_surrogate(Deriv(FIELD, "x", 10**6), surrogate, _XS, _TS)
    assert np.array_equal(got, np.zeros((_TS.size, _XS.size)))
    with pytest.raises(UnsupportedNode, match="total order"):
        residual_on_surrogate(Deriv(Binary("pow", FIELD, Int(2)), "x", 10**6),
                              surrogate, _XS, _TS)


def test_symbolic_error_of_deriv_free_residuals_keeps_evaluate_bits():
    eq = parse_infix("u*u_x + sin(u)/(1 + x*t) - u_xx^2")
    surrogate = PolySurrogate.random(np.random.default_rng(3))
    X, T = np.meshgrid(_XS, _TS)
    want = evaluate(substitute_field(eq.residual, surrogate_expr(surrogate)), {"x": X, "t": T})
    assert np.array_equal(residual_on_surrogate(eq, surrogate, _XS, _TS), want)


# ---------------------------------------------------------------------------
# valid fraction

def test_valid_fraction_counts_failures_and_large_errors():
    spec = FAMILIES["inviscid_burgers"]
    truth = equation_for(spec, 1.0, 0.0)
    good = to_canonical_tokens(truth)
    truncated = TokenSeq(Dialect.CANONICAL, good.tokens[:5])
    doubled = to_canonical_tokens(
        Equation(Binary("mul", Const(2.0), truth.residual))
    )
    seqs = [good] * 7 + [truncated] * 2 + [doubled]
    truths = [truth] * 10
    assert valid_fraction(seqs, truths) == pytest.approx(0.7)


def test_valid_fraction_all_exact():
    spec = FAMILIES["icl_sine"]
    truth = equation_for(spec, 0.955, 0.0)
    seqs = [to_canonical_tokens(truth)] * 4
    assert valid_fraction(seqs, [truth] * 4) == 1.0


def test_valid_fraction_counts_placeholders_as_invalid():
    from pdesym.perturb import mask_coefficients

    spec = FAMILIES["icl_sine"]
    truth = equation_for(spec, 0.955, 0.0)
    masked = to_canonical_tokens(mask_coefficients(truth))
    assert valid_fraction([masked], [truth]) == 0.0
    assert valid_fraction([], []) == 0.0


# ---------------------------------------------------------------------------
# time-series error and law extraction

def _truth_setup(family="inviscid_burgers", q1=0.5, q2=0.0, seed=3):
    spec = FAMILIES[family]
    grid = grid_for(spec)
    u0 = sample_ic(spec, np.random.default_rng(seed))
    law = law_for(spec, q1, q2)
    traj = solve(law, u0, grid, spec.t_f, spec.nt)
    return spec, u0, traj


def test_time_series_error_self_consistency_is_exact_zero():
    spec, u0, traj = _truth_setup()
    eq = equation_for(spec, 0.5, 0.0)
    assert time_series_error(eq, u0, traj) == 0.0


def test_time_series_error_monotone_in_coefficient_offset():
    spec, u0, traj = _truth_setup()
    err_small = time_series_error(equation_for(spec, 0.5 * 1.05, 0.0), u0, traj)
    err_large = time_series_error(equation_for(spec, 0.5 * 1.5, 0.0), u0, traj)
    assert err_large > err_small > 0.0


def test_time_series_error_rejects_non_conservation_forms():
    spec, u0, traj = _truth_setup()
    with pytest.raises(NotSolvable):
        time_series_error(parse_infix("u_t + sin(u)"), u0, traj)


def test_law_extraction_from_flux_derivative_forms():
    law = law_from_equation(parse_infix("u_t + 0.5*(u^2)_x = 0.01*u_xx"))
    assert law.flux_kind == "quadratic"
    assert law.q1 == pytest.approx(0.5)
    assert law.q2 == pytest.approx(0.01)
    law = law_from_equation(parse_infix("u_t + 0.7*(u^3)_x = 0"))
    assert (law.flux_kind, law.q1, law.q2) == ("cubic", pytest.approx(0.7), 0.0)
    law = law_from_equation(parse_infix("u_t + 0.955*(sin(u))_x = 0"))
    assert (law.flux_kind, law.q1) == ("sine", pytest.approx(0.955))


def test_law_extraction_from_expanded_forms():
    law = law_from_equation(parse_infix("u_t + 0.9*u*u_x = 0.05*u_xx"))
    assert law.flux_kind == "quadratic"
    assert law.q1 == pytest.approx(0.45)  # k u u_x == (k/2)(u^2)_x
    law = law_from_equation(parse_infix("u_t + 0.9*u^2*u_x = 0"))
    assert (law.flux_kind, law.q1) == ("cubic", pytest.approx(0.3))
    law = law_from_equation(parse_infix("u_t + 0.955*cos(u)*u_x = 0"))
    assert (law.flux_kind, law.q1) == ("sine", pytest.approx(0.955))


def test_law_extraction_sums_flux_terms_of_one_kind():
    law = law_from_equation(parse_infix("u_t + u*u_x + 0.2*(u^2)_x = 0"))
    assert (law.flux_kind, law.q1) == ("quadratic", pytest.approx(0.7))
    law = law_from_equation(parse_infix("u_t + (sin(u))_x + 0.5*cos(u)*u_x = 0.1*u_xx"))
    assert (law.flux_kind, law.q1, law.q2) == ("sine", pytest.approx(1.5), pytest.approx(0.1))
    with pytest.raises(NotSolvable, match="mixes quadratic and cubic"):
        law_from_equation(parse_infix("u_t + 0.5*(u^2)_x + 0.3*(u^3)_x = 0"))
    with pytest.raises(NotSolvable, match="mixes"):
        law_from_equation(parse_infix("u_t + u^2*u_x + u*u_x = 0"))


def test_law_extraction_requires_time_derivative():
    with pytest.raises(NotSolvable):
        law_from_equation(parse_infix("0.5*(u^2)_x"))
    with pytest.raises(NotSolvable):
        law_from_equation(parse_infix("u_t + 0.5*(u^2)_x + u"))
    with pytest.raises(NotSolvable):
        law_from_equation(parse_infix("u_t = 0.5*u_xx"))
    with pytest.raises(NotSolvable, match="negative viscosity"):
        law_from_equation(parse_infix("u_t + u*u_x + 0.1*u_xx"))
    root = Binary("pow", FIELD, Const(0.5))  # no canonical tokens to show it by
    with pytest.raises(NotSolvable, match="a term with no token form"):
        law_from_equation(Equation(Binary("add", Deriv(FIELD, "t", 1), root)))


def test_law_extraction_normalizes_time_coefficient():
    law = law_from_equation(parse_infix("2.0*u_t + 1.0*(u^2)_x = 0.02*u_xx"))
    assert law.q1 == pytest.approx(0.5)
    assert law.q2 == pytest.approx(0.01)
