"""Evaluation metrics for learned equations and predicted trajectories.

Symbolic error substitutes randomized-coefficient polynomial surrogates

    P(x, t) = (c0 + c1 t + c2 t^2)(c3 + c4 x + c5 x^2 + c6 x^3 + c7 x^4)

for the field in both the learned and the true residual, evaluates them on
a sample grid, and averages the relative L2 discrepancy. A generated token
sequence is *valid* when it decodes without error and its symbolic error
is below 100%.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canon import build, terms
from .errors import (
    DecodeError,
    DegenerateReference,
    NotSolvable,
    UnsupportedNode,
)
from .expr import (
    FIELD,
    Binary,
    Const,
    Deriv,
    Equation,
    Expr,
    Field,
    Int,
    Var,
    evaluate,
    substitute_field,
)
from .solver import FLUXES, ConservationLaw, SpaceTimeField, solve
from .tokens import TokenSeq, from_tokens


# ---------------------------------------------------------------------------
# basic data metrics

def rel_l2(u: np.ndarray, v: np.ndarray) -> float:
    """Relative L2 error ||u - v|| / ||u|| over all entries (u is the target)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError("shapes must match")
    denom = float(np.linalg.norm(u.ravel()))
    if denom == 0.0:
        raise DegenerateReference("reference field has zero norm")
    return float(np.linalg.norm((u - v).ravel()) / denom)


def r2_score(targets, preds) -> float:
    """1 - sum_i ||u_i - v_i||^2 / sum_i ||u_i - mean(u_i)||^2."""
    if len(targets) == 0 or len(targets) != len(preds):
        raise ValueError("need matched, nonempty sample lists")
    num = 0.0
    den = 0.0
    for u, v in zip(targets, preds):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        num += float(np.sum((u - v) ** 2))
        den += float(np.sum((u - np.mean(u)) ** 2))
    if den == 0.0:
        raise DegenerateReference("targets are constant; R^2 undefined")
    return 1.0 - num / den


# ---------------------------------------------------------------------------
# polynomial surrogate

def _polyval(coeffs, z):
    out = np.zeros_like(np.asarray(z, dtype=float))
    for c in reversed(coeffs):
        out = out * z + c
    return out


def _polyder(coeffs):
    return tuple(k * c for k, c in enumerate(coeffs))[1:] or (0.0,)


@dataclass(frozen=True)
class PolySurrogate:
    """Separable polynomial stand-in for the field with exact derivatives."""

    c: tuple[float, ...]

    def __post_init__(self):
        if len(self.c) != 8:
            raise ValueError("surrogate needs exactly 8 coefficients")
        object.__setattr__(self, "c", tuple(float(v) for v in self.c))

    @classmethod
    def random(cls, rng) -> "PolySurrogate":
        return cls(tuple(rng.uniform(-1.0, 1.0, 8)))

    def value(self, x, t, dx_order: int = 0, dt_order: int = 0):
        tpoly = self.c[:3]
        xpoly = self.c[3:]
        for _ in range(dt_order):
            tpoly = _polyder(tpoly)
        for _ in range(dx_order):
            xpoly = _polyder(xpoly)
        return _polyval(tpoly, t) * _polyval(xpoly, x)

    def as_expr(self) -> Expr:
        t, x = Var("t"), Var("x")
        tpart = _poly_expr(self.c[:3], t)
        xpart = _poly_expr(self.c[3:], x)
        return Binary("mul", tpart, xpart)


def _poly_expr(coeffs, var: Var) -> Expr:
    node: Expr = Const(coeffs[0])
    for k, c in enumerate(coeffs[1:], start=1):
        power = var if k == 1 else Binary("pow", var, Int(k))
        node = Binary("add", node, Binary("mul", Const(c), power))
    return node


def residual_on_surrogate(eq, surrogate: PolySurrogate, xs: np.ndarray,
                          ts: np.ndarray) -> np.ndarray:
    """Evaluate the residual with u := P on a (len(ts), len(xs)) grid."""
    residual = eq.residual if isinstance(eq, Equation) else eq
    substituted = substitute_field(residual, surrogate.as_expr())
    X, T = np.meshgrid(xs, ts)
    out = evaluate(substituted, {"x": X, "t": T})
    return np.broadcast_to(np.asarray(out, dtype=float), X.shape).copy()


# ---------------------------------------------------------------------------
# equation metrics

def symbolic_error(learned: Equation, truth: Equation, n_polys: int = 10,
                   n_x: int = 32, n_t: int = 32, seed: int = 0) -> float:
    """Mean relative L2 discrepancy of the two residuals over surrogates.

    Surrogate coefficients are Unif(-1, 1); draws whose truth residual has
    grid RMS below 1e-6 are rejected so the reference never degenerates.
    """
    xs = np.linspace(0.0, 1.0, n_x)
    ts = np.linspace(0.0, 1.0, n_t)
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(n_polys):
        for _attempt in range(100):
            surrogate = PolySurrogate.random(rng)
            truth_vals = residual_on_surrogate(truth, surrogate, xs, ts)
            if float(np.sqrt(np.mean(truth_vals**2))) >= 1e-6:
                break
        else:
            raise DegenerateReference(
                "truth residual vanishes on every sampled surrogate"
            )
        learned_vals = residual_on_surrogate(learned, surrogate, xs, ts)
        errors.append(rel_l2(truth_vals, learned_vals))
    return float(np.mean(errors))


def valid_fraction(generated: list[TokenSeq], truths: list[Equation]) -> float:
    """Share of sequences that decode and have symbolic error below 100%."""
    if len(generated) != len(truths):
        raise ValueError("need matched lists")
    if not generated:
        return 0.0
    n_valid = 0
    for seq, truth in zip(generated, truths):
        try:
            eq = from_tokens(seq)
            if symbolic_error(eq, truth) < 1.0:
                n_valid += 1
        except (DecodeError, UnsupportedNode):
            continue
    return n_valid / len(generated)


def time_series_error(refined: Equation, u0: np.ndarray,
                      truth_traj: SpaceTimeField) -> float:
    """Relative L2 error of the trajectory re-simulated from ``refined``."""
    law = law_from_equation(refined)
    sim = solve(
        law,
        u0,
        truth_traj.grid,
        float(truth_traj.times[-1]),
        int(truth_traj.times.size),
    )
    return rel_l2(truth_traj.values, sim.values)


def normalize(field: SpaceTimeField):
    """Zero-mean/unit-std rescaling by scalar statistics over all entries."""
    mean = float(np.mean(field.values))
    std = float(np.std(field.values))
    # a constant field can leave a rounding-level residual std
    if std <= 1e-13 * max(1.0, abs(mean)):
        raise DegenerateReference("constant field cannot be normalized")
    out = SpaceTimeField(field.grid, field.times.copy(), (field.values - mean) / std)
    return out, mean, std


def denormalize(field: SpaceTimeField, mean: float, std: float) -> SpaceTimeField:
    return SpaceTimeField(field.grid, field.times.copy(), field.values * std + mean)


# ---------------------------------------------------------------------------
# equation -> solvable law extraction

def law_from_equation(eq: Equation) -> ConservationLaw:
    """Extract (flux_kind, q1, q2) from a conservation-law residual.

    Accepts the flux-derivative form ``u_t + q1 (f(u))_x - q2 u_xx`` and the
    expanded products ``u*u_x`` (quadratic, q1 = c/2), ``u^2*u_x`` (cubic,
    q1 = c/3) and ``cos(u)*u_x`` (sine, q1 = c). Raises
    :class:`NotSolvable` for anything else.
    """
    coeff_t = None
    q1 = None
    flux_kind = None
    q2 = 0.0
    for coeff, factors in terms(eq.residual):
        if factors == (Deriv(FIELD, "t", 1),):
            coeff_t = coeff
        elif factors == (Deriv(FIELD, "x", 2),):
            q2 = -coeff
        else:
            match = _flux_term(factors)
            if match is None:
                term = build([(coeff, factors)])
                raise NotSolvable(f"unrecognized term in residual: {term!r}")
            flux_kind, scale = match
            q1 = coeff * scale
    if coeff_t is None or coeff_t == 0.0:
        raise NotSolvable("residual has no u_t term")
    if flux_kind is None or q1 is None:
        raise NotSolvable("residual has no recognizable flux term")
    q1 = q1 / coeff_t
    q2 = q2 / coeff_t
    if q2 < 0.0:
        raise NotSolvable("negative viscosity is not solvable")
    return ConservationLaw(flux_kind, q1, q2)


def _flux_term(factors: tuple[Expr, ...]):
    """(flux kind, scale) of a ``(f(u))_x`` or expanded ``g(u) u_x`` term."""
    ux = Deriv(FIELD, "x", 1)
    for kind, flux in FLUXES.items():
        if factors == (Deriv(flux.expr, "x", 1),):
            return kind, 1.0
        if len(factors) == 2 and ux in factors and flux.product in factors:
            return kind, flux.scale
    return None
