"""Perturbed symbolic-input settings: branch swapping, erroneous-term
injection, and coefficient masking.

All operations are deterministic given (input, seed). Branch swapping
visits the tree in pre-order and flips each commutative node independently
with the configured probability; a flipped subtraction ``a - b`` is
rewritten as ``(-1)*b + a`` so the result stays mathematically equivalent.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canon import build, term_head, terms
from .expr import (
    FIELD,
    PLACEHOLDER,
    Binary,
    Const,
    Deriv,
    Equation,
    Expr,
    Unary,
    walk,
)


# In-vocabulary erroneous terms u, u*u_x, u_xx, sin(u), and the interval
# their coefficient is drawn from.
NOISE_TERMS = (FIELD, Binary("mul", FIELD, Deriv(FIELD, "x", 1)), Deriv(FIELD, "x", 2),
               Unary("sin", FIELD))
NOISE_COEFF_RANGE = (0.1, 1.0)


@dataclass
class PerturbConfig:
    swap_prob: float = 0.5
    noise_prob: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.swap_prob <= 1.0:
            raise ValueError("swap_prob must lie in [0, 1]")
        if not 0.0 <= self.noise_prob <= 1.0:
            raise ValueError("noise_prob must lie in [0, 1]")


def swap_branches(e, cfg: PerturbConfig):
    """Randomly reorder commutative branches with probability ``swap_prob``.

    Each add/mul node's operands are swapped independently; a swapped
    ``sub(a, b)`` becomes ``add(mul(-1, b), a)``. The output is always
    mathematically equivalent to the input, and ``swap_prob = 0`` is the
    structural identity.
    """
    rng = np.random.default_rng(cfg.seed)
    if isinstance(e, Equation):
        return Equation(_swap(e.residual, cfg.swap_prob, rng))
    return _swap(e, cfg.swap_prob, rng)


def _swap(e: Expr, prob: float, rng) -> Expr:
    """Swap each add/mul/sub node with probability ``prob``.

    The draws come in pre-order (node, left operand, right operand); the
    tree is rebuilt bottom-up as the walk leaves each node."""

    def enter(e, _):
        t = type(e)
        if t is Binary:
            fired = e.op in ("add", "sub", "mul") and prob > 0.0 and rng.random() < prob
            return (fired, e.left, None, e.right, None)
        if t is Unary or t is Deriv:
            return None
        return (e,)

    def leave(e, fire, left, right=None):
        t = type(e)
        if t is Unary:
            return Unary(e.fn, left)
        if t is Deriv:
            return Deriv(left, e.var, e.order)
        if fire and e.op == "sub":
            return Binary("add", Binary("mul", Const(-1.0), right), left)
        if fire:
            return Binary(e.op, right, left)
        return Binary(e.op, left, right)

    return walk(e, enter, leave)


@dataclass(frozen=True)
class NoiseInjection:
    """Result of :func:`inject_noise_term` with provenance of the change."""

    equation: Equation
    injected_term: Expr | None

    @property
    def fired(self) -> bool:
        return self.injected_term is not None


def inject_noise_term(eq: Equation, cfg: PerturbConfig) -> NoiseInjection:
    """With probability ``noise_prob`` add one random erroneous term c*T.

    T is drawn uniformly from ``NOISE_TERMS`` and c uniformly from
    ``NOISE_COEFF_RANGE``. The injected term is returned alongside the
    equation so callers can verify detection/removal behaviour.
    """
    rng = np.random.default_rng(cfg.seed)
    if rng.random() >= cfg.noise_prob:
        return NoiseInjection(eq, None)
    template = NOISE_TERMS[rng.integers(len(NOISE_TERMS))]
    coeff = float(rng.uniform(*NOISE_COEFF_RANGE))
    term = Binary("mul", Const(coeff), template)
    return NoiseInjection(Equation(Binary("add", eq.residual, term)), term)


def mask_coefficients(eq: Equation) -> Equation:
    """Replace every term's coefficient slot with a placeholder.

    The residual is canonicalized and each top-level term's leading
    coefficient (explicit constant or implicit 1) becomes a ``Placeholder``
    that serializes as the ``[?]`` token. Term structure and order are
    otherwise unchanged.
    """
    masked = []
    for coeff, factors in terms(eq.residual) or [(0.0, ())]:
        _, rest = term_head(coeff, factors)
        masked.append((1.0, (PLACEHOLDER, *rest)))
    return Equation(build(masked))
