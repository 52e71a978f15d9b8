"""Shared test utilities: seeded random expression trees and independent
numerical oracles."""
from __future__ import annotations

import numpy as np

from pdesym.expr import (
    FIELD,
    Binary,
    Const,
    Deriv,
    Expr,
    Int,
    Unary,
    Var,
)

_MANUAL_DERIVS = [("t", 1), ("x", 1), ("x", 2), ("x", 3)]


def random_manual_tree(rng, depth: int = 4) -> Expr:
    """Random tree within manual-dialect coverage (shorthand derivatives)."""
    if depth == 0 or rng.random() < 0.3:
        choice = rng.integers(5)
        if choice == 0:
            return FIELD
        if choice == 1:
            var, order = _MANUAL_DERIVS[rng.integers(len(_MANUAL_DERIVS))]
            return Deriv(FIELD, var, order)
        if choice == 2:
            return Var(["x", "t", "y", "k"][rng.integers(4)])
        return Const(float(np.round(rng.uniform(-2.0, 2.0), 3)))
    choice = rng.integers(7)
    if choice < 4:
        op = ["add", "sub", "mul", "div"][choice]
        return Binary(op, random_manual_tree(rng, depth - 1), random_manual_tree(rng, depth - 1))
    if choice == 4:
        return Binary("pow", random_manual_tree(rng, depth - 1), Int(int(rng.integers(2, 4))))
    fn = ["sin", "cos", "neg"][rng.integers(3)]
    child = random_manual_tree(rng, depth - 1)
    if fn == "neg" and isinstance(child, Const):
        return Const(-child.value)  # parser folds literal negation
    if fn == "neg" and isinstance(child, Int):
        return Int(-child.value)
    return Unary(fn, child)


def random_general_tree(rng, depth: int = 4) -> Expr:
    """Random tree for canonicalization tests; division only by safe constants."""
    if depth == 0 or rng.random() < 0.3:
        choice = rng.integers(5)
        if choice == 0:
            return FIELD
        if choice == 1:
            var, order = _MANUAL_DERIVS[rng.integers(len(_MANUAL_DERIVS))]
            return Deriv(FIELD, var, order)
        if choice == 2:
            return Var("x" if rng.random() < 0.5 else "t")
        return Const(float(np.round(rng.uniform(-2.0, 2.0), 3)))
    choice = rng.integers(8)
    if choice < 3:
        op = ["add", "sub", "mul"][choice]
        return Binary(op, random_general_tree(rng, depth - 1), random_general_tree(rng, depth - 1))
    if choice == 3:
        denom = Const(float(np.round(rng.uniform(0.5, 2.0), 3)))
        return Binary("div", random_general_tree(rng, depth - 1), denom)
    if choice == 4:
        return Binary("pow", random_general_tree(rng, depth - 1), Int(int(rng.integers(2, 4))))
    if choice < 7:
        fn = ["sin", "cos", "neg"][choice - 5]
        return Unary(fn, random_general_tree(rng, depth - 1))
    return Binary("mul", Const(float(np.round(rng.uniform(-2.0, 2.0), 3))),
                  random_general_tree(rng, depth - 1))


def random_deriv_tree(rng, depth: int = 4) -> Expr:
    """Random tree with derivative nodes over composite subtrees and the
    unbound variables ``y`` and ``k`` among its leaves."""
    if depth == 0 or rng.random() < 0.25:
        choice = rng.integers(5)
        if choice == 0:
            return FIELD
        if choice == 1:
            return Deriv(FIELD, ["x", "t"][rng.integers(2)], int(rng.integers(1, 3)))
        if choice == 2:
            return Var(["x", "t", "y", "k"][rng.integers(4)])
        if choice == 3:
            return Var(["y", "k"][rng.integers(2)])
        return Const(float(np.round(rng.uniform(-2.0, 2.0), 3)))
    choice = rng.integers(9)
    if choice < 4:
        op = ["add", "sub", "mul", "div"][choice]
        return Binary(op, random_deriv_tree(rng, depth - 1), random_deriv_tree(rng, depth - 1))
    if choice == 4:
        return Binary("pow", random_deriv_tree(rng, depth - 1), Int(int(rng.integers(-1, 4))))
    if choice == 5:
        fn = ["sin", "cos", "neg"][rng.integers(3)]
        return Unary(fn, random_deriv_tree(rng, depth - 1))
    var = ["x", "t"][rng.integers(2)]
    return Deriv(random_deriv_tree(rng, depth - 1), var, int(rng.integers(1, 3)))


def oracle_euler_step(flux_kind: str, q1: float, q2: float, u, dt: float, dx: float):
    """Straight-line, loop-based re-implementation of one conservative
    forward-Euler update (local Lax-Friedrichs flux + central diffusion)."""
    import math

    def f(v):
        if flux_kind == "quadratic":
            return q1 * v * v
        if flux_kind == "cubic":
            return q1 * v**3
        return q1 * math.sin(v)

    def speed(v):
        if flux_kind == "quadratic":
            return abs(2.0 * q1 * v)
        if flux_kind == "cubic":
            return abs(3.0 * q1 * v * v)
        return abs(q1 * math.cos(v))

    n = len(u)
    flux = [0.0] * n
    for i in range(n):
        j = (i + 1) % n
        a = max(speed(u[i]), speed(u[j]))
        flux[i] = 0.5 * (f(u[i]) + f(u[j])) - 0.5 * a * (u[j] - u[i])
    out = np.empty(n)
    for i in range(n):
        im = (i - 1) % n
        ip = (i + 1) % n
        val = u[i] - dt * (flux[i] - flux[im]) / dx
        if q2 > 0.0:
            val += dt * q2 * (u[ip] - 2.0 * u[i] + u[im]) / (dx * dx)
        out[i] = val
    return out
