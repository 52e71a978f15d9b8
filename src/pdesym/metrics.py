"""Evaluation metrics for learned equations and predicted trajectories.

Symbolic error substitutes randomized-coefficient polynomial surrogates

    P(x, t) = (c0 + c1 t + c2 t^2)(c3 + c4 x + c5 x^2 + c6 x^3 + c7 x^4)

for the field in both the learned and the true residual, evaluates them on
a sample grid, and averages the relative L2 discrepancy. A generated token
sequence is *valid* when it decodes without error and its symbolic error
is below 100%.

Residuals are evaluated as Taylor jets (forward-mode Taylor arithmetic,
Griewank & Walther, *Evaluating Derivatives*, 2008, ch. 13), not by
expanding each derivative node symbolically. A residual compiles once into
a postfix program over its unexpanded tree, one explicit-stack walk that
also finds every unsupported node; the program then runs once per
surrogate. Each node's value is a jet: a dict from multi-index (i, j) to
the grid of d^i/dx^i d^j/dt^j f / (i! j!), holding only the entries the
derivative nodes above it need. ``symbolic_error`` shares one surrogate's
field grids between the truth and the learned residual.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import factorial, perm

import numpy as np

from .canon import terms
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
    Placeholder,
    Unary,
    Var,
    int_to_float,
    walk,
)
from .solver import FLUXES, ConservationLaw, SpaceTimeField, solve
from .tokens import TokenSeq, canonical_tokens_of_terms, from_tokens


# ---------------------------------------------------------------------------
# basic data metrics

def rel_l2(u: np.ndarray, v: np.ndarray) -> float:
    """Relative L2 error ||u - v|| / ||u|| over all entries (u is the target)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError("shapes must match")
    with np.errstate(all="ignore"):  # an overflowing norm is inf, not a warning
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

def _polyval(coeffs, z, order: int):
    """The ``order``-th derivative of sum_k c_k z^k.

    Term k is c_k * (k * ((k-1) * (... * z^(k-order)))), summed over k in
    turn: the order in which :func:`evaluate` computes the symbolic
    derivative of :meth:`PolySurrogate.as_expr`, so the two agree bit for
    bit.
    """
    out = np.full_like(np.asarray(z, dtype=float), 0.0 if order else coeffs[0])
    for k, c in enumerate(coeffs[1:], start=1):
        if k < order:
            continue
        mono = np.power(z, float(k - order)) if k > order else 1.0
        for m in range(k - order + 1, k + 1):
            mono = float(m) * mono
        out = out + c * mono
    return out


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
        return _polyval(self.c[:3], t, dt_order) * _polyval(self.c[3:], x, dx_order)

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
    """Evaluate the residual with u := P on a (len(ts), len(xs)) grid.

    The residual is not expanded. One walk over the tree gives each node a
    jet: the grids of its normalized Taylor coefficients
    d^i/dx^i d^j/dt^j f / (i! j!) for the multi-indices (i, j) that the
    derivative nodes above it need. The field's entries come from
    :meth:`PolySurrogate.value`, sums add entrywise, products use the
    Leibniz rule, quotients its recurrence, and ``sin``, ``cos`` and integer
    powers the chain rule (Faa di Bruno) around their order-0 value.

    The reference is ``evaluate(substitute_field(eq.residual,
    P.as_expr()), {"x": X, "t": T})``. This raises :class:`UnsupportedNode`
    wherever the reference does. It matches the reference bit for bit when
    every derivative node applies to the field itself, since the field's
    grids and every order-0 value use the reference's arithmetic, and to
    rounding otherwise. Derivatives of other nodes are supported up to total
    order :data:`MAX_JET_ORDER`.
    """
    X, T = np.meshgrid(xs, ts)
    return _run(_compile(eq, X, T), _FieldGrids(surrogate, xs, ts))


# ---------------------------------------------------------------------------
# Taylor jets. A jet maps a multi-index (i, j) to a grid or a float; keys run
# lowest total order first.

_ORIGIN = ((0, 0),)

#: highest total order a jet entry may have below a derivative node whose
#: child is not the field itself (derivatives of the field cost nothing)
MAX_JET_ORDER = 16


def _below(need: tuple) -> tuple:
    """Every multi-index at or below one in ``need``, lowest order first."""
    if need == _ORIGIN:
        return need
    keys = {(p, q) for i, j in need for p in range(i + 1) for q in range(j + 1)}
    return tuple(sorted(keys, key=lambda k: (k[0] + k[1], k[0])))


def _splits(k: tuple) -> list:
    """The pairs (p, k - p) with p <= k."""
    return [((p, q), (k[0] - p, k[1] - q))
            for p in range(k[0] + 1) for q in range(k[1] + 1)]


def _above(bad: dict, keys: tuple) -> dict:
    """The entries of ``keys`` at or above an entry of ``bad``."""
    return {k: msg for (bi, bj), msg in bad.items() for k in keys
            if k[0] >= bi and k[1] >= bj}


def _chain_plan(fn: str, n: int, keys: tuple) -> tuple:
    """Coefficients f^(m)(a0)/m! and the sums of (a - a0)^m for f(a).

    ``f^(m)(a0)/m!`` is ``scale * base``: base is a0^(n-m) for a power,
    else cos(a0) when the flag is set and sin(a0) when not. A positive
    power's coefficients vanish past its degree, where the symbolic rule's
    ``Const(1.0)`` ends the chain; a power of zero or less keeps every one,
    so ``(u^0)_x`` is NaN wherever u is 0, as the expansion makes it.
    """
    top = max(k[0] + k[1] for k in keys)
    if fn == "pow" and n >= 1:
        top = min(top, n)
    coeffs = []
    binom = 1.0
    for m in range(1, top + 1):
        if fn == "pow":
            binom = binom * (float(n) - (m - 1)) / m
            coeffs.append((binom, float(n - m)))
        else:  # sin's derivatives cycle cos, -sin, -cos, sin; cos's lag one
            sign = (1.0, 1.0, -1.0, -1.0)[(m + (fn == "cos")) % 4]
            coeffs.append((sign / factorial(m), (m % 2 == 1) == (fn == "sin")))
    powers = [
        [(k, [(p, r) for p, r in _splits(k) if p[0] + p[1] >= m - 1 and r != (0, 0)])
         for k in keys if k[0] + k[1] >= m]
        for m in range(2, top + 1)
    ]
    return coeffs, powers


def _compile(eq, X, T) -> list:
    """Postfix program for the residual's jet entry (0, 0) on the grid X, T.

    A subtree with no field leaf has the same jet for every surrogate, so
    its program runs here, once, and stays as that jet.

    Raises the :class:`UnsupportedNode` that expanding the residual with
    :func:`substitute_field` and evaluating it would raise: an unbound
    variable, a placeholder or an out-of-range integer whose value the
    expansion evaluates, or a non-integer power under a derivative. An
    entry of total order above :data:`MAX_JET_ORDER` is unsupported too.
    """
    prog: list = []
    env = {"x": X, "t": T}

    # A node's value is (the entries its expansion cannot evaluate, whether
    # it holds the field).
    def enter(e, need):
        kids = _children(e, need)
        if not kids:
            instr, bad = _leaf(e, need, env)
            prog.append(instr)
            return ((bad, instr[0] == "field"),)
        note = (need, kids[0][1], len(prog))
        return (note, *kids[0]) if len(kids) == 1 else (note, *kids[0], *kids[1])

    def leave(e, note, *kids):
        need, keys, start = note
        found = [bad for bad, _ in kids]
        op = "deriv" if isinstance(e, Deriv) else e.fn if isinstance(e, Unary) else e.op
        if op == "deriv":
            axis = int(e.var == "t")
            plan = [(k, src, float(perm(src[axis], e.order))) for k, src in zip(need, keys)]
            prog.append((op, plan))
            bad = {k: found[0][src] for k, src, _ in plan if src in found[0]}
        elif op in ("add", "sub", "neg"):
            prog.append((op, need))
            bad = {k: msg for part in found for k, msg in part.items()}
        elif op == "pow" and len(kids) == 2:  # a non-integer exponent
            prog.append(("power",))
            bad = {**found[0], **found[1]}
        elif op in ("sin", "cos", "pow"):
            n = e.right.value if op == "pow" else 0
            prog.append(("chain", op, int_to_float(n), need, *_chain_plan(op, n, keys)))
            if op == "pow" and n == 1:  # the expansion of d(a^1) never evaluates a
                bad = _above({k: m for k, m in found[0].items() if k != (0, 0)}, keys)
                bad.update({k: m for k, m in found[0].items() if k == (0, 0)})
            else:
                bad = _above(found[0], keys)
        else:
            if op == "div":  # the recurrence runs through every key below
                plan = [(k, [(m, q) for m, q in _splits(k) if m != (0, 0)]) for k in keys]
            else:
                plan = [(k, _splits(k)) for k in need]
            prog.append((op, plan))
            bad = _above({**found[0], **found[1]}, keys)
        field = any(has_field for _, has_field in kids)
        if not field:
            prog[start:] = [("jet", _jet(prog[start:], None))]
        return bad, field

    residual = eq.residual if isinstance(eq, Equation) else eq
    bad, _ = walk(residual, enter, leave, _ORIGIN)
    if (0, 0) in bad:
        raise UnsupportedNode(bad[(0, 0)])
    return prog


def _children(e: Expr, need: tuple) -> list:
    """(child, keys it must compute) pairs; none for a leaf or a chain of
    derivative nodes over the field."""
    if isinstance(e, Deriv):
        base = e
        while isinstance(base, Deriv):
            base = base.child
        if isinstance(base, Field):
            return []
        axis = int(e.var == "t")
        keys = tuple((i + e.order, j) if axis == 0 else (i, j + e.order) for i, j in need)
        if max(i + j for i, j in keys) > MAX_JET_ORDER:
            raise UnsupportedNode(
                f"derivatives above total order {MAX_JET_ORDER} are not supported"
            )
        return [(e.child, keys)]
    if isinstance(e, Unary):
        return [(e.child, need if e.fn == "neg" else _below(need))]
    if not isinstance(e, Binary):
        return []
    if e.op in ("add", "sub"):
        return [(e.left, need), (e.right, need)]
    if e.op == "pow" and isinstance(e.right, Int):
        int_to_float(e.right.value)
        return [(e.left, _below(need))]
    if e.op == "pow" and need != _ORIGIN:
        raise UnsupportedNode("cannot differentiate a non-integer power")
    return [(e.left, _below(need)), (e.right, _below(need))]


def _leaf(e: Expr, need: tuple, env: dict) -> tuple:
    """The instruction for a leaf or a chain of derivative nodes over the
    field, and the entries the expansion cannot evaluate."""
    if isinstance(e, (Deriv, Field)):
        shift = [0, 0]
        while isinstance(e, Deriv):
            shift[e.var == "t"] += e.order
            e = e.child
        return ("field", [(k, (k[0] + shift[0], k[1] + shift[1]),
                           float(factorial(k[0]) * factorial(k[1]))) for k in need]), {}
    value, msg = np.nan, None
    if isinstance(e, Const):
        value = e.value
    elif isinstance(e, Int):
        try:
            value = int_to_float(e.value)
        except UnsupportedNode as exc:
            msg = str(exc)
    elif isinstance(e, Var):
        value = env.get(e.name, np.nan)
        if e.name not in env:
            msg = f"unbound variable {e.name!r}"
    elif isinstance(e, Placeholder):
        msg = "Placeholder is not directly evaluable"
    else:
        raise UnsupportedNode(f"cannot evaluate {type(e).__name__}")
    # derivatives of x and t are the unit multi-indices, of anything else 0
    unit = {"x": (1, 0), "t": (0, 1)}.get(getattr(e, "name", None))
    jet = {k: value if k == (0, 0) else float(k == unit) for k in need}
    return ("jet", jet), {(0, 0): msg} if msg and (0, 0) in jet else {}


class _FieldGrids(dict):
    """One surrogate's derivative grids, each computed on first use."""

    def __init__(self, surrogate: PolySurrogate, xs, ts):
        super().__init__()
        xs, ts = np.asarray(xs, dtype=float), np.asarray(ts, dtype=float)
        # a row and a column broadcast to the grid with the same bits
        self.surrogate, self.x, self.t = surrogate, xs[None, :], ts[:, None]
        self.shape = (ts.size, xs.size)

    def __missing__(self, key):
        grid = self[key] = self.surrogate.value(self.x, self.t, *key)
        return grid


def _convolve(l: dict, r: dict, plan: list) -> dict:
    """Entry k is the sum over the plan's pairs (p, q) of l[p] * r[q]."""
    out = {}
    for k, pairs in plan:
        (p, q), *rest = pairs
        acc = l[p] * r[q]
        for p, q in rest:
            acc = acc + l[p] * r[q]
        out[k] = acc
    return out


def _run(prog: list, field: _FieldGrids) -> np.ndarray:
    """The residual grid of a program from :func:`_compile` on one
    surrogate's grids."""
    out = _jet(prog, field)[(0, 0)]
    return np.broadcast_to(np.asarray(out, dtype=float), field.shape).copy()


def _jet(prog: list, field: _FieldGrids | None) -> dict:
    """Execute a program, or a field-free part of one, and return its jet."""
    stack: list[dict] = []
    push, pop = stack.append, stack.pop
    with np.errstate(all="ignore"):
        for op, *args in prog:
            if op == "field":
                push({k: field[src] if s == 1.0 else field[src] / s for k, src, s in args[0]})
            elif op == "jet":
                push(args[0])
            elif op == "deriv":
                c = pop()
                push({k: c[src] if f == 1.0 else c[src] * f for k, src, f in args[0]})
            elif op == "neg":
                c = pop()
                push({k: -c[k] for k in args[0]})
            elif op == "chain":
                push(_chain(pop(), *args))
            else:
                r, l = pop(), pop()
                if op == "add":
                    push({k: l[k] + r[k] for k in args[0]})
                elif op == "sub":
                    push({k: l[k] - r[k] for k in args[0]})
                elif op == "mul":
                    push(_convolve(l, r, args[0]))
                elif op == "div":  # (l - sum of r[m] q[k - m] over m != 0) / r[0]
                    q = {}
                    for k, pairs in args[0]:
                        acc = l[k]
                        for m, rest in pairs:
                            acc = acc - r[m] * q[rest]
                        q[k] = np.divide(acc, r[(0, 0)])
                    push(q)
                else:  # a non-integer power, at order 0 only
                    push({(0, 0): np.power(l[(0, 0)], r[(0, 0)])})
    return stack[0]


def _chain(a: dict, fn: str, n: float, need: tuple, coeffs: list, powers: list) -> dict:
    """Entries ``need`` of sin(a), cos(a) or a^n: the sum over m of
    f^(m)(a0)/m! (a - a0)^m."""
    a0 = a[(0, 0)]
    out = {}
    if (0, 0) in need:  # a^n of a negative base is slow: skip it when unused
        f = np.power(a0, n) if fn == "pow" else np.sin(a0) if fn == "sin" else np.cos(a0)
        out[(0, 0)] = f
    if not coeffs:
        return out
    if fn == "pow":
        scales = [scale * np.power(a0, p) for scale, p in coeffs]
    else:
        s, c = np.sin(a0), np.cos(a0)
        scales = [scale * (c if use_cos else s) for scale, use_cos in coeffs]
    out.update({k: scales[0] * a[k] for k in need if k != (0, 0)})
    inc = a  # (a - a0)^m, from m = 1; entry (0, 0) is never read
    for fm, plan in zip(scales[1:], powers):
        inc = _convolve(inc, a, plan)
        for k in need:
            if k in inc:
                out[k] = out[k] + fm * inc[k]
    return out


# ---------------------------------------------------------------------------
# equation metrics

def symbolic_error(learned: Equation, truth: Equation, n_polys: int = 10,
                   n_x: int = 32, n_t: int = 32, seed: int = 0) -> float:
    """Mean relative L2 discrepancy of the two residuals over surrogates.

    Surrogate coefficients are Unif(-1, 1); draws whose truth residual has
    grid RMS below 1e-6 are rejected so the reference never degenerates.
    """
    for name, size in (("n_polys", n_polys), ("n_x", n_x), ("n_t", n_t)):
        if size < 1:
            raise ValueError(f"{name} must be at least 1, got {size}")
    xs = np.linspace(0.0, 1.0, n_x)
    ts = np.linspace(0.0, 1.0, n_t)
    X, T = np.meshgrid(xs, ts)
    rng = np.random.default_rng(seed)
    truth_prog = _compile(truth, X, T)
    learned_prog = None
    errors = []
    for _ in range(n_polys):
        for _attempt in range(100):
            field = _FieldGrids(PolySurrogate.random(rng), xs, ts)
            truth_vals = _run(truth_prog, field)
            if float(np.sqrt(np.mean(truth_vals**2))) >= 1e-6:
                break
        else:
            raise DegenerateReference(
                "truth residual vanishes on every sampled surrogate"
            )
        if learned_prog is None:  # the learned residual is first needed here
            learned_prog = _compile(learned, X, T)
        errors.append(rel_l2(truth_vals, _run(learned_prog, field)))
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
                try:
                    shown = canonical_tokens_of_terms([(coeff, factors)]).text
                except UnsupportedNode:
                    shown = "a term with no token form"
                raise NotSolvable(f"unrecognized term in residual: {shown}")
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
