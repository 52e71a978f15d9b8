"""Evaluation metrics for learned equations and predicted trajectories.

Symbolic error substitutes randomized-coefficient polynomial surrogates

    P(x, t) = (c0 + c1 t + c2 t^2)(c3 + c4 x + c5 x^2 + c6 x^3 + c7 x^4)

for the field in both the learned and the true residual, evaluates them on
a sample grid, and averages the relative L2 discrepancy. A generated token
sequence is *valid* when it decodes without error and its symbolic error
is below 100%.

Residuals are evaluated as Taylor jets (forward-mode Taylor arithmetic,
Griewank & Walther, *Evaluating Derivatives*, 2008, ch. 13), not by
expanding each derivative node symbolically; that expansion is the
reference the tests check the jets against, and it lives with them in
``tests/helpers.py``. One explicit-stack walk over a residual's
unexpanded tree evaluates it on a block of surrogates at once, one
(n_t, n_x) grid per surrogate along a leading axis. Each node's value is a
jet: a dict from multi-index (i, j) to the grids of
d^i/dx^i d^j/dt^j f / (i! j!), holding only the entries the derivative
nodes above it need. A leaf that the expanded residual could not evaluate
(an unbound variable, say) is an entry that carries its error through the
arithmetic, so the error surfaces when the walk ends, and only if the
residual's value uses that leaf.

``symbolic_error`` draws the surrogates it still needs as one block,
evaluates the truth once on it and accepts rows in draw order; the learned
residual is then evaluated once on the accepted rows, on the truth's own
field grids when the first block is accepted whole. Every operation is
elementwise, and each row's acceptance test and error are reduced over
its own slice, so batching moves no bit: scoring one surrogate at a time
gives the same floats.
"""
from __future__ import annotations

from functools import lru_cache
from math import factorial, isfinite, perm, sqrt
from typing import NamedTuple

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
    Placeholder,
    Unary,
    Var,
    int_to_float,
    walk,
)
from .solver import FLUXES, ConservationLaw, SpaceTimeField, solve
from .tokens import TokenSeq, from_tokens, to_canonical_tokens


# ---------------------------------------------------------------------------
# basic data metrics

def _norm(x: np.ndarray) -> float:
    """The L2 norm of a 1-D float array: sqrt(x . x), which is what
    ``np.linalg.norm`` computes for one, bit for bit."""
    return sqrt(x.dot(x))


def rel_l2(u: np.ndarray, v: np.ndarray) -> float:
    """Relative L2 error ||u - v|| / ||u|| over all entries (u is the target)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError("shapes must match")
    with np.errstate(all="ignore"):  # an overflowing norm is inf, not a warning
        denom = _norm(u.ravel())
        if denom == 0.0:
            raise DegenerateReference("reference field has zero norm")
        return _norm((u - v).ravel()) / denom


def r2_score(targets, preds) -> float:
    """1 - sum_i ||u_i - v_i||^2 / sum_i ||u_i - mean(u_i)||^2."""
    if len(targets) == 0 or len(targets) != len(preds):
        raise ValueError("need matched, nonempty sample lists")
    num = 0.0
    den = 0.0
    for u, v in zip(targets, preds):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        with np.errstate(all="ignore"):  # an overflowing sum is inf, not a warning
            num += float(np.sum((u - v) ** 2))
            den += float(np.sum((u - np.mean(u)) ** 2))
    if den == 0.0:
        raise DegenerateReference("targets are constant; R^2 undefined")
    return 1.0 - num / den


# ---------------------------------------------------------------------------
# polynomial surrogate

def _monomials(z, degree: int, order: int) -> tuple:
    """The factors k * ((k-1) * (... * z^(k-order))) of c_k, for k from
    max(order, 1) to ``degree``, in the ``order``-th derivative of
    sum_k c_k z^k; a float where the power is z^0, and none past the degree."""
    row = []
    for k in range(max(order, 1), degree + 1):
        mono = np.power(z, float(k - order)) if k > order else 1.0
        for m in range(k - order + 1, k + 1):
            mono = float(m) * mono
        row.append(mono)
    return tuple(row)


def _polyval(coeffs, z, order: int, row: tuple):
    """The ``order``-th derivative of sum_k c_k z^k, where each c_k is a
    float or a column of coefficients that broadcasts against z, and
    ``row`` is :func:`_monomials` of z for that order.

    Term k is c_k times its factor in ``row``, summed over k in turn: the
    order in which the symbolic-expansion reference in ``tests/helpers.py``
    evaluates the derivative of the surrogate's polynomial tree, so the two
    agree bit for bit. Every operation is elementwise, so a column's
    entries are the bits of its floats.
    """
    shape = np.broadcast_shapes(np.shape(coeffs[0]), np.shape(z))
    out = np.full(shape, 0.0 if order else coeffs[0])
    for c, mono in zip(coeffs[max(order, 1):], row):
        out = out + c * mono
    return out


def _surrogate_monomials(xs: np.ndarray, ts: np.ndarray) -> tuple:
    """:func:`_monomials` rows of the surrogate's t- and x-polynomials, for
    every derivative order up to their degrees (2 and 4), on a column of t
    and a row of x."""
    t, x = ts[:, None], xs[None, :]
    return (tuple(_monomials(t, 2, j) for j in range(3)),
            tuple(_monomials(x, 4, i) for i in range(5)))


class _SampleGrid(NamedTuple):
    """A grid that surrogates are sampled on: its axes, their meshgrid and
    :func:`_surrogate_monomials`."""

    xs: np.ndarray
    ts: np.ndarray
    X: np.ndarray
    T: np.ndarray
    monomials: tuple


def _grid(xs, ts) -> _SampleGrid:
    """The :class:`_SampleGrid` of the axes ``xs`` and ``ts``."""
    xs, ts = np.asarray(xs, dtype=float), np.asarray(ts, dtype=float)
    X, T = np.meshgrid(xs, ts)
    return _SampleGrid(xs, ts, X, T, _surrogate_monomials(xs, ts))


@lru_cache(maxsize=8)
def _sample_grid(n_x: int, n_t: int) -> _SampleGrid:
    """The shared, read-only :func:`_grid` of ``n_x`` by ``n_t`` points on
    [0, 1], built on its first use. None of it depends on the equations
    scored, so sharing it moves no bit."""
    grid = _grid(np.linspace(0.0, 1.0, n_x), np.linspace(0.0, 1.0, n_t))
    for a in (*grid[:4], *(m for rows in grid.monomials for row in rows for m in row)):
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return grid


# ---------------------------------------------------------------------------
# Taylor jets. A jet maps a multi-index (i, j) to a grid or a float; keys run
# lowest total order first.

_ORIGIN = ((0, 0),)

#: highest total order a jet entry may have below a derivative node whose
#: child is not the field itself (derivatives of the field cost nothing)
MAX_JET_ORDER = 16


# The plan helpers below are pure functions of small index tuples (orders
# are at most MAX_JET_ORDER), so each result is computed once per process.

@lru_cache(maxsize=1024)
def _below(need: tuple) -> tuple:
    """Every multi-index at or below one in ``need``, lowest order first."""
    keys = {(p, q) for i, j in need for p in range(i + 1) for q in range(j + 1)}
    return tuple(sorted(keys, key=lambda k: (k[0] + k[1], k[0])))


@lru_cache(maxsize=1024)
def _splits(k: tuple) -> tuple:
    """The pairs (p, k - p) with p <= k."""
    return tuple(((p, q), (k[0] - p, k[1] - q))
                 for p in range(k[0] + 1) for q in range(k[1] + 1))


@lru_cache(maxsize=1024)
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
    powers = tuple(
        tuple((k, tuple((p, r) for p, r in _splits(k) if p[0] + p[1] >= m - 1 and r != (0, 0)))
              for k in keys if k[0] + k[1] >= m)
        for m in range(2, top + 1)
    )
    return tuple(coeffs), powers


def _residual(eq, field: _FieldGrids) -> np.ndarray:
    """The (k, n_t, n_x) residual grids of ``eq`` on a block of surrogates'
    field grids, from one walk over its unexpanded tree.

    Each node's jet holds the entries its parent needs and comes from its
    children's jets; a subtree with no field leaf is evaluated on the
    grid's X and T, which broadcast against the block. Raises
    :class:`UnsupportedNode` for a non-integer power under a derivative, for
    an entry of total order above :data:`MAX_JET_ORDER`, and, once the walk
    is done, for an :class:`_Unevaluable` value.
    """
    env = {"x": field.grid.X, "t": field.grid.T}

    def enter(e, need):
        kids = _children(e, need)
        if not kids:
            return (_leaf(e, need, env, field),)
        note = (need, kids[0][1])
        return (note, *kids[0]) if len(kids) == 1 else (note, *kids[0], *kids[1])

    def leave(e, note, l, r=None):
        need, keys = note
        if isinstance(e, Deriv):
            axis = int(e.var == "t")
            out = {}
            for k, src in zip(need, keys):
                f = float(perm(src[axis], e.order))
                out[k] = l[src] if f == 1.0 else l[src] * f
            return out
        op = e.fn if isinstance(e, Unary) else e.op
        if op == "neg":
            return {k: -l[k] for k in need}
        if op == "add":
            return {k: l[k] + r[k] for k in need}
        if op == "sub":
            return {k: l[k] - r[k] for k in need}
        if op == "mul":
            return _convolve(l, r, [(k, _splits(k)) for k in need])
        if op == "div":  # (l - sum of r[m] q[k - m] over m != 0) / r[0], through every key below
            q, r0 = {}, r[(0, 0)]
            for k in keys:
                pairs = [(m, rest) for m, rest in _splits(k) if m != (0, 0)]
                # past order 0 the expansion, l'/r - l r'/r^2, reads r right after l'
                acc = l[k] + r0 if pairs and isinstance(r0, _Unevaluable) else l[k]
                for m, rest in pairs:
                    acc = acc - r[m] * q[rest]
                q[k] = np.divide(acc, r0)
            return q
        if r is not None:  # a non-integer power, at order 0 only
            return {(0, 0): np.power(l[(0, 0)], r[(0, 0)])}
        n = e.right.value if op == "pow" else 0
        return _chain(l, op, int_to_float(n), need, *_chain_plan(op, n, keys))

    with np.errstate(all="ignore"):
        out = walk(eq.residual if isinstance(eq, Equation) else eq, enter, leave, _ORIGIN)[(0, 0)]
    if isinstance(out, _Unevaluable):
        raise UnsupportedNode(out.message)
    return np.broadcast_to(np.asarray(out, dtype=float), field.shape).copy()


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


def _leaf(e: Expr, need: tuple, env: dict, field: _FieldGrids) -> dict:
    """The jet of a leaf or of a chain of derivative nodes over the field.
    A value the expansion cannot evaluate is an :class:`_Unevaluable`; its
    derivatives, like any leaf's, are 0 or 1."""
    if isinstance(e, (Deriv, Field)):
        shift = [0, 0]
        while isinstance(e, Deriv):
            shift[e.var == "t"] += e.order
            e = e.child
        out = {}
        for i, j in need:
            grid, s = field[i + shift[0], j + shift[1]], float(factorial(i) * factorial(j))
            out[i, j] = grid if s == 1.0 else grid / s
        return out
    if isinstance(e, Const):
        value = e.value
    elif isinstance(e, Int):
        try:
            value = int_to_float(e.value)
        except UnsupportedNode as exc:
            value = _Unevaluable(str(exc))
    elif isinstance(e, Var):
        value = env[e.name] if e.name in env else _Unevaluable(f"unbound variable {e.name!r}")
    elif isinstance(e, Placeholder):
        value = _Unevaluable("Placeholder is not directly evaluable")
    else:
        raise UnsupportedNode(f"cannot evaluate {type(e).__name__}")
    # derivatives of x and t are the unit multi-indices, of anything else 0
    unit = {"x": (1, 0), "t": (0, 1)}.get(getattr(e, "name", None))
    return {k: value if k == (0, 0) else float(k == unit) for k in need}


class _Unevaluable:
    """A jet entry whose expansion evaluates a leaf that has no value.

    Arithmetic and numpy ufuncs return it unchanged, the left operand's
    when two meet, so it reaches exactly the entries that evaluate the
    leaf; :func:`_residual` raises its message.
    """

    def __init__(self, message: str):
        self.message = message

    def _same(self, *_):
        return self

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = __neg__ = _same

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        return next(x for x in inputs if isinstance(x, _Unevaluable))


class _FieldGrids(dict):
    """The derivative grids of a block of surrogates on a
    :class:`_SampleGrid`, one per row of a (k, 8) coefficient matrix,
    stacked as (k, n_t, n_x) and each computed on first use as the product
    of a t- and an x-polynomial. Those are computed once per derivative
    order from the grid's monomial tables, so only the coefficient
    arithmetic runs per block; an order past a polynomial's degree reads
    an empty row.
    """

    def __init__(self, coeffs: np.ndarray, grid: _SampleGrid):
        super().__init__()
        self.coeffs, self.grid = np.asarray(coeffs, dtype=float), grid
        # coefficient columns of shape (k, 1, 1) broadcast to the grids with the same bits
        self.cols = self.coeffs.T[:, :, None, None]
        self.shape = (len(self.coeffs), grid.ts.size, grid.xs.size)
        self.tpolys, self.xpolys = {}, {}

    def __missing__(self, key):
        i, j = key
        (tmono, xmono), t, x = self.grid.monomials, self.grid.ts[:, None], self.grid.xs[None, :]
        if j not in self.tpolys:
            self.tpolys[j] = _polyval(self.cols[:3], t, j, tmono[j] if j < len(tmono) else ())
        if i not in self.xpolys:
            self.xpolys[i] = _polyval(self.cols[3:], x, i, xmono[i] if i < len(xmono) else ())
        grid = self[key] = self.tpolys[j] * self.xpolys[i]
        return grid


def _convolve(l: dict, r: dict, plan: list) -> dict:
    """Entry k is the sum over the plan's pairs (p, q) of l[p] * r[q].

    Each product is added on the left of the sum so far, which moves no bit
    but lets an :class:`_Unevaluable` in a later pair win, as the expansion
    of (l r)' = l' r + l r' reads l' first.
    """
    out = {}
    for k, pairs in plan:
        (p, q), *rest = pairs
        acc = l[p] * r[q]
        for p, q in rest:
            acc = l[p] * r[q] + acc
        out[k] = acc
    return out


def _chain(a: dict, fn: str, n: float, need: tuple, coeffs: list, powers: list) -> dict:
    """Entries ``need`` of sin(a), cos(a) or a^n: the sum over m of
    f^(m)(a0)/m! (a - a0)^m."""
    a0 = a[(0, 0)]
    out = {}
    if (0, 0) in need:  # a^n of a negative base is slow: skip it when unused
        out[(0, 0)] = np.power(a0, n) if fn == "pow" else np.sin(a0) if fn == "sin" else np.cos(a0)
    if not coeffs:
        return out
    if fn == "pow":
        # a0^0 is 1.0 for every float, and d(a^1) never evaluates a
        scales = [scale * np.power(a0, p) if p else scale for scale, p in coeffs]
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

#: surrogates per ``symbolic_error`` score, and the points of each
#: surrogate's sample grid along x and t
N_POLYS, N_X, N_T = 10, 32, 32


def symbolic_error(learned: Equation, truth: Equation, seed: int = 0) -> float:
    """Mean relative L2 discrepancy of the two residuals over surrogates.

    Surrogate coefficients are Unif(-1, 1). The k of the ``N_POLYS``
    surrogates still needed are drawn as one (k, 8) block, and one walk of
    the truth's residual evaluates it on the block's (k, ``N_T``, ``N_X``)
    grids. Rows are accepted in draw order: a draw whose truth residual has
    grid RMS below 1e-6 is rejected, so the reference never degenerates,
    and the 100th rejection in a row raises :class:`DegenerateReference`.
    One walk of the learned residual then evaluates it on the accepted
    rows, on the truth's own grids when the first block is accepted whole.
    Each row's RMS test and relative L2 error reduce over that row's slice
    alone, so the result, and which error is raised, are those of drawing,
    testing and scoring one surrogate at a time. A residual that overflows
    gives a NaN or inf score, not a warning.

    What does not depend on the equations is shared by every call of one
    size: the axes, their meshgrid and the surrogate monomial tables of
    :func:`_sample_grid`, and the index plans the walk reads. They are
    built on first use and hold the bits each call would compute, so
    sharing them changes no result.
    """
    grid = _sample_grid(N_X, N_T)
    rng = np.random.default_rng(seed)
    accepted, truth_vals, rejected = [], [], 0
    while len(accepted) < N_POLYS and rejected < 100:
        field = _FieldGrids(rng.uniform(-1.0, 1.0, (N_POLYS - len(accepted), 8)), grid)
        block = _residual(truth, field)
        # each row's (n_t, n_x) slice is contiguous, so its mean sums the
        # entries as the mean of that row alone does; an overflowing square
        # is inf, not a warning
        with np.errstate(all="ignore"):
            passed = np.sqrt(np.mean(block**2, axis=(1, 2))) >= 1e-6
        for c, vals, ok in zip(field.coeffs, block, passed):
            if ok:
                accepted.append(c)
                truth_vals.append(vals)
                rejected = 0
            else:
                rejected += 1
                if rejected == 100:
                    break
    if accepted:  # the learned residual is first needed at the first acceptance
        if not len(accepted) == len(field.coeffs) == N_POLYS:
            field = _FieldGrids(np.array(accepted), grid)
        learned_vals = _residual(learned, field)
    if len(accepted) < N_POLYS:
        raise DegenerateReference("truth residual vanishes on every sampled surrogate")
    with np.errstate(all="ignore"):  # rel_l2 of each row; no accepted row has zero norm
        errors = [_norm((u - v).ravel()) / _norm(u.ravel())
                  for u, v in zip(truth_vals, learned_vals)]
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
    """Relative L2 error of the trajectory re-simulated from ``refined``.

    The re-simulation reports at ``linspace(0, t[-1], nt)``, so
    ``truth_traj`` must hold its frames at those times."""
    law = law_from_equation(refined)
    sim = solve(
        law,
        u0,
        truth_traj.grid,
        float(truth_traj.times[-1]),
        int(truth_traj.times.size),
    )
    return rel_l2(truth_traj.values, sim.values)


# ---------------------------------------------------------------------------
# equation -> solvable law extraction

def law_from_equation(eq: Equation) -> ConservationLaw:
    """Extract (flux_kind, q1, q2) from a conservation-law residual.

    Accepts the flux-derivative form ``u_t + q1 (f(u))_x - q2 u_xx`` and the
    expanded products ``u*u_x`` (quadratic, q1 = c/2), ``u^2*u_x`` (cubic,
    q1 = c/3) and ``cos(u)*u_x`` (sine, q1 = c). The q1 of flux terms of
    one kind add up. Raises :class:`NotSolvable` for flux terms of two
    kinds, for a q1 or q2 that is not finite once divided by the ``u_t``
    coefficient, and for anything else.
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
                    shown = to_canonical_tokens(build([(coeff, factors)])).text
                except UnsupportedNode:
                    shown = "a term with no token form"
                raise NotSolvable(f"unrecognized term in residual: {shown}")
            kind, scale = match
            if flux_kind not in (None, kind):
                raise NotSolvable(f"residual mixes {flux_kind} and {kind} flux terms")
            flux_kind = kind
            q1 = coeff * scale if q1 is None else q1 + coeff * scale
    if coeff_t is None or coeff_t == 0.0:
        raise NotSolvable("residual has no u_t term")
    if flux_kind is None or q1 is None:
        raise NotSolvable("residual has no recognizable flux term")
    q1 = q1 / coeff_t
    q2 = q2 / coeff_t
    if not (isfinite(q1) and isfinite(q2)):
        raise NotSolvable(f"coefficients are not finite: q1 = {q1}, q2 = {q2}")
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
            return kind, 1.0 / flux.slope
    return None
