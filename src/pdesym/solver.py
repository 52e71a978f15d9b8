"""Finite-volume solver for periodic 1-D scalar conservation laws

    u_t + q1 * (f(u))_x = q2 * u_xx,   f in {u^2, u^3, sin(u)}

using the local Lax-Friedrichs (Rusanov) flux with central second-difference
viscosity. Time stepping splits the two terms (Strang): each substep is a
half step of exact diffusion, a Heun (RK2) step of the advection term alone
and another half step of exact diffusion. The second difference is
circulant on the periodic grid, so its exact flow is a multiply by
``exp(t q2 lambda_k)`` between one ``rfft`` and one ``irfft``; it needs no
step limit, and the substeps obey only the advective CFL bound with safety
factor 0.4. A row with ``q2 = 0`` takes exactly the Heun step.
:func:`step` and :func:`cfl_dt` are a reference built from the kernel's
pieces, not a mode inside them: a forward-Euler update of the kernel's
advective right-hand side plus an explicit second difference, and its
stability bound. Everything is pure and deterministic: identical inputs
give bit-identical outputs.

A row with ``q2 <= 0`` advances in rescaled time tau = |q1| t instead:
``q1`` only scales time in ``u_t + q1 f(u)_x = 0``, and the Rusanov flux
and the CFL step are homogeneous of degree one in ``|q1|``, so the row
takes flux ``sign(q1) f``, the step limit 0.4 dx / max|f'| and a budget of
``|q1| dt``. Rows that share a start state and the sign of ``q1`` then
follow one discrete trajectory and differ only in where their last,
clipped substep ends.

One kernel advances a batch of independent rows through a schedule of
output intervals in one call and writes each row's frames as it reaches
them: :func:`solve_ensemble` samples whole trajectories of a batch (one
family of a dataset), :func:`solve` is its one-row case, and
:func:`advance_ensemble` is the one-interval case that a particle filter's
ensemble takes. Substeps are clipped to each row's budget, so every output
time is hit exactly. When ``advance_ensemble`` starts every row from one
state, the inviscid rows of one sign form one march row, run to their
largest budget; a member leaves it at the substep its own budget fits in,
with a clipped Heun step from the march's state that reuses the march's
first slope. The kernel splits many march rows into contiguous blocks, one
thread per core, and runs each block in padded buffers allocated once per
call and cut to a leading slice when rows retire. A row that fails (a NaN
or zero step, or more than ``MAX_SUBSTEPS`` substeps in one output
interval of either entry point) holds its last state in its remaining
frames. Every row's arithmetic is the same whatever batch, march
or block it lands in, so batching, sharing and splitting change no bit of
the result.

The module also owns the ``PDEGRID1`` binary trajectory format: magic bytes
``PDEGRID1``, a little-endian uint32 header length, a UTF-8 JSON header
``{"nt", "nx", "t", "x0", "dx"}``, then nt*nx float64 little-endian values
in time-major order.
"""
from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import CFLViolation, MalformedFile, NonFiniteState
from .expr import FIELD, Binary, Expr, Int, Unary

CFL_SAFETY = 0.4
DT_MAX_DEFAULT = 0.1

_MAGIC = b"PDEGRID1"


def _power(c, u: np.ndarray, n: int, out=None) -> np.ndarray:
    """``c u^n`` as the left-to-right product ``((c u) u)...``, into ``out``."""
    out = np.multiply(c, u, out=out)
    for _ in range(n - 1):
        out = np.multiply(out, u, out=out)
    return out


@dataclass(frozen=True)
class Flux:
    """One flux kind, for rows ``u`` and columns of per-row coefficients.
    ``flux(q1, u, out)`` is ``q1 f(u)`` and ``speed(slope * q1, u, out)`` is
    ``|q1 f'(u)|``; both write into ``out`` when it is given. ``expr`` is
    ``f`` as an expression; ``c * product * u_x`` is the expanded form of
    ``(c / slope) (f(u))_x``."""

    flux: Callable
    speed: Callable
    slope: float
    expr: Expr
    product: Expr


FLUXES = {
    "quadratic": Flux(
        lambda q1, u, out=None: _power(q1, u, 2, out),
        lambda c, u, out=None: np.absolute(_power(c, u, 1, out), out=out),
        2.0,
        Binary("pow", FIELD, Int(2)),
        FIELD,
    ),
    "cubic": Flux(
        lambda q1, u, out=None: _power(q1, u, 3, out),
        lambda c, u, out=None: np.absolute(_power(c, u, 2, out), out=out),
        3.0,
        Binary("pow", FIELD, Int(3)),
        Binary("pow", FIELD, Int(2)),
    ),
    "sine": Flux(
        lambda q1, u, out=None: np.multiply(q1, np.sin(u, out=out), out=out),
        lambda c, u, out=None: np.absolute(
            np.multiply(c, np.cos(u, out=out), out=out), out=out
        ),
        1.0,
        Unary("sin", FIELD),
        Unary("cos", FIELD),
    ),
}


def _flux(kind: str) -> Flux:
    """The :data:`FLUXES` entry for ``kind``; any other kind raises ``ValueError``."""
    if kind not in FLUXES:
        raise ValueError(f"flux_kind must be one of {tuple(FLUXES)}")
    return FLUXES[kind]


@dataclass(frozen=True)
class ConservationLaw:
    """Flux kind plus coefficients; ``q2 = 0`` means inviscid."""

    flux_kind: str
    q1: float
    q2: float = 0.0

    def __post_init__(self):
        _flux(self.flux_kind)
        if not math.isfinite(self.q1):
            raise ValueError("q1 must be finite")
        if not (math.isfinite(self.q2) and self.q2 >= 0.0):
            raise ValueError("viscosity q2 must be finite and >= 0")


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid of nx cells starting at x0."""

    nx: int
    dx: float
    x0: float = 0.0

    def __post_init__(self):
        if self.nx < 8:
            raise ValueError("nx must be >= 8")
        if not (math.isfinite(self.dx) and self.dx > 0.0):
            raise ValueError("dx must be finite and positive")

    def cells(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.nx)


@dataclass
class SpaceTimeField:
    """nt x nx samples of u on a grid at strictly increasing times."""

    grid: Grid1D
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.times.size, self.grid.nx):
            raise ValueError("values must have shape (nt, nx)")
        if self.times.size >= 2 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise NonFiniteState("field values must be finite")


# ---------------------------------------------------------------------------
# Row-batched kernel: every row is an independent state with its own
# coefficients.

# Fewest rows per block for which splitting a batch across cores pays for
# the threads: on 2 cores, two viscous blocks of 32 or 64 rows ran slower
# than one inline block, two of 128 rows 1.4x faster.
_MIN_BLOCK_ROWS = 128

# Most substeps a row may take in one output interval, a filter interval of
# advance_ensemble or a frame of solve_ensemble. A filter interval took at
# most 51 in 480 solves of the six families, half of them at amplitude 2 and
# 1.3 q1, but a solve's caller chooses the grid, the horizon and the frames:
# an icl_sine solve over 60 time units in one frame takes 19,201. A row whose
# steps are tiny (q1 = 1e300, dx = 1e-300, or a particle at |q1| near 1e12)
# fails here as a NaN step does, instead of never returning: a one-row
# burgers solve at q1 = 1e300 reaches the cap in about 4 s on one core of a
# Xeon VM.
MAX_SUBSTEPS = 2**15


def _fill_ghosts(a: np.ndarray) -> None:
    """Copy columns ``-2`` and ``1`` of the padded rows ``a`` into their
    ghost columns ``0`` and ``-1``."""
    a[:, 0], a[:, -1] = a[:, -2], a[:, 1]


def _workspace(u: np.ndarray) -> tuple:
    """The buffers of a block whose state is the rows ``u``: ``(u, um, w, f,
    face, tmp, k1, k2)``, that is the state padded with one periodic ghost
    cell on each side, the Heun midpoint, the wave speeds, the :func:`_rhs`
    scratch rows and the two stage slopes."""
    ub = np.concatenate((u[:, -1:], u, u[:, :1]), axis=1)
    rows, width = ub.shape
    return (ub, np.empty_like(ub), np.empty_like(ub), np.empty_like(ub),
            np.empty((rows, width - 1)), np.empty((rows, width - 1)),
            np.empty((rows, width - 2)), np.empty((rows, width - 2)))


def _stable_dt(w: np.ndarray, dx: float) -> np.ndarray:
    """Per-row advective limit 0.4 * dx / max|q1 f'|, or ``DT_MAX_DEFAULT``
    where the wave speed vanishes. A non-finite state or wave speed gives
    NaN or 0."""
    dt = CFL_SAFETY * (dx / w.max(axis=1))
    dt[dt == np.inf] = DT_MAX_DEFAULT
    return dt


def _diffuse(u: np.ndarray, q2c: np.ndarray, gain: np.ndarray) -> None:
    """Multiply each ``rfft`` mode of the rows of ``u`` with ``q2 > 0`` by
    ``1 + gain``, in place, adding the change as an increment. Other rows
    keep their bits, signed zeros included."""
    modes = np.fft.rfft(u)
    inc = np.fft.irfft(np.multiply(modes, gain, out=modes), n=u.shape[1])
    np.copyto(u, np.add(u, inc, out=inc), where=q2c > 0.0)


def _rhs(flux: Flux, fc, u: np.ndarray, ws: tuple, dx: float, out: np.ndarray) -> None:
    """Semi-discrete advective right-hand side ``-(F_{i+1/2} - F_{i-1/2}) / dx``
    of the padded rows ``u`` given their wave speeds ``w = |q1 f'(u)|`` in
    the workspace ``ws``: the (rows, nx) interior values, written into
    ``out`` through the scratch rows of ``ws``. It has no viscous term; the
    kernel diffuses exactly instead."""
    _, _, w, f, face, tmp, _, _ = ws
    flux.flux(fc, u, f)
    # F_{i+1/2} = 0.5 (f_i + f_{i+1}) - (0.5 max(w_i, w_{i+1})) (u_{i+1} - u_i)
    # at the nx + 1 faces of the padded row. Every ufunc below keeps the
    # operand order of this formula.
    fhi = f[:, 1:]
    np.multiply(0.5, np.add(f[:, :-1], fhi, out=face), out=face)
    np.multiply(0.5, np.maximum(w[:, :-1], w[:, 1:], out=tmp), out=tmp)
    jump = np.subtract(u[:, 1:], u[:, :-1], out=fhi)  # f is spent
    np.subtract(face, np.multiply(tmp, jump, out=tmp), out=face)
    np.subtract(face[:, 1:], face[:, :-1], out=out)
    np.divide(np.negative(out, out=out), dx, out=out)


def _heun(flux: Flux, fc, sc, ws: tuple, h, dx: float) -> None:
    """Finish a Heun step of ``h`` (a column) on the rows of the workspace
    ``ws`` whose first slope ``k1`` is done: ``u + (0.5 h) (k1 + k2)``, with
    ``k2`` the slope at ``u + h k1``, written into the interior of ``u``."""
    u, um, w, _, _, _, k1, k2 = ws
    mid = u[:, 1:-1]
    np.add(mid, np.multiply(h, k1, out=k2), out=um[:, 1:-1])
    _fill_ghosts(um)
    flux.speed(sc, um, w)
    _rhs(flux, fc, um, ws, dx, k2)
    np.multiply(0.5 * h, np.add(k1, k2, out=k2), out=k2)
    np.add(mid, k2, out=mid)


def _advance_rows(flux: Flux, fc: np.ndarray, sc: np.ndarray, q2: np.ndarray,
                  budget: np.ndarray, rows: np.ndarray, start: np.ndarray,
                  frames: np.ndarray, alive: np.ndarray, dx: float, side) -> None:
    """Advance the march rows ``start[rows]`` through their frames under
    flux, wave-speed and viscosity coefficients ``fc``, ``sc`` and ``q2``,
    writing frame k of row i into ``frames[rows[i], k]``, and clear
    ``alive`` where one fails; the loop behind :func:`advance_ensemble` and
    :func:`solve_ensemble`.

    ``budget[i, k]`` is the time (or tau) row i advances for frame k, and a
    zero after its last frame retires it. A row whose budget is spent writes
    its frame and takes its next budget; a zero budget ends a frame where it
    begins. Each substep is a Heun step of the advection term alone, between
    two half steps of exact diffusion on the rows with ``q2 > 0`` (Strang
    splitting), so only the advective limit bounds the step. A row whose
    step turns NaN or zero, or that still has budget after
    ``MAX_SUBSTEPS`` substeps in one frame (read at each call), fails: its
    remaining frames hold its last state.

    ``side = (srows, sown, srem)`` lists the other members of the marches,
    which have one frame: row ``srows[i]`` starts on march ``rows[sown[i]]``
    with a budget ``srem[i]`` no larger than the march's. At the substep
    whose step reaches its budget, it leaves with its own clipped Heun step
    from the march's state and first slope, into ``frames[srows[i], 0]``; a
    march that fails freezes its remaining members with it.

    The padded workspace is built once and written with ``out=`` ufuncs.
    When marches retire, the live ones move to the front and the workspace
    is cut to a leading slice.
    """
    srows, sown, srem = side
    ws = _workspace(start[rows])
    u, w, k1 = ws[0], ws[2], ws[6]
    last = budget.shape[1] - 1
    rem = budget[:, 0].copy()
    frame = np.zeros(rows.size, dtype=np.intp)
    began = np.zeros(rows.size, dtype=np.intp)  # the substep each frame began at
    n = oldest = 0
    # numpy's error state is per thread, so each worker sets its own
    with np.errstate(all="ignore"):
        fc, sc = fc[:, None], sc[:, None]
        q2c = q2[:, None] if (q2 > 0.0).any() else None
        if q2c is not None:
            # eigenvalues of the periodic second difference at the rfft modes
            nx = start.shape[1]
            lam = -4.0 * np.sin(np.pi * np.arange(nx // 2 + 1) / nx) ** 2 / (dx * dx)
        while True:
            flux.speed(sc, u, w)
            dt = _stable_dt(w, dx)
            if not (dt.min() > 0.0 and rem.all()) or n - oldest >= MAX_SUBSTEPS:
                # write the frames whose budget is spent and refill it; then
                # a NaN or zero step, or too many substeps, fails a march
                # and freezes its remaining frames and members
                mid = u[:, 1:-1]
                i = np.flatnonzero(rem == 0.0)
                while i.size:
                    frames[rows[i], frame[i]] = mid[i]
                    frame[i] += 1
                    began[i] = n
                    rem[i] = budget[i, frame[i]]
                    i = i[(rem[i] == 0.0) & (frame[i] < last)]
                pending = rem > 0.0
                failed = (~(dt > 0.0) | (n - began >= MAX_SUBSTEPS)) & pending
                if failed.any():
                    lost = failed[sown]
                    i, j = np.nonzero(failed[:, None] & (np.arange(last) >= frame[:, None]))
                    frames[rows[i], j] = mid[i]
                    frames[srows[lost], 0] = mid[sown[lost]]
                    alive[rows[failed]] = alive[srows[lost]] = False
                    srows, sown, srem = srows[~lost], sown[~lost], srem[~lost]
                keep = pending & ~failed
                if not keep.all():
                    m = np.count_nonzero(keep)
                    if not m:
                        return
                    sown = (np.cumsum(keep) - 1)[sown]
                    u[:m], w[:m] = u[keep], w[keep]
                    rows, dt, rem, fc, sc, budget, frame, began = (
                        a[keep] for a in (rows, dt, rem, fc, sc, budget, frame, began))
                    q2c = None if q2c is None else q2c[keep]
                    ws = tuple(a[:m] for a in ws)
                    u, w, k1 = ws[0], ws[2], ws[6]
                oldest = began.min()
            np.minimum(dt, rem, out=dt)
            rem -= dt
            dtc = dt[:, None]
            if q2c is not None:
                # exact diffusion over dt / 2: exp(dt / 2 q2 lam) - 1 per mode
                gain = np.expm1(np.multiply(0.5 * dtc * q2c, lam))
                _diffuse(u[:, 1:-1], q2c, gain)
                _fill_ghosts(u)
                flux.speed(sc, u, w)
            _rhs(flux, fc, u, ws, dx, k1)
            if srows.size:
                out = srem <= dt[sown]
                if out.any():
                    j = sown[out]
                    sw = _workspace(u[j, 1:-1])
                    np.take(k1, j, axis=0, out=sw[6])
                    _heun(flux, fc[j], sc[j], sw, srem[out, None], dx)
                    frames[srows[out], 0] = sw[0][:, 1:-1]
                    srows, sown, srem = srows[~out], sown[~out], srem[~out]
                srem -= dt[sown]
            _heun(flux, fc, sc, ws, dtc, dx)
            if q2c is not None:
                _diffuse(u[:, 1:-1], q2c, gain)
            _fill_ghosts(u)
            n += 1


def _cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _advance(flux: Flux, q1: np.ndarray, q2: np.ndarray, u_start: np.ndarray,
             dts: np.ndarray, dx: float, frames: np.ndarray) -> np.ndarray:
    """Advance every row from ``u_start`` (one state shared by every row,
    or one state per row) over the intervals ``dts``, writing frame k into
    ``frames[:, k]``: the planner behind :func:`advance_ensemble` and
    :func:`solve_ensemble`. It builds the tau columns, freezes the rows that
    cannot move, forms the shared-start marches (one shared state and one
    interval only) and splits the march rows across cores, then runs
    :func:`_advance_rows` once per block.

    Returns the mask of rows that finished: none if an interval is
    negative, else every row but those that failed or whose last frame is
    not finite.
    """
    m = q1.size
    alive = np.full(m, (dts >= 0.0).all())
    start = np.broadcast_to(u_start, (m, frames.shape[2]))
    tau = ~(q2 > 0.0)
    with np.errstate(all="ignore"):
        speed = q1 * flux.slope
        budget = np.where(tau, np.abs(q1), 1.0)[:, None] * np.append(dts, 0.0)
    fc, sc = np.where(tau, np.sign(q1), q1), np.where(tau, flux.slope, speed)
    # in t, a non-finite slope * q1 makes every step limit 0 or NaN
    alive[tau & ~np.isfinite(speed)] = False
    live = alive & (budget > 0.0).any(axis=1)
    frames[~live] = start[~live, None]
    lead = np.arange(m)  # the row whose march each row follows
    # in tau, rows of one start state and one sign follow one trajectory
    if u_start.ndim == 1 and dts.size == 1:
        for s in (1.0, -1.0):
            g = np.flatnonzero(live & (fc == s) & tau)
            if g.size:
                lead[g] = g[np.argmax(budget[g, 0])]
    own = lead == np.arange(m)
    leads, srows = np.flatnonzero(live & own), np.flatnonzero(live & ~own)
    sown = np.searchsorted(leads, lead[srows])
    n = leads.size
    k = min(n // _MIN_BLOCK_ROWS, _cores()) if n >= 2 * _MIN_BLOCK_ROWS else 1
    edges = [n * i // k for i in range(k + 1)]
    jobs = []
    for a, b in zip(edges, edges[1:]):
        mine = (sown >= a) & (sown < b)
        rows = leads[a:b]
        jobs.append((flux, fc[rows], sc[rows], q2[rows], budget[rows], rows, start,
                     frames, alive, dx,
                     (srows[mine], sown[mine] - a, budget[srows[mine], 0])))
    if k > 1:
        # imported here: one-row solves and CLI start-up never need it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(k) as pool:
            list(pool.map(lambda job: _advance_rows(*job), jobs))
    elif n:
        _advance_rows(*jobs[0])
    return alive & np.isfinite(frames[:, -1]).all(axis=1)


def advance_ensemble(flux_kind: str, q1: np.ndarray, q2: np.ndarray,
                     u_start: np.ndarray, dt_total: float, grid: Grid1D):
    """Advance rows of states over ``dt_total``, each under its own
    coefficients ``(q1[i], q2[i])``: the one-interval case of
    :func:`solve_ensemble`'s kernel. ``u_start`` is one state shared by
    every row or one per row.

    A row with ``q2 > 0`` advances in time t: each substep, at its advective
    CFL limit 0.4 dx / max|q1 f'|, is a Heun step of the advection term
    between two half steps of exact spectral diffusion. A row with
    ``q2 <= 0`` advances in rescaled time tau = |q1| t: the flux
    ``sign(q1) f``, the limit 0.4 dx / max|f'| and a budget of
    ``|q1| dt_total``, with no diffusion; a batch with no row above
    ``q2 = 0`` skips the FFTs. A row with ``q1 = 0`` there keeps its start
    state, and one whose ``q1`` times the flux's slope is not finite (its
    wave speed in t) is frozen at it and fails.

    In tau, rows that share a start state and the sign of ``q1`` follow one
    discrete trajectory, so when ``u_start`` is one state they march as one
    row, to their largest budget. A member whose budget fits in a substep's
    step leaves the march with its own clipped Heun step from the march's
    state, reusing the march's first slope, so it costs one right-hand
    side instead of its own march.

    The march rows are split into contiguous blocks, at most one per core
    in the CPU affinity mask and none smaller than 128 rows, and each
    block runs in its own thread in padded workspaces that are allocated
    once and reused for every substep. A batch too small to split (a
    one-row ``solve`` or a shared inviscid filter step among them) runs as
    one block in the calling thread. Every operation is elementwise, a
    per-row reduction or a per-row FFT, and a member repeats the arithmetic
    of its march step for step, so a row's result is bit-identical whatever
    batch, march or block it is advanced in. A row whose state or wave
    speed stops being finite before its budget is spent gets a NaN or zero
    step, and one that needs more than ``MAX_SUBSTEPS`` substeps (|q1| near
    1e12 on a sine law, say) does not finish; either is frozen at its last
    state and reported as failed; the cap is the one that bounds each
    output interval of :func:`solve_ensemble`. A member of a march fails
    exactly when it would alone.

    Returns ``(states, ok)`` with ``states`` of shape (M, nx) and ``ok`` a
    boolean mask of rows that completed with finite values.
    """
    frames = np.empty((q1.size, 1, grid.nx))
    ok = _advance(_flux(flux_kind), q1, q2, np.asarray(u_start, dtype=float),
                  np.array([dt_total]), grid.dx, frames)
    return frames[:, 0], ok


def cfl_dt(law: ConservationLaw, u: np.ndarray, grid: Grid1D) -> float:
    """Stable step 0.4 * min(dx/max|q1 f'|, dx^2/(2 q2)) of :func:`step`,
    the explicit reference; ``DT_MAX_DEFAULT`` when both the wave speed and
    the viscosity vanish. The kernel's own steps obey the advective bound
    alone."""
    flux = FLUXES[law.flux_kind]
    w = flux.speed(law.q1 * flux.slope, np.asarray(u, dtype=float))
    dif = grid.dx * grid.dx / (2.0 * law.q2) if law.q2 > 0.0 else np.inf
    with np.errstate(divide="ignore"):
        dt = CFL_SAFETY * np.minimum(grid.dx / w.max(), dif)
    return DT_MAX_DEFAULT if dt == np.inf else float(dt)


def step(law: ConservationLaw, u: np.ndarray, dt: float, grid: Grid1D) -> np.ndarray:
    """One conservative forward-Euler update with explicit diffusion, the
    reference the kernel's Strang-split Heun steps are tested against: the
    kernel's advective :func:`_rhs` plus ``(q2 ((u_{i+1} - 2.0 u_i) +
    u_{i-1})) / dx^2``. A ``dt`` above :func:`cfl_dt` raises
    :class:`CFLViolation`."""
    u = np.asarray(u, dtype=float)
    bound = cfl_dt(law, u, grid)
    if dt > bound * (1.0 + 1e-12):
        raise CFLViolation(f"dt={dt:g} exceeds stable bound {bound:g}")
    flux, dx = FLUXES[law.flux_kind], grid.dx
    ws = _workspace(u[None, :])
    up, rhs = ws[0], ws[6]
    flux.speed(law.q1 * flux.slope, up, ws[2])
    _rhs(flux, law.q1, up, ws, dx, rhs)
    if law.q2 > 0.0:
        rhs += (law.q2 * ((up[:, 2:] - 2.0 * up[:, 1:-1]) + up[:, :-2])) / (dx * dx)
    out = u + dt * rhs[0]
    if not np.all(np.isfinite(out)):
        raise NonFiniteState("state became non-finite during step")
    return out


def solve_ensemble(flux_kind: str, q1: np.ndarray, q2: np.ndarray, u0: np.ndarray,
                   grid: Grid1D, t_final: float, nt_out: int):
    """Integrate each row ``u0[i]`` under its own coefficients
    ``(q1[i], q2[i])`` to t_final, sampling nt_out uniformly spaced frames.

    ``values[:, 0]`` is ``u0``; internal steps are clipped so every output
    timestamp is hit exactly. The whole batch advances in one kernel call
    that writes each row's frames as it reaches them (see
    :func:`advance_ensemble`), so each row is bit-identical to that row
    solved alone and to chained :func:`advance_ensemble` calls over the
    output intervals.

    Returns ``(times, values, ok)`` with ``values`` of shape (M, nt_out, nx)
    and ``ok`` a boolean mask of the rows that stayed finite and finished.
    A row that needs more than ``MAX_SUBSTEPS`` substeps in one output
    interval fails, as it would in an :func:`advance_ensemble` call over
    that interval. A failed row's frames from its failure on hold the state
    it failed at. A horizon so small that the output times are not
    strictly increasing raises ``ValueError``.
    """
    flux = _flux(flux_kind)
    if not 0.0 < t_final < math.inf:
        raise ValueError("t_final must be finite and positive")
    if nt_out < 2:
        raise ValueError("nt_out must be >= 2")
    q1, q2 = np.asarray(q1, dtype=float), np.asarray(q2, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    if q1.ndim != 1 or q2.shape != q1.shape or u0.shape != (q1.size, grid.nx):
        raise ValueError("u0 must have shape (M, nx) for M coefficient pairs")
    if not np.all(np.isfinite(u0)):
        raise NonFiniteState("initial state must be finite")
    times = np.linspace(0.0, t_final, nt_out)
    dts = np.diff(times)
    if not np.all(dts > 0.0):
        raise ValueError("times must be strictly increasing")
    values = np.empty((q1.size, nt_out, grid.nx))
    values[:, 0] = u0
    return times, values, _advance(flux, q1, q2, u0, dts, grid.dx, values[:, 1:])


def solve(law: ConservationLaw, u0: np.ndarray, grid: Grid1D, t_final: float,
          nt_out: int) -> SpaceTimeField:
    """Integrate to t_final, sampling nt_out uniformly spaced frames: the
    one-row case of :func:`solve_ensemble`.

    ``values[0]`` is the initial state; internal steps are clipped so every
    output timestamp is hit exactly. A ``u0`` of any shape but ``(nx,)``
    raises ``ValueError``.
    """
    times, values, ok = solve_ensemble(law.flux_kind, [law.q1], [law.q2], [u0], grid,
                                       t_final, nt_out)
    if not ok[0]:
        raise NonFiniteState(
            "integration failed: the state or its step stopped being finite, or an "
            f"output interval needed more than {MAX_SUBSTEPS} substeps"
        )
    return SpaceTimeField(grid, times, values[0])


# ---------------------------------------------------------------------------
# PDEGRID1 file format

def write_grid_file(field: SpaceTimeField, path) -> None:
    header = {
        "nt": int(field.times.size),
        "nx": int(field.grid.nx),
        "t": [float(t) for t in field.times],
        "x0": float(field.grid.x0),
        "dx": float(field.grid.dx),
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def _finite(v) -> bool:
    try:
        return type(v) in (int, float) and math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _parse_header(blob: bytes):
    """The PDEGRID1 JSON header, or None unless it is an object holding
    non-negative integers ``nt`` and ``nx``, a list of finite numbers ``t``
    and finite numbers ``x0`` and ``dx``."""
    try:
        header = json.loads(blob.decode("utf-8"))
    except (ValueError, RecursionError):  # invalid UTF-8 or JSON, or too deep
        return None
    if not (isinstance(header, dict) and isinstance(header.get("t"), list)):
        return None
    counts = [header.get("nt"), header.get("nx")]
    numbers = [header.get("x0"), header.get("dx"), *header["t"]]
    if all(type(v) is int and v >= 0 for v in counts) and all(map(_finite, numbers)):
        return header
    return None


def read_grid_file(path) -> SpaceTimeField:
    """Load a PDEGRID1 file. A malformed file raises :class:`MalformedFile`:
    a bad frame or header, a payload of the wrong size, a header that
    contradicts itself (``len(t) != nt``, times not increasing, ``nx < 8``,
    ``dx <= 0``) or non-finite samples."""
    data = Path(path).read_bytes()
    start = len(_MAGIC) + 4
    if len(data) >= start and data.startswith(_MAGIC):
        (hlen,) = struct.unpack_from("<I", data, len(_MAGIC))
        header = _parse_header(data[start : start + hlen])
        if header is not None and len(data) - start - hlen == 8 * header["nt"] * header["nx"]:
            nt, nx = header["nt"], header["nx"]
            values = np.frombuffer(data, dtype="<f8", count=nt * nx, offset=start + hlen)
            try:  # what Grid1D and SpaceTimeField reject is malformed here
                grid = Grid1D(nx=nx, dx=header["dx"], x0=header["x0"])
                return SpaceTimeField(grid, np.asarray(header["t"]),
                                      values.reshape(nt, nx).copy())
            except (ValueError, NonFiniteState):
                pass
    raise MalformedFile(f"{path}: not a PDEGRID1 file")
