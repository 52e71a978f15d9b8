"""Finite-volume solver for periodic 1-D scalar conservation laws

    u_t + q1 * (f(u))_x = q2 * u_xx,   f in {u^2, u^3, sin(u)}

using the local Lax-Friedrichs (Rusanov) flux with central second-difference
viscosity. Time stepping is Heun's method (RK2) built from forward-Euler
substeps under a CFL bound with safety factor 0.4. Everything is pure and
deterministic: identical inputs give bit-identical outputs.

One kernel, :func:`advance_ensemble`, advances batches of independent rows
(a particle filter's ensemble, or the single row of :func:`solve`). It
splits a large batch into contiguous blocks, one thread per core, and runs
each block in padded workspaces allocated once per call. Every row's
arithmetic is the same whatever block it lands in, so the split changes no
bit of the result.

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

from .errors import CFLViolation, NonFiniteState
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
    ``(scale c) (f(u))_x``."""

    flux: Callable
    speed: Callable
    slope: float
    expr: Expr
    product: Expr
    scale: float


FLUXES = {
    "quadratic": Flux(
        lambda q1, u, out=None: _power(q1, u, 2, out),
        lambda c, u, out=None: np.absolute(_power(c, u, 1, out), out=out),
        2.0,
        Binary("pow", FIELD, Int(2)),
        FIELD,
        0.5,
    ),
    "cubic": Flux(
        lambda q1, u, out=None: _power(q1, u, 3, out),
        lambda c, u, out=None: np.absolute(_power(c, u, 2, out), out=out),
        3.0,
        Binary("pow", FIELD, Int(3)),
        Binary("pow", FIELD, Int(2)),
        1.0 / 3.0,
    ),
    "sine": Flux(
        lambda q1, u, out=None: np.multiply(q1, np.sin(u, out=out), out=out),
        lambda c, u, out=None: np.absolute(
            np.multiply(c, np.cos(u, out=out), out=out), out=out
        ),
        1.0,
        Unary("sin", FIELD),
        Unary("cos", FIELD),
        1.0,
    ),
}


@dataclass(frozen=True)
class ConservationLaw:
    """Flux kind plus coefficients; ``q2 = 0`` means inviscid."""

    flux_kind: str
    q1: float
    q2: float = 0.0

    def __post_init__(self):
        if self.flux_kind not in FLUXES:
            raise ValueError(f"flux_kind must be one of {tuple(FLUXES)}")
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

    @property
    def length(self) -> float:
        return self.nx * self.dx

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


def _padded(u: np.ndarray) -> np.ndarray:
    """Rows of ``u`` with one periodic ghost cell on each side."""
    return np.concatenate((u[:, -1:], u, u[:, :1]), axis=1)


def _fill_ghosts(ub: np.ndarray) -> None:
    """Reset the periodic ghost cells of the padded rows ``ub``."""
    ub[:, 0] = ub[:, -2]
    ub[:, -1] = ub[:, 1]


def _scratch(ub: np.ndarray):
    """Scratch rows for :func:`_rhs` on padded rows shaped like ``ub``."""
    rows, width = ub.shape
    return np.empty_like(ub), np.empty((rows, width - 1)), np.empty((rows, width - 1))


def _columns(flux: Flux, q1: np.ndarray, q2: np.ndarray, dx: float):
    """Per-row ``q1``, wave-speed ``slope * q1`` and ``q2`` columns (``q2``
    is None when every row has ``q2 == 0``, so a row's terms never depend on
    the other rows) and the diffusive step limit dx^2/(2 q2), inf where
    q2 <= 0."""
    dif = np.divide(dx * dx, 2.0 * q2, out=np.full(q2.shape, np.inf), where=q2 > 0.0)
    q1c = q1[:, None]
    return q1c, q1c * flux.slope, q2[:, None] if q2.any() else None, dif


def _law_columns(law: ConservationLaw, dx: float):
    return _columns(FLUXES[law.flux_kind], np.array([law.q1]), np.array([law.q2]), dx)


def _stable_dt(w: np.ndarray, dif: np.ndarray, dx: float,
               dt_max: float = DT_MAX_DEFAULT) -> np.ndarray:
    """Per-row 0.4 * min(dx / max|q1 f'|, dx^2/(2 q2)), or ``dt_max`` where
    neither bound applies. A non-finite state or wave speed gives NaN or 0."""
    dt = CFL_SAFETY * np.minimum(dx / w.max(axis=1), dif)
    dt[dt == np.inf] = dt_max
    return dt


def _rhs(flux: Flux, q1c, q2c, ub: np.ndarray, w: np.ndarray, dx: float,
         scratch=(None, None, None), out=None) -> np.ndarray:
    """Semi-discrete right-hand side of each padded row ``ub`` given its wave
    speeds ``w = |q1 f'(ub)|``: the (rows, nx) interior values, written into
    ``out``. ``scratch`` holds rows from :func:`_scratch`; any buffer left as
    None is allocated."""
    f, face, tmp = scratch
    f = flux.flux(q1c, ub, f)
    # F_{i+1/2} = 0.5 (f_i + f_{i+1}) - (0.5 max(w_i, w_{i+1})) (u_{i+1} - u_i)
    # at the nx + 1 faces of the padded row; f, w and u at i + 1 are shifted
    # views. Every ufunc below keeps the operand order of this formula.
    face = np.multiply(0.5, np.add(f[:, :-1], f[:, 1:], out=face), out=face)
    tmp = np.multiply(0.5, np.maximum(w[:, :-1], w[:, 1:], out=tmp), out=tmp)
    jump = np.subtract(ub[:, 1:], ub[:, :-1], out=f[:, 1:])  # f is spent
    np.subtract(face, np.multiply(tmp, jump, out=tmp), out=face)
    out = np.subtract(face[:, 1:], face[:, :-1], out=out)
    np.divide(np.negative(out, out=out), dx, out=out)
    if q2c is not None:
        # out += (q2 ((u_{i+1} - 2.0 u_i) + u_{i-1})) / dx^2
        lap = np.multiply(2.0, ub[:, 1:-1], out=tmp[:, 1:])
        np.add(np.subtract(ub[:, 2:], lap, out=lap), ub[:, :-2], out=lap)
        np.divide(np.multiply(q2c, lap, out=lap), dx * dx, out=lap)
        np.add(out, lap, out=out)
    return out


def _advance_rows(flux: Flux, q1: np.ndarray, q2: np.ndarray, states: np.ndarray,
                  alive: np.ndarray, dt_total: float, dx: float) -> None:
    """Advance the rows of ``states`` in place over ``dt_total > 0`` and
    clear ``alive`` where a row fails; the loop behind :func:`advance_ensemble`.

    The padded workspaces are allocated once and written with ``out=``
    ufuncs. When rows finish, the live ones move to the front and every
    workspace shrinks to a leading slice.
    """
    q1c, sc, q2c, dif = _columns(flux, q1, q2, dx)
    rows = np.arange(states.shape[0])
    rem = np.full(rows.size, float(dt_total))
    ub = _padded(states)
    um, w = np.empty_like(ub), np.empty_like(ub)
    k1, k2 = np.empty_like(states), np.empty_like(states)
    scratch = _scratch(ub)
    # numpy's error state is per thread, so each worker sets its own
    with np.errstate(all="ignore"):
        while True:
            flux.speed(sc, ub, w)
            dt = _stable_dt(w, dif, dx)
            if not (dt.min() > 0.0 and rem.all()):
                # retire rows whose interval is done; freeze failed rows
                failed = ~(dt > 0.0)
                alive[rows[failed]] = False
                keep = ~failed & (rem > 0.0)
                if not keep.any():
                    states[rows] = ub[:, 1:-1]
                    return
                states[rows[~keep]] = ub[~keep, 1:-1]
                m = np.count_nonzero(keep)
                ub[:m], w[:m] = ub[keep], w[keep]
                rows, dt, rem, q1c, sc, dif = (
                    a[keep] for a in (rows, dt, rem, q1c, sc, dif)
                )
                q2c = None if q2c is None else q2c[keep]
                ub, um, w, k1, k2 = (a[:m] for a in (ub, um, w, k1, k2))
                scratch = tuple(a[:m] for a in scratch)
            np.minimum(dt, rem, out=dt)
            rem -= dt
            dtc = dt[:, None]
            _rhs(flux, q1c, q2c, ub, w, dx, scratch, k1)
            np.add(ub[:, 1:-1], np.multiply(dtc, k1, out=k2), out=um[:, 1:-1])
            _fill_ghosts(um)
            _rhs(flux, q1c, q2c, um, flux.speed(sc, um, w), dx, scratch, k2)
            # u + (0.5 dt) (k1 + k2)
            np.multiply(0.5 * dtc, np.add(k1, k2, out=k2), out=k2)
            np.add(ub[:, 1:-1], k2, out=ub[:, 1:-1])
            _fill_ghosts(ub)


def _cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def advance_ensemble(flux_kind: str, q1: np.ndarray, q2: np.ndarray,
                     u_start: np.ndarray, dt_total: float, grid: Grid1D):
    """Advance rows of states over ``dt_total``, each under its own
    coefficients ``(q1[i], q2[i])``, with Heun substeps at each row's CFL
    limit. ``u_start`` is one state shared by every row or one per row.

    The rows are split into contiguous blocks, at most one per core in the
    CPU affinity mask and none smaller than 128 rows, and each block runs
    in its own thread in padded workspaces that are allocated once and
    reused for every substep. A batch too small to split (a one-row
    ``solve`` among them) runs as one block in the calling thread. Every
    operation is elementwise or a per-row reduction, so a row's result is
    bit-identical whatever batch or block it is advanced in, and the split
    changes no result. A row whose state or wave speed stops being finite
    gets a NaN or zero step; it is frozen at its last state and reported as
    failed.

    Returns ``(states, ok)`` with ``states`` of shape (M, nx) and ``ok`` a
    boolean mask of rows that completed with finite values.
    """
    flux = FLUXES[flux_kind]
    m = q1.size
    states = np.broadcast_to(np.asarray(u_start, dtype=float), (m, grid.nx)).copy()
    alive = np.full(m, dt_total >= 0.0)
    if dt_total > 0.0 and m:
        k = min(m // _MIN_BLOCK_ROWS, _cores()) if m >= 2 * _MIN_BLOCK_ROWS else 1
        if k == 1:
            _advance_rows(flux, q1, q2, states, alive, dt_total, grid.dx)
        else:
            # imported here: one-row solves and CLI start-up never need it
            from concurrent.futures import ThreadPoolExecutor

            edges = [m * i // k for i in range(k + 1)]
            jobs = [
                (flux, q1[a:b], q2[a:b], states[a:b], alive[a:b], dt_total, grid.dx)
                for a, b in zip(edges, edges[1:])
            ]
            with ThreadPoolExecutor(k) as pool:
                list(pool.map(lambda job: _advance_rows(*job), jobs))
    return states, alive & np.isfinite(states).all(axis=1)


def cfl_dt(law: ConservationLaw, u: np.ndarray, grid: Grid1D,
           dt_max: float = DT_MAX_DEFAULT) -> float:
    """Stable step 0.4 * min(dx/max|q1 f'|, dx^2/(2 q2)).

    Returns ``dt_max`` when both the wave speed and the viscosity vanish.
    """
    _, sc, _, dif = _law_columns(law, grid.dx)
    w = FLUXES[law.flux_kind].speed(sc, np.asarray(u, dtype=float)[None, :])
    with np.errstate(divide="ignore"):
        return float(_stable_dt(w, dif, grid.dx, dt_max)[0])


def step(law: ConservationLaw, u: np.ndarray, dt: float, grid: Grid1D) -> np.ndarray:
    """One conservative forward-Euler update; enforces the CFL bound."""
    u = np.asarray(u, dtype=float)
    bound = cfl_dt(law, u, grid)
    if dt > bound * (1.0 + 1e-12):
        raise CFLViolation(f"dt={dt:g} exceeds stable bound {bound:g}")
    flux = FLUXES[law.flux_kind]
    q1c, sc, q2c, _ = _law_columns(law, grid.dx)
    ub = _padded(u[None, :])
    out = u + dt * _rhs(flux, q1c, q2c, ub, flux.speed(sc, ub), grid.dx)[0]
    if not np.all(np.isfinite(out)):
        raise NonFiniteState("state became non-finite during step")
    return out


def solve(law: ConservationLaw, u0: np.ndarray, grid: Grid1D, t_final: float,
          nt_out: int) -> SpaceTimeField:
    """Integrate to t_final, sampling nt_out uniformly spaced frames.

    ``values[0]`` is the initial state; internal steps are clipped so every
    output timestamp is hit exactly.
    """
    if t_final <= 0.0:
        raise ValueError("t_final must be positive")
    if nt_out < 2:
        raise ValueError("nt_out must be >= 2")
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (grid.nx,):
        raise ValueError("u0 must have shape (nx,)")
    if not np.all(np.isfinite(u0)):
        raise NonFiniteState("initial state must be finite")
    times = np.linspace(0.0, t_final, nt_out)
    values = np.empty((nt_out, grid.nx))
    values[0] = u0
    q1, q2 = np.array([law.q1]), np.array([law.q2])
    for k in range(1, nt_out):
        states, ok = advance_ensemble(
            law.flux_kind, q1, q2, values[k - 1], times[k] - times[k - 1], grid
        )
        if not ok[0]:
            raise NonFiniteState("state became non-finite during integration")
        values[k] = states[0]
    return SpaceTimeField(grid, times, values)


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
    except ValueError:  # invalid UTF-8 or JSON
        return None
    if not (isinstance(header, dict) and isinstance(header.get("t"), list)):
        return None
    counts = [header.get("nt"), header.get("nx")]
    numbers = [header.get("x0"), header.get("dx"), *header["t"]]
    if all(type(v) is int and v >= 0 for v in counts) and all(map(_finite, numbers)):
        return header
    return None


def read_grid_file(path) -> SpaceTimeField:
    """Load a PDEGRID1 file; a malformed file raises ``ValueError``."""
    data = Path(path).read_bytes()
    start = len(_MAGIC) + 4
    header = None
    if len(data) >= start and data.startswith(_MAGIC):
        (hlen,) = struct.unpack_from("<I", data, len(_MAGIC))
        header = _parse_header(data[start : start + hlen])
    if header is None or len(data) - start - hlen != 8 * header["nt"] * header["nx"]:
        raise ValueError(f"{path}: not a PDEGRID1 file")
    nt, nx = header["nt"], header["nx"]
    values = np.frombuffer(
        data, dtype="<f8", count=nt * nx, offset=start + hlen
    ).reshape(nt, nx)
    grid = Grid1D(nx=nx, dx=header["dx"], x0=header["x0"])
    return SpaceTimeField(grid, np.asarray(header["t"]), values.copy())
