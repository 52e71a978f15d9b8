"""Finite-volume solver for periodic 1-D scalar conservation laws

    u_t + q1 * (f(u))_x = q2 * u_xx,   f in {u^2, u^3, sin(u)}

using the local Lax-Friedrichs (Rusanov) flux with central second-difference
viscosity. Time stepping is Heun's method (RK2) built from forward-Euler
substeps under a CFL bound with safety factor 0.4. Everything is pure and
deterministic: identical inputs give bit-identical outputs.

The module also owns the ``PDEGRID1`` binary trajectory format: magic bytes
``PDEGRID1``, a little-endian uint32 header length, a UTF-8 JSON header
``{"nt", "nx", "t", "x0", "dx"}``, then nt*nx float64 little-endian values
in time-major order.
"""
from __future__ import annotations

import json
import math
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


@dataclass(frozen=True)
class Flux:
    """One flux kind. ``flux(q1, u)`` is ``q1 f(u)`` and ``speed(q1, u)`` is
    ``|q1 f'(u)|`` for rows ``u`` and a column ``q1`` of per-row values.
    ``expr`` is ``f`` as an expression; ``c * product * u_x`` is the
    expanded form of ``(scale c) (f(u))_x``."""

    flux: Callable
    speed: Callable
    expr: Expr
    product: Expr
    scale: float


FLUXES = {
    "quadratic": Flux(
        lambda q1, u: q1 * u * u,
        lambda q1, u: np.abs(q1 * 2.0 * u),
        Binary("pow", FIELD, Int(2)),
        FIELD,
        0.5,
    ),
    "cubic": Flux(
        lambda q1, u: q1 * u * u * u,
        lambda q1, u: np.abs(q1 * 3.0 * u * u),
        Binary("pow", FIELD, Int(3)),
        Binary("pow", FIELD, Int(2)),
        1.0 / 3.0,
    ),
    "sine": Flux(
        lambda q1, u: q1 * np.sin(u),
        lambda q1, u: np.abs(q1 * np.cos(u)),
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

def _padded(u: np.ndarray) -> np.ndarray:
    """Rows of ``u`` with one periodic ghost cell on each side."""
    return np.concatenate((u[:, -1:], u, u[:, :1]), axis=1)


def _columns(q1: np.ndarray, q2: np.ndarray, dx: float):
    """Per-row ``q1`` and ``q2`` columns (``q2`` is None when no row is
    viscous) and the diffusive step limit dx^2/(2 q2), inf where q2 <= 0."""
    viscous = q2 > 0.0
    dif = np.divide(dx * dx, 2.0 * q2, out=np.full(q2.shape, np.inf), where=viscous)
    return q1[:, None], q2[:, None] if viscous.any() else None, dif


def _law_columns(law: ConservationLaw, dx: float):
    return _columns(np.array([law.q1]), np.array([law.q2]), dx)


def _stable_dt(w: np.ndarray, dif: np.ndarray, dx: float,
               dt_max: float = DT_MAX_DEFAULT) -> np.ndarray:
    """Per-row 0.4 * min(dx / max|q1 f'|, dx^2/(2 q2)), or ``dt_max`` where
    neither bound applies. A non-finite state or wave speed gives NaN or 0."""
    dt = CFL_SAFETY * np.minimum(dx / w.max(axis=1), dif)
    dt[dt == np.inf] = dt_max
    return dt


def _rhs(flux: Flux, q1c, q2c, ub: np.ndarray, w: np.ndarray, dx: float) -> np.ndarray:
    """Semi-discrete right-hand side of each padded row ``ub`` given its wave
    speeds ``w = |q1 f'(ub)|``; returns the (rows, nx) interior values."""
    f = flux.flux(q1c, ub)
    # F_{i+1/2} = (f_i + f_{i+1})/2 - a_{i+1/2} (u_{i+1} - u_i)/2 at the
    # nx + 1 faces of the padded row; f and w at u_{i+1} are shifted views.
    face = 0.5 * (f[:, :-1] + f[:, 1:]) - 0.5 * np.maximum(w[:, :-1], w[:, 1:]) * (
        ub[:, 1:] - ub[:, :-1]
    )
    out = -(face[:, 1:] - face[:, :-1]) / dx
    if q2c is not None:
        out += q2c * (ub[:, 2:] - 2.0 * ub[:, 1:-1] + ub[:, :-2]) / (dx * dx)
    return out


def advance_ensemble(flux_kind: str, q1: np.ndarray, q2: np.ndarray,
                     u_start: np.ndarray, dt_total: float, grid: Grid1D):
    """Advance rows of states over ``dt_total``, each under its own
    coefficients ``(q1[i], q2[i])``, with Heun substeps at each row's CFL
    limit. ``u_start`` is one state shared by every row or one per row.

    Every operation is elementwise or a per-row reduction, so a row's
    result is bit-identical whatever batch it is advanced in; ``solve``
    advances a one-row batch. A row whose state or wave speed stops being
    finite gets a NaN or zero step; it is frozen at its last state and
    reported as failed.

    Returns ``(states, ok)`` with ``states`` of shape (M, nx) and ``ok`` a
    boolean mask of rows that completed with finite values.
    """
    flux = FLUXES[flux_kind]
    dx = grid.dx
    states = np.broadcast_to(np.asarray(u_start, dtype=float), (q1.size, grid.nx)).copy()
    alive = np.full(q1.size, dt_total >= 0.0)
    rows = np.arange(q1.size if dt_total > 0.0 else 0)
    rem = np.full(rows.size, float(dt_total))
    q1c, q2c, dif = _columns(q1, q2, dx)
    ub = _padded(states)
    with np.errstate(all="ignore"):
        while rows.size:
            w = flux.speed(q1c, ub)
            dt = _stable_dt(w, dif, dx)
            if not (dt.min() > 0.0 and rem.all()):
                # retire rows whose interval is done; freeze failed rows
                failed = ~(dt > 0.0)
                alive[rows[failed]] = False
                keep = ~failed & (rem > 0.0)
                states[rows[~keep]] = ub[~keep, 1:-1]
                rows, ub, w, dt, rem, q1c, dif = (
                    a[keep] for a in (rows, ub, w, dt, rem, q1c, dif)
                )
                q2c = None if q2c is None else q2c[keep]
                if not rows.size:
                    break
            dt = np.minimum(dt, rem)
            rem = rem - dt
            dtc = dt[:, None]
            k1 = _rhs(flux, q1c, q2c, ub, w, dx)
            um = _padded(ub[:, 1:-1] + dtc * k1)
            k2 = _rhs(flux, q1c, q2c, um, flux.speed(q1c, um), dx)
            ub = _padded(ub[:, 1:-1] + (0.5 * dtc) * (k1 + k2))
    return states, alive & np.isfinite(states).all(axis=1)


def cfl_dt(law: ConservationLaw, u: np.ndarray, grid: Grid1D,
           dt_max: float = DT_MAX_DEFAULT) -> float:
    """Stable step 0.4 * min(dx/max|q1 f'|, dx^2/(2 q2)).

    Returns ``dt_max`` when both the wave speed and the viscosity vanish.
    """
    q1c, _, dif = _law_columns(law, grid.dx)
    w = FLUXES[law.flux_kind].speed(q1c, np.asarray(u, dtype=float)[None, :])
    with np.errstate(divide="ignore"):
        return float(_stable_dt(w, dif, grid.dx, dt_max)[0])


def step(law: ConservationLaw, u: np.ndarray, dt: float, grid: Grid1D) -> np.ndarray:
    """One conservative forward-Euler update; enforces the CFL bound."""
    u = np.asarray(u, dtype=float)
    bound = cfl_dt(law, u, grid)
    if dt > bound * (1.0 + 1e-12):
        raise CFLViolation(f"dt={dt:g} exceeds stable bound {bound:g}")
    flux = FLUXES[law.flux_kind]
    q1c, q2c, _ = _law_columns(law, grid.dx)
    ub = _padded(u[None, :])
    out = u + dt * _rhs(flux, q1c, q2c, ub, flux.speed(q1c, ub), grid.dx)[0]
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
