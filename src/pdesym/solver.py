"""Finite-volume solver for periodic 1-D scalar conservation laws

    u_t + q1 * (f(u))_x = q2 * u_xx,   f in {u^2, u^3, sin(u)}

using the local Lax-Friedrichs (Rusanov) flux with central second-difference
viscosity. Time stepping splits the two terms (Strang): each substep is a
half step of exact diffusion, a Heun (RK2) step of the advection term alone
and another half step of exact diffusion. The second difference is
circulant on the periodic grid, so its exact flow is a multiply by
``exp(t q2 lambda_k)`` between one ``rfft`` and one ``irfft``; it needs no
step limit, and the substeps obey only the advective CFL bound with safety
factor 0.4. A row with ``q2 = 0`` takes exactly the Heun step. :func:`step`
and :func:`cfl_dt` remain the explicit forward-Euler update with explicit
diffusion and its stability bound. Everything is pure and deterministic:
identical inputs give bit-identical outputs.

One kernel, :func:`advance_ensemble`, advances batches of independent rows
over one interval (a particle filter's ensemble, say). It splits a large
batch into contiguous blocks, one thread per core, and runs each block in
padded workspaces allocated once per call; the shifted views a substep
reads and writes are built with each workspace and again only when
finished rows are compacted away. :func:`solve_ensemble` samples whole
trajectories of a batch (one family of a dataset) with one kernel call per
output interval, and :func:`solve` is its one-row case. Every row's
arithmetic is the same whatever batch or block it lands in, so batching and
splitting change no bit of the result.

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


class _Shifted:
    """Rows ``a`` and their views ``lo = a[:, :-1]`` and ``hi = a[:, 1:]``,
    one cell apart. Building a view costs about as much as a ufunc on a
    short row, so the kernel builds its views once per workspace size."""

    __slots__ = ("a", "lo", "hi")

    def __init__(self, a: np.ndarray):
        self.a, self.lo, self.hi = a, a[:, :-1], a[:, 1:]


class _Padded(_Shifted):
    """Padded rows with the views of their interior ``mid``, its
    neighbours ``left`` and ``right``, the two ghost columns ``ghosts`` and
    the interior columns ``sources`` they copy."""

    __slots__ = ("mid", "left", "right", "ghosts", "sources")

    def __init__(self, a: np.ndarray):
        super().__init__(a)
        width = a.shape[1]
        self.mid, self.left, self.right = a[:, 1:-1], a[:, :-2], a[:, 2:]
        # columns 0 and width - 1 hold copies of columns width - 2 and 1
        self.ghosts = a[:, :: width - 1]
        self.sources = a[:, width - 2 : 0 : 3 - width]

    def fill_ghosts(self) -> None:
        np.copyto(self.ghosts, self.sources)


class _Workspace:
    """Padded state ``u``, Heun midpoint ``um``, wave speeds ``w``, the
    :func:`_rhs` scratch rows ``f``, ``face`` and ``tmp`` and the stage
    slopes ``k1``/``k2`` of a block of rows, with their views."""

    __slots__ = ("u", "um", "w", "f", "face", "tmp", "k1", "k2")

    def __init__(self, u, um, w, f, face, tmp, k1, k2):
        self.u, self.um = _Padded(u), _Padded(um)
        self.w, self.f = _Shifted(w), _Shifted(f)
        self.face, self.tmp = _Shifted(face), _Shifted(tmp)
        self.k1, self.k2 = k1, k2

    @classmethod
    def around(cls, ub: np.ndarray) -> "_Workspace":
        """A workspace whose padded state is ``ub``."""
        rows, width = ub.shape
        faces = (rows, width - 1)
        return cls(ub, np.empty_like(ub), np.empty_like(ub), np.empty_like(ub),
                   np.empty(faces), np.empty(faces),
                   np.empty((rows, width - 2)), np.empty((rows, width - 2)))

    def head(self, m: int) -> "_Workspace":
        """The same buffers cut to their first ``m`` rows."""
        return _Workspace(*(v.a[:m] for v in (self.u, self.um, self.w, self.f,
                                              self.face, self.tmp)),
                          self.k1[:m], self.k2[:m])


def _columns(flux: Flux, q1: np.ndarray, q2: np.ndarray):
    """Per-row ``q1``, wave-speed ``slope * q1`` and ``q2`` columns; ``q2``
    is None when no row has ``q2 > 0``."""
    q1c = q1[:, None]
    return q1c, q1c * flux.slope, q2[:, None] if (q2 > 0.0).any() else None


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


def _rhs(flux: Flux, q1c, q2c, u: _Padded, ws: _Workspace, dx: float,
         out=None) -> np.ndarray:
    """Semi-discrete right-hand side of the padded rows ``u`` given their
    wave speeds ``ws.w = |q1 f'(u)|``: the (rows, nx) interior values,
    written into ``out`` (allocated when None) through the scratch rows of
    ``ws``. The central-difference viscosity is added only when ``q2c`` is
    given, as :func:`step` does; the kernel diffuses exactly instead."""
    f, face, tmp, w = ws.f, ws.face, ws.tmp, ws.w
    flux.flux(q1c, u.a, f.a)
    # F_{i+1/2} = 0.5 (f_i + f_{i+1}) - (0.5 max(w_i, w_{i+1})) (u_{i+1} - u_i)
    # at the nx + 1 faces of the padded row. Every ufunc below keeps the
    # operand order of this formula.
    np.multiply(0.5, np.add(f.lo, f.hi, out=face.a), out=face.a)
    np.multiply(0.5, np.maximum(w.lo, w.hi, out=tmp.a), out=tmp.a)
    jump = np.subtract(u.hi, u.lo, out=f.hi)  # f is spent
    np.subtract(face.a, np.multiply(tmp.a, jump, out=tmp.a), out=face.a)
    out = np.subtract(face.hi, face.lo, out=out)
    np.divide(np.negative(out, out=out), dx, out=out)
    if q2c is not None:
        # out += (q2 ((u_{i+1} - 2.0 u_i) + u_{i-1})) / dx^2
        lap = np.multiply(2.0, u.mid, out=tmp.hi)
        np.add(np.subtract(u.right, lap, out=lap), u.left, out=lap)
        np.divide(np.multiply(q2c, lap, out=lap), dx * dx, out=lap)
        np.add(out, lap, out=out)
    return out


def _advance_rows(flux: Flux, q1: np.ndarray, q2: np.ndarray, states: np.ndarray,
                  alive: np.ndarray, dt_total: float, dx: float) -> None:
    """Advance the rows of ``states`` in place over ``dt_total > 0`` and
    clear ``alive`` where a row fails; the loop behind :func:`advance_ensemble`.

    Each substep is a Heun step of the advection term alone, between two
    half steps of exact diffusion on the rows with ``q2 > 0`` (Strang
    splitting), so only the advective limit bounds the step.

    The padded workspace and its views are built once and written with
    ``out=`` ufuncs. When rows finish, the live ones move to the front, and
    the workspace and its views are rebuilt on a leading slice.
    """
    rows = np.arange(states.shape[0])
    rem = np.full(rows.size, float(dt_total))
    ws = _Workspace.around(_padded(states))
    # numpy's error state is per thread, so each worker sets its own
    with np.errstate(all="ignore"):
        q1c, sc, q2c = _columns(flux, q1, q2)
        if q2c is not None:
            # eigenvalues of the periodic second difference at the rfft modes
            nx = states.shape[1]
            lam = -4.0 * np.sin(np.pi * np.arange(nx // 2 + 1) / nx) ** 2 / (dx * dx)
        u, um, w, k1, k2 = ws.u, ws.um, ws.w, ws.k1, ws.k2
        while True:
            flux.speed(sc, u.a, w.a)
            dt = _stable_dt(w.a, dx)
            if not (dt.min() > 0.0 and rem.all()):
                # retire rows whose interval is done; freeze failed rows
                failed = ~(dt > 0.0)
                alive[rows[failed]] = False
                keep = ~failed & (rem > 0.0)
                if not keep.any():
                    states[rows] = u.mid
                    return
                states[rows[~keep]] = u.mid[~keep]
                m = np.count_nonzero(keep)
                u.a[:m], w.a[:m] = u.a[keep], w.a[keep]
                rows, dt, rem, q1c, sc = (a[keep] for a in (rows, dt, rem, q1c, sc))
                q2c = None if q2c is None else q2c[keep]
                ws = ws.head(m)
                u, um, w, k1, k2 = ws.u, ws.um, ws.w, ws.k1, ws.k2
            np.minimum(dt, rem, out=dt)
            rem -= dt
            dtc = dt[:, None]
            half = 0.5 * dtc
            if q2c is not None:
                # exact diffusion over dt / 2: exp(dt / 2 q2 lam) - 1 per mode
                gain = np.expm1(np.multiply(half * q2c, lam))
                _diffuse(u.mid, q2c, gain)
                u.fill_ghosts()
                flux.speed(sc, u.a, w.a)
            _rhs(flux, q1c, None, u, ws, dx, k1)
            np.add(u.mid, np.multiply(dtc, k1, out=k2), out=um.mid)
            um.fill_ghosts()
            flux.speed(sc, um.a, w.a)
            _rhs(flux, q1c, None, um, ws, dx, k2)
            # u + (0.5 dt) (k1 + k2)
            np.multiply(half, np.add(k1, k2, out=k2), out=k2)
            np.add(u.mid, k2, out=u.mid)
            if q2c is not None:
                _diffuse(u.mid, q2c, gain)
            u.fill_ghosts()


def _cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def advance_ensemble(flux_kind: str, q1: np.ndarray, q2: np.ndarray,
                     u_start: np.ndarray, dt_total: float, grid: Grid1D):
    """Advance rows of states over ``dt_total``, each under its own
    coefficients ``(q1[i], q2[i])``. Each substep, at the row's advective
    CFL limit 0.4 dx / max|q1 f'|, is a Heun step of the advection term
    between two half steps of exact spectral diffusion; rows with
    ``q2 <= 0`` skip the diffusion, and a batch with none above zero skips
    the FFTs. ``u_start`` is one state shared by every row or one per row.

    The rows are split into contiguous blocks, at most one per core in the
    CPU affinity mask and none smaller than 128 rows, and each block runs
    in its own thread in padded workspaces that are allocated once and
    reused for every substep. A batch too small to split (a one-row
    ``solve`` among them) runs as one block in the calling thread. Every
    operation is elementwise, a per-row reduction or a per-row FFT, so a
    row's result is bit-identical whatever batch or block it is advanced
    in, and the split changes no result. A row whose state or wave speed
    stops being finite gets a NaN or zero step; it is frozen at its last
    state and reported as failed.

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
    """Stable forward-Euler step 0.4 * min(dx/max|q1 f'|, dx^2/(2 q2)).

    Returns ``dt_max`` when both the wave speed and the viscosity vanish.
    """
    flux = FLUXES[law.flux_kind]
    w = flux.speed(law.q1 * flux.slope, np.asarray(u, dtype=float))
    dif = grid.dx * grid.dx / (2.0 * law.q2) if law.q2 > 0.0 else np.inf
    with np.errstate(divide="ignore"):
        dt = CFL_SAFETY * np.minimum(grid.dx / w.max(), dif)
    return dt_max if dt == np.inf else float(dt)


def step(law: ConservationLaw, u: np.ndarray, dt: float, grid: Grid1D) -> np.ndarray:
    """One conservative forward-Euler update with explicit diffusion;
    enforces the CFL bound."""
    u = np.asarray(u, dtype=float)
    bound = cfl_dt(law, u, grid)
    if dt > bound * (1.0 + 1e-12):
        raise CFLViolation(f"dt={dt:g} exceeds stable bound {bound:g}")
    flux = FLUXES[law.flux_kind]
    q1c, sc, q2c = _columns(flux, np.array([law.q1]), np.array([law.q2]))
    ws = _Workspace.around(_padded(u[None, :]))
    flux.speed(sc, ws.u.a, ws.w.a)
    out = u + dt * _rhs(flux, q1c, q2c, ws.u, ws, grid.dx)[0]
    if not np.all(np.isfinite(out)):
        raise NonFiniteState("state became non-finite during step")
    return out


def solve_ensemble(flux_kind: str, q1: np.ndarray, q2: np.ndarray, u0: np.ndarray,
                   grid: Grid1D, t_final: float, nt_out: int):
    """Integrate each row ``u0[i]`` under its own coefficients
    ``(q1[i], q2[i])`` to t_final, sampling nt_out uniformly spaced frames.

    ``values[:, 0]`` is ``u0``; internal steps are clipped so every output
    timestamp is hit exactly. The rows advance as one batch per output
    interval (see :func:`advance_ensemble`), so each is bit-identical to
    that row solved alone.

    Returns ``(times, values, ok)`` with ``values`` of shape (M, nt_out, nx)
    and ``ok`` a boolean mask of the rows that stayed finite; a failed
    row's frames from its failure on are meaningless.
    """
    if flux_kind not in FLUXES:
        raise ValueError(f"flux_kind must be one of {tuple(FLUXES)}")
    if t_final <= 0.0:
        raise ValueError("t_final must be positive")
    if nt_out < 2:
        raise ValueError("nt_out must be >= 2")
    q1, q2 = np.asarray(q1, dtype=float), np.asarray(q2, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    if q1.ndim != 1 or q2.shape != q1.shape or u0.shape != (q1.size, grid.nx):
        raise ValueError("u0 must have shape (M, nx) for M coefficient pairs")
    if not np.all(np.isfinite(u0)):
        raise NonFiniteState("initial state must be finite")
    times = np.linspace(0.0, t_final, nt_out)
    values = np.empty((q1.size, nt_out, grid.nx))
    values[:, 0] = u0
    ok = np.ones(q1.size, dtype=bool)
    for k in range(1, nt_out):
        values[:, k], ok_k = advance_ensemble(
            flux_kind, q1, q2, values[:, k - 1], times[k] - times[k - 1], grid
        )
        ok &= ok_k
    return times, values, ok


def solve(law: ConservationLaw, u0: np.ndarray, grid: Grid1D, t_final: float,
          nt_out: int) -> SpaceTimeField:
    """Integrate to t_final, sampling nt_out uniformly spaced frames: the
    one-row case of :func:`solve_ensemble`.

    ``values[0]`` is the initial state; internal steps are clipped so every
    output timestamp is hit exactly.
    """
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (grid.nx,):
        raise ValueError("u0 must have shape (nx,)")
    times, values, ok = solve_ensemble(
        law.flux_kind, np.array([law.q1]), np.array([law.q2]), u0[None], grid,
        t_final, nt_out,
    )
    if not ok[0]:
        raise NonFiniteState("state became non-finite during integration")
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
    """Load a PDEGRID1 file; a malformed file, non-finite samples among
    them, raises ``ValueError``."""
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
    if not np.isfinite(values).all():
        raise ValueError(f"{path}: not a PDEGRID1 file")
    grid = Grid1D(nx=nx, dx=header["dx"], x0=header["x0"])
    return SpaceTimeField(grid, np.asarray(header["t"]), values.copy())
