import json
import struct

import numpy as np
import pytest

from pdesym import solver
from pdesym.errors import CFLViolation, NonFiniteState
from pdesym.solver import (
    CFL_SAFETY,
    DT_MAX_DEFAULT,
    ConservationLaw,
    Grid1D,
    SpaceTimeField,
    advance_ensemble,
    cfl_dt,
    read_grid_file,
    solve,
    solve_ensemble,
    step,
    write_grid_file,
)

from helpers import oracle_euler_step



def _grid(nx=128, length=1.0):
    return Grid1D(nx=nx, dx=length / nx)


def _smooth_ic(grid, seed=0):
    rng = np.random.default_rng(seed)
    xs = grid.cells()
    u = np.zeros(grid.nx)
    for j in range(1, 4):
        u += rng.uniform(-0.5, 0.5) * np.sin(2 * np.pi * j * xs + rng.uniform(0, 2 * np.pi))
    peak = np.max(np.abs(u))
    return u / peak


ALL_LAWS = [
    ConservationLaw("quadratic", 0.5, 0.05),
    ConservationLaw("quadratic", 0.5, 0.0),
    ConservationLaw("cubic", 0.33, 0.05),
    ConservationLaw("cubic", 0.33, 0.0),
    ConservationLaw("sine", 1.0, 0.05),
    ConservationLaw("sine", 1.0, 0.0),
]


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: f"{l.flux_kind}-q2={l.q2}")
def test_constant_state_is_exactly_preserved(law):
    grid = _grid()
    u = np.full(grid.nx, 0.37)
    dt = cfl_dt(law, u, grid)
    assert np.array_equal(step(law, u, dt, grid), u)
    field = solve(law, u, grid, 0.25, 4)
    assert np.array_equal(field.values[-1], u)


def test_pure_diffusion_conserves_mass_and_decreases_peak():
    grid = _grid()
    law = ConservationLaw("quadratic", 0.0, 0.1)
    u = np.zeros(grid.nx)
    u[grid.nx // 2] = 1.0
    field = solve(law, u, grid, 0.01, 5)
    mass0 = np.sum(u) * grid.dx
    for frame in field.values:
        assert abs(np.sum(frame) * grid.dx - mass0) <= 1e-12 * (1 + abs(mass0))
    assert np.max(field.values[-1]) < 1.0


@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: f"{l.flux_kind}-q2={l.q2}")
def test_single_euler_step_matches_independent_oracle(law):
    grid = _grid()
    u = _smooth_ic(grid, seed=3)
    dt = cfl_dt(law, u, grid)
    ours = step(law, u, dt, grid)
    ref = oracle_euler_step(law.flux_kind, law.q1, law.q2, u, dt, grid.dx)
    assert np.max(np.abs(ours - ref)) < 1e-14


def test_cfl_examples():
    grid = _grid(128)
    # degenerate: zero state, inviscid quadratic flux -> dt_max
    law = ConservationLaw("quadratic", 1.0, 0.0)
    assert cfl_dt(law, np.zeros(128), grid) == DT_MAX_DEFAULT
    # advective bound: max|2 q1 u| = 2 with max|u| = 1
    u = np.zeros(128)
    u[5] = 1.0
    assert cfl_dt(law, u, grid) == 0.0015625
    assert cfl_dt(law, u, grid) == CFL_SAFETY * (grid.dx / 2.0)
    # diffusion bound dominates
    law2 = ConservationLaw("quadratic", 0.0, 0.1)
    assert cfl_dt(law2, u, grid) == CFL_SAFETY * (grid.dx * grid.dx / (2.0 * 0.1))


def test_step_rejects_unstable_dt():
    grid = _grid()
    law = ConservationLaw("quadratic", 0.5, 0.0)
    u = _smooth_ic(grid)
    with pytest.raises(CFLViolation):
        step(law, u, 2.0 * cfl_dt(law, u, grid), grid)


def test_step_flags_non_finite_states():
    grid = _grid()
    law = ConservationLaw("quadratic", 0.5, 0.0)
    u = _smooth_ic(grid)
    u[3] = np.nan
    with pytest.raises(NonFiniteState):
        step(law, u, 1e-6, grid)


@pytest.mark.parametrize(
    "law",
    [l for l in ALL_LAWS if l.q2 == 0.0],
    ids=lambda l: l.flux_kind,
)
def test_inviscid_mass_conservation_over_full_trajectory(law):
    grid = _grid()
    u0 = _smooth_ic(grid, seed=11)
    field = solve(law, u0, grid, 1.0, 32)
    mass0 = np.sum(u0) * grid.dx
    drift = np.max(np.abs(np.sum(field.values, axis=1) * grid.dx - mass0))
    assert drift <= 1e-12 * (1.0 + abs(mass0))


@pytest.mark.parametrize(
    "law",
    [l for l in ALL_LAWS if l.q2 > 0.0],
    ids=lambda l: l.flux_kind,
)
def test_viscous_mass_conservation_over_full_trajectory(law):
    # exact diffusion leaves the k = 0 mode alone, so mass moves only by
    # the round-off of the inverse transform
    grid = _grid()
    u0 = _smooth_ic(grid, seed=11) + 0.3
    field = solve(law, u0, grid, 1.0, 32)
    mass0 = np.sum(u0) * grid.dx
    drift = np.max(np.abs(np.sum(field.values, axis=1) * grid.dx - mass0))
    assert drift <= 1e-12 * (1.0 + abs(mass0))


def test_maximum_principle_inviscid():
    grid = _grid()
    law = ConservationLaw("quadratic", 0.5, 0.0)
    u0 = _smooth_ic(grid, seed=21)
    field = solve(law, u0, grid, 1.0, 32)
    tau = 1e-10
    assert np.min(field.values) >= np.min(u0) - tau
    assert np.max(field.values) <= np.max(u0) + tau


def _restrict(u_fine, factor):
    return u_fine.reshape(-1, factor).mean(axis=1)


def test_self_convergence_order_on_smooth_solution():
    # viscous Burgers' at a pre-shock time against a 1024-cell reference
    law = ConservationLaw("quadratic", 0.5, 0.05)
    t_end = 0.05
    solutions = {}
    for nx in (128, 256, 512, 1024):
        grid = _grid(nx)
        xs = grid.cells()
        u0 = np.sin(2 * np.pi * xs)
        solutions[nx] = solve(law, u0, grid, t_end, 2).values[-1]
    errors = {}
    for nx in (128, 256, 512):
        ref = _restrict(solutions[1024], 1024 // nx)
        errors[nx] = np.linalg.norm(solutions[nx] - ref) / np.sqrt(nx)
    order_1 = np.log2(errors[128] / errors[256])
    order_2 = np.log2(errors[256] / errors[512])
    assert order_1 >= 0.9
    assert order_2 >= 0.9


def test_viscous_solve_steps_at_the_advective_limit(monkeypatch):
    # explicit diffusion would cap dt at 0.4 dx^2 / (2 q2): ~3,900 Heun
    # substeps, ~7,800 right-hand sides; the advective limit needs ~100
    calls = []
    rhs = solver._rhs

    def counting(*args, **kwargs):
        calls.append(args[2])
        return rhs(*args, **kwargs)

    monkeypatch.setattr(solver, "_rhs", counting)
    grid = _grid()
    solve(ConservationLaw("quadratic", 0.5, 0.05), _smooth_ic(grid, seed=6), grid, 1.0, 32)
    assert 0 < len(calls) < 1000
    assert all(q2c is None for q2c in calls)  # the kernel never differences u_xx


@pytest.mark.parametrize("law", [l for l in ALL_LAWS if l.q2 > 0.0], ids=lambda l: l.flux_kind)
def test_viscous_solve_matches_explicit_euler_chain(law):
    """Against a chain of explicit forward-Euler ``step`` calls at an eighth
    of ``cfl_dt``. That reference is first order in time: its own error is
    about 1e-4 here and halves with its step. The bound 5e-4 is under a
    tenth of the scheme's spatial error at 128 cells (6e-3 or more)."""
    grid = _grid()
    u0 = _smooth_ic(grid, seed=5)
    u, t, t_end = u0, 0.0, 0.05
    while t < t_end:
        dt = min(cfl_dt(law, u, grid) / 8.0, t_end - t)
        u, t = step(law, u, dt, grid), t + dt
    ours = solve(law, u0, grid, t_end, 2).values[-1]
    assert np.linalg.norm(ours - u) <= 5e-4 * np.linalg.norm(u)


def test_inviscid_rows_keep_signed_zeros_beside_viscous_rows():
    # a row of -0.0 stays -0.0 under the Heun step; the diffusion of its
    # viscous batch-mate must not touch it, not even by adding +0.0
    grid = _grid()
    u0 = np.stack([_smooth_ic(grid, seed=1), np.full(grid.nx, -0.0)])
    q1, q2 = np.array([0.5, 0.5]), np.array([0.05, 0.0])
    states, ok = advance_ensemble("quadratic", q1, q2, u0, 0.01, grid)
    alone, _ = advance_ensemble("quadratic", q1[1:], q2[1:], u0[1:], 0.01, grid)
    assert ok.all()
    assert states[1].tobytes() == alone[0].tobytes() == u0[1].tobytes()


def test_vanishing_horizon_returns_initial_state():
    grid = _grid()
    law = ConservationLaw("quadratic", 0.5, 0.0)
    u0 = _smooth_ic(grid, seed=2)
    field = solve(law, u0, grid, 1e-300, 4)
    assert np.array_equal(field.values[-1], u0)


def test_solve_is_bitwise_deterministic():
    grid = _grid()
    law = ConservationLaw("cubic", 0.33, 0.05)
    u0 = _smooth_ic(grid, seed=8)
    a = solve(law, u0, grid, 0.5, 8)
    b = solve(law, u0, grid, 0.5, 8)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.times, b.times)


def test_grid_file_round_trip(tmp_path):
    grid = _grid()
    law = ConservationLaw("sine", 0.955, 0.0)
    u0 = _smooth_ic(grid, seed=4)
    field = solve(law, u0, grid, 0.5, 6)
    path = tmp_path / "traj.grid"
    write_grid_file(field, path)
    again = read_grid_file(path)
    assert np.array_equal(again.values, field.values)
    assert np.array_equal(again.times, field.times)
    assert again.grid == field.grid
    raw = path.read_bytes()
    assert raw.startswith(b"PDEGRID1")


def _grid_bytes(header, n_values, hlen=None) -> bytes:
    blob = header if isinstance(header, bytes) else json.dumps(header).encode()
    size = len(blob) if hlen is None else hlen
    return b"PDEGRID1" + struct.pack("<I", size) + blob + b"\x00" * (8 * n_values)


_GOOD_HEADER = {"nt": 2, "nx": 8, "t": [0.0, 1.0], "x0": 0.0, "dx": 0.125}


@pytest.mark.parametrize(
    "raw",
    [
        b"NOTAGRID" + b"\x00" * 16,
        b"PDEGRID1\x00\x00",
        _grid_bytes(_GOOD_HEADER, 16, hlen=10_000),
        _grid_bytes(b"\xff\xfe", 16),
        _grid_bytes(b"{nt", 16),
        _grid_bytes([2, 8], 16),
        _grid_bytes({k: v for k, v in _GOOD_HEADER.items() if k != "dx"}, 16),
        _grid_bytes({**_GOOD_HEADER, "nx": "8"}, 16),
        _grid_bytes({**_GOOD_HEADER, "t": 5}, 16),
        _grid_bytes({**_GOOD_HEADER, "t": ["a", "b"]}, 16),
        _grid_bytes({**_GOOD_HEADER, "dx": float("inf")}, 16),
        _grid_bytes({**_GOOD_HEADER, "dx": 10**400}, 16),
        _grid_bytes(_GOOD_HEADER, 15),
        _grid_bytes(_GOOD_HEADER, 0) + struct.pack("<16d", *[0.0] * 15, float("nan")),
        _grid_bytes(_GOOD_HEADER, 0) + struct.pack("<16d", float("-inf"), *[0.0] * 15),
    ],
    ids=["bad-magic", "truncated", "header-past-end", "not-utf8", "not-json",
         "not-object", "missing-key", "nx-not-int", "t-not-list", "t-not-numbers",
         "dx-infinite", "dx-beyond-float", "short-payload", "nan-sample", "inf-sample"],
)
def test_grid_file_rejects_bad_magic(tmp_path, raw):
    path = tmp_path / "bad.grid"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match="not a PDEGRID1 file"):
        read_grid_file(path)
    path.write_bytes(_grid_bytes(_GOOD_HEADER, 16))
    assert read_grid_file(path).values.shape == (2, 8)


def test_validation_errors():
    with pytest.raises(ValueError):
        ConservationLaw("quadratic", 0.5, -0.01)
    with pytest.raises(ValueError):
        ConservationLaw("quartic", 0.5, 0.0)
    with pytest.raises(ValueError):
        Grid1D(nx=4, dx=0.1)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            Grid1D(nx=8, dx=bad)
        with pytest.raises(ValueError):
            ConservationLaw("quadratic", bad, 0.0)
        with pytest.raises(ValueError):
            ConservationLaw("quadratic", 0.5, bad)
    with pytest.raises(ValueError):
        solve(ConservationLaw("sine", 1.0), np.zeros(128), _grid(), -1.0, 4)
    with pytest.raises(ValueError):
        SpaceTimeField(_grid(), np.array([0.0, 0.0]), np.zeros((2, 128)))


def test_solve_ensemble_rows_match_solve_and_flag_failures():
    grid = _grid()
    u0 = np.stack([_smooth_ic(grid, seed) for seed in range(4)])
    q1 = np.array([0.5, np.nan, 0.45, 0.55])
    q2 = np.zeros(4)
    times, values, ok = solve_ensemble("quadratic", q1, q2, u0, grid, 0.5, 6)
    assert values.shape == (4, 6, grid.nx)
    assert ok.tolist() == [True, False, True, True]
    for i in np.flatnonzero(ok):
        alone = solve(ConservationLaw("quadratic", q1[i], q2[i]), u0[i], grid, 0.5, 6)
        assert np.array_equal(alone.times, times)
        assert np.array_equal(alone.values, values[i])
    with pytest.raises(ValueError):
        solve_ensemble("quartic", q1, q2, u0, grid, 0.5, 6)
    with pytest.raises(ValueError):
        solve_ensemble("quadratic", q1, q2[:3], u0, grid, 0.5, 6)


@pytest.mark.parametrize(
    "t_final, nt_out, u0, error",
    [
        (-1.0, 4, np.zeros(128), ValueError),
        (0.0, 4, np.zeros(128), ValueError),
        (0.5, 1, np.zeros(128), ValueError),
        (0.5, 4, np.zeros(127), ValueError),
        (0.5, 4, np.full(128, np.nan), NonFiniteState),
    ],
    ids=["negative-horizon", "zero-horizon", "one-frame", "wrong-shape", "non-finite-u0"],
)
def test_solve_ensemble_rejects_what_solve_rejects(t_final, nt_out, u0, error):
    law = ConservationLaw("sine", 1.0, 0.05)
    with pytest.raises(error):
        solve(law, u0, _grid(), t_final, nt_out)
    with pytest.raises(error):
        solve_ensemble("sine", np.array([1.0]), np.array([0.05]), u0[None], _grid(),
                       t_final, nt_out)
