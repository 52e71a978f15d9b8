import json
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdesym import solver
from pdesym.datagen import FAMILIES, grid_for, law_for, sample_ic
from pdesym.errors import CFLViolation, MalformedFile, NonFiniteState
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
        calls.append(1)
        return rhs(*args, **kwargs)

    monkeypatch.setattr(solver, "_rhs", counting)
    grid = _grid()
    solve(ConservationLaw("quadratic", 0.5, 0.05), _smooth_ic(grid, seed=6), grid, 1.0, 32)
    assert 0 < len(calls) < 1000


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
        _grid_bytes({**_GOOD_HEADER, "t": [0.0, 1.0, 2.0]}, 16),
        _grid_bytes({**_GOOD_HEADER, "t": [1.0, 1.0]}, 16),
        _grid_bytes({**_GOOD_HEADER, "nt": 4, "nx": 4, "t": [0.0, 1.0, 2.0, 3.0]}, 16),
        _grid_bytes({**_GOOD_HEADER, "dx": 0.0}, 16),
        _grid_bytes({**_GOOD_HEADER, "dx": -0.125}, 16),
        _grid_bytes({**_GOOD_HEADER, "nt": 0, "nx": 2**70, "t": []}, 0),
    ],
    ids=["bad-magic", "truncated", "header-past-end", "not-utf8", "not-json",
         "not-object", "missing-key", "nx-not-int", "t-not-list", "t-not-numbers",
         "dx-infinite", "dx-beyond-float", "short-payload", "nan-sample", "inf-sample",
         "t-not-nt-long", "t-not-increasing", "nx-below-8", "dx-zero", "dx-negative",
         "nx-beyond-memory"],
)
def test_grid_file_rejects_bad_magic(tmp_path, raw):
    path = tmp_path / "bad.grid"
    path.write_bytes(raw)
    with pytest.raises(MalformedFile, match=f"^{re.escape(str(path))}: not a PDEGRID1 file$"):
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


def test_unknown_flux_kind_is_a_value_error_everywhere():
    grid = _grid()
    q, u0 = np.array([0.5]), np.zeros((1, grid.nx))
    message = r"flux_kind must be one of \('quadratic', 'cubic', 'sine'\)"
    with pytest.raises(ValueError, match=message):
        advance_ensemble("bogus", q, q, u0, 0.1, grid)
    with pytest.raises(ValueError, match=message):
        solve_ensemble("bogus", q, q, u0, grid, 0.5, 6)
    with pytest.raises(ValueError, match=message):
        ConservationLaw("bogus", 0.5)


@pytest.mark.parametrize(
    "t_final, nt_out, u0, error",
    [
        (-1.0, 4, np.zeros(128), ValueError),
        (0.0, 4, np.zeros(128), ValueError),
        (np.nan, 4, np.zeros(128), ValueError),
        (np.inf, 4, np.zeros(128), ValueError),
        (0.5, 1, np.zeros(128), ValueError),
        (0.5, 4, np.zeros(127), ValueError),
        (0.5, 4, np.zeros((1, 128)), ValueError),
        (0.5, 4, np.full(128, np.nan), NonFiniteState),
    ],
    ids=["negative-horizon", "zero-horizon", "nan-horizon", "inf-horizon", "one-frame",
         "wrong-shape", "wrong-rank", "non-finite-u0"],
)
def test_solve_ensemble_rejects_what_solve_rejects(t_final, nt_out, u0, error):
    law = ConservationLaw("sine", 1.0, 0.05)
    with pytest.raises(error):
        solve(law, u0, _grid(), t_final, nt_out)
    with pytest.raises(error):
        solve_ensemble("sine", np.array([1.0]), np.array([0.05]), u0[None], _grid(),
                       t_final, nt_out)


def _shared_batch(rng, m=500):
    """Coefficients of an m-row batch that shares one start state: ``q1`` of
    both signs around 0.5, zeros, infinities and NaN; inviscid rows with
    ``q2`` of 0, -5 and NaN, and 40 viscous rows. Rows 5-11 tie their
    budgets in pairs, and ``q1`` of +-0.5, 0.375 and 0.25 over an interval of
    2^-4 give budgets that are multiples of 2^-10."""
    q1 = rng.uniform(0.45, 0.55, m) * rng.choice([-1.0, 1.0], m)
    q1[:12] = [0.0, -0.0, np.inf, -np.inf, np.nan,
               0.5, 0.5, 0.25, 0.25, -0.375, -0.375, -0.5]
    q1[12] = q1[13] = q1[14]
    q2 = np.zeros(m)
    q2[15:20] = -5.0
    q2[20] = np.nan
    q2[21:61] = rng.uniform(0.04, 0.06, 40)
    q1[[21, 22]] = [np.inf, 0.0]
    return q1, q2


@pytest.mark.parametrize("flux_kind", sorted(solver.FLUXES))
@pytest.mark.parametrize("capped", [False, True], ids=["cfl-steps", "dyadic-steps"])
def test_shared_inviscid_march_matches_rows_advanced_alone(flux_kind, capped, monkeypatch):
    """Inviscid rows that share a start state and the sign of ``q1`` march
    once in tau = |q1| t, yet every row keeps the bits and the ``ok`` flag
    of that row advanced alone. With the step limit capped at 2^-10 (below
    the CFL limit of this state), budgets that are multiples of it end
    exactly on a march substep."""
    if capped:
        stable = solver._stable_dt
        monkeypatch.setattr(
            solver, "_stable_dt", lambda w, dx: np.minimum(stable(w, dx), 2.0**-10)
        )
    grid = _grid()
    u0 = _smooth_ic(grid, seed=4)
    q1, q2 = _shared_batch(np.random.default_rng(9))
    states, ok = advance_ensemble(flux_kind, q1, q2, u0, 2.0**-4, grid)
    expected_ok = np.isfinite(q1)
    assert ok.tolist() == expected_ok.tolist()
    for i in range(q1.size):
        solo, solo_ok = advance_ensemble(flux_kind, q1[i : i + 1], q2[i : i + 1], u0,
                                         2.0**-4, grid)
        assert solo_ok[0] == ok[i]
        assert states[i].tobytes() == solo[0].tobytes()
    # no budget, or a non-finite one: the start state, bit for bit
    for i in (0, 1, 2, 3, 4):
        assert states[i].tobytes() == u0.tobytes()
    assert not np.array_equal(states[5], u0)


def test_rows_past_the_substep_cap_fail_as_they_would_alone(monkeypatch):
    """Rows with |q1| near 1e12 need about 1e13 substeps for one interval:
    each fails after ``MAX_SUBSTEPS`` of them (lowered to 512 to keep the
    test short), frozen where it would be frozen alone, while a normal row
    in the same march finishes."""
    monkeypatch.setattr(solver, "MAX_SUBSTEPS", 512)
    grid = _grid(16)
    u0 = _smooth_ic(grid, seed=4)
    q1 = np.array([0.5, 1e12, 1.2e12, -1e12, -0.5])
    q2 = np.zeros(q1.size)
    states, ok = advance_ensemble("sine", q1, q2, u0, 1 / 31, grid)
    assert ok.tolist() == [True, False, False, False, True]
    for i in range(q1.size):
        solo, solo_ok = advance_ensemble("sine", q1[i : i + 1], q2[i : i + 1], u0, 1 / 31, grid)
        assert solo_ok[0] == ok[i]
        assert states[i].tobytes() == solo[0].tobytes()
    assert np.isfinite(states).all() and not np.array_equal(states[1], u0)


@pytest.mark.parametrize("flux_kind", sorted(solver.FLUXES))
def test_substep_cap_fails_march_members_as_alone(flux_kind, monkeypatch):
    """With the step limit capped at 2^-10 and the cap at 32 substeps, a
    budget of 2^-5 takes exactly the cap and finishes, alone and as a march
    member; a budget an ulp-sized step larger fails, at the march's state
    after 32 substeps as alone. ``solve_ensemble`` over the same interval
    runs under the same cap and gives each row the same flag and bits."""
    stable = solver._stable_dt
    monkeypatch.setattr(solver, "_stable_dt", lambda w, dx: np.minimum(stable(w, dx), 2.0**-10))
    monkeypatch.setattr(solver, "MAX_SUBSTEPS", 32)
    grid = _grid()
    u0 = _smooth_ic(grid, seed=7)
    over = np.nextafter(0.5, 1.0)
    q1 = np.array([0.25, 0.5, over, 0.75, -0.5, -over])
    q2 = np.zeros(q1.size)
    states, ok = advance_ensemble(flux_kind, q1, q2, u0, 2.0**-4, grid)
    assert ok.tolist() == [True, True, False, False, True, False]
    for i in range(q1.size):
        solo, solo_ok = advance_ensemble(flux_kind, q1[i : i + 1], q2[i : i + 1], u0, 2.0**-4, grid)
        assert solo_ok[0] == ok[i]
        assert states[i].tobytes() == solo[0].tobytes()
    assert states[2].tobytes() == states[3].tobytes()  # frozen with their march
    _, values, solve_ok = solve_ensemble(flux_kind, q1, q2, np.tile(u0, (q1.size, 1)), grid,
                                         2.0**-4, 2)
    assert solve_ok.tolist() == ok.tolist()
    assert values[:, 1].tobytes() == states.tobytes()


@pytest.mark.parametrize("flux_kind", sorted(solver.FLUXES))
def test_solve_caps_the_substeps_of_each_output_interval(flux_kind, monkeypatch):
    """With the step limit capped at 2^-10 and ``MAX_SUBSTEPS`` at 32,
    eight frames of tau budget 2^-5 take 256 substeps in all, 32 in each,
    and finish; a budget an ulp-sized step larger fails in its first frame
    and holds the state it failed at, as it would alone."""
    stable = solver._stable_dt
    monkeypatch.setattr(solver, "_stable_dt", lambda w, dx: np.minimum(stable(w, dx), 2.0**-10))
    monkeypatch.setattr(solver, "MAX_SUBSTEPS", 32)
    grid = _grid()
    u0 = np.tile(_smooth_ic(grid, seed=7), (3, 1))
    q1 = np.array([0.5, np.nextafter(0.5, 1.0), -0.5])
    times, values, ok = solve_ensemble(flux_kind, q1, np.zeros(3), u0, grid, 0.5, 9)
    assert ok.tolist() == [True, False, True]
    assert np.array_equal(values[1, 2:], np.broadcast_to(values[1, 1], (7, grid.nx)))
    for i in range(3):
        solo = solve_ensemble(flux_kind, q1[i : i + 1], np.zeros(1), u0[:1], grid, 0.5, 9)
        assert solo[2][0] == ok[i] and solo[1][0].tobytes() == values[i].tobytes()
    with pytest.raises(NonFiniteState, match="more than 32 substeps"):
        solve(ConservationLaw(flux_kind, q1[1], 0.0), u0[0], grid, 0.5, 9)


@st.composite
def _batches(draw, shared):
    """A random batch: its flux, grid, rows and start states (one state for
    every row when ``shared``), and the kernel settings it runs under."""
    flux_kind = draw(st.sampled_from(sorted(solver.FLUXES)))
    nx = draw(st.integers(8, 64))
    m = draw(st.integers(1, 11))
    speed = st.floats(0.05, 1.5)
    q1 = draw(st.lists(st.one_of(st.just(0.0), speed, speed.map(lambda v: -v)),
                       min_size=m, max_size=m))
    q2 = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 0.1)), min_size=m, max_size=m))
    seeds = draw(st.lists(st.integers(0, 2**31), min_size=1 if shared else m,
                          max_size=1 if shared else m))
    amplitude = draw(st.floats(0.2, 2.0))
    settings_ = {
        "_MIN_BLOCK_ROWS": draw(st.sampled_from([1, solver._MIN_BLOCK_ROWS])),
        "cores": draw(st.integers(1, 3)),
        "MAX_SUBSTEPS": draw(st.sampled_from([2, 5, 16, solver.MAX_SUBSTEPS])),
    }
    horizon = draw(st.sampled_from([0.0, 2.0**-6]) | st.floats(1e-3, 0.1))
    grid = _grid(nx)
    starts = amplitude * np.stack([_smooth_ic(grid, seed) for seed in seeds])
    return flux_kind, grid, np.array(q1), np.array(q2), starts, settings_, horizon


@pytest.mark.parametrize("frames", [None, 2, 5], ids=["advance", "solve-2", "solve-5"])
@pytest.mark.parametrize("shared", [True, False], ids=["shared-start", "own-starts"])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_row_advances_as_it_would_alone(frames, shared, data):
    """The kernel's central promise on random batches: whatever batch,
    march or block a row lands in (tau marches with their side exits, a
    thread split forced down to one-row blocks, compaction as rows retire,
    per-frame substep caps low enough to fail some rows), its states and
    its ``ok`` flag are those of the row advanced alone, bit for bit, in
    one ``advance_ensemble`` interval or over ``frames`` frames of
    ``solve_ensemble``."""
    batch = data.draw(_batches(shared))
    flux_kind, grid, q1, q2, starts, settings_, horizon = batch
    m = q1.size

    def run(rows):
        if frames is None:  # a shared start is passed as one state
            u = starts[0] if shared else starts[rows]
            return advance_ensemble(flux_kind, q1[rows], q2[rows], u, horizon, grid)
        u = np.broadcast_to(starts, (m, grid.nx))[rows]
        _, values, ok = solve_ensemble(flux_kind, q1[rows], q2[rows], u, grid,
                                       horizon or 2.0**-6, frames)
        return values, ok

    with pytest.MonkeyPatch.context() as mp:
        for name, value in settings_.items():
            if name == "cores":
                mp.setattr(solver, "_cores", lambda k=value: k)
            else:
                mp.setattr(solver, name, value)
        together, ok = run(np.arange(m))
        for i in range(m):
            alone, alone_ok = run(np.arange(i, i + 1))
            assert alone_ok[0] == ok[i]
            assert alone[0].tobytes() == together[i].tobytes()


@pytest.mark.parametrize("nt_out", [2, 32])
def test_long_frames_are_not_capped(nt_out):
    """An icl_sine solve over 60 time units needs about 19,000 substeps, all
    in one frame when ``nt_out`` is 2, and finishes whatever the frames:
    ``MAX_SUBSTEPS`` leaves room for it."""
    spec = FAMILIES["icl_sine"]
    grid = grid_for(spec)
    u0 = sample_ic(spec, np.random.default_rng(0))
    field = solve(law_for(spec, spec.q1, spec.q2), u0, grid, 60.0, nt_out)
    assert field.values.shape == (nt_out, grid.nx)
    assert np.isfinite(field.values).all()


def test_cores_fall_back_to_the_cpu_count_without_an_affinity_mask(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert solver._cores() == (os.cpu_count() or 1)


def test_shared_inviscid_interval_work_does_not_grow_with_the_batch(monkeypatch):
    """One march row pays two right-hand sides per substep, and each other
    member one more row when it leaves, not a march of its own."""
    rows = []
    rhs = solver._rhs

    def counting(*args, **kwargs):
        rows.append(args[2].shape[0])
        return rhs(*args, **kwargs)

    monkeypatch.setattr(solver, "_rhs", counting)
    grid = _grid()
    u0 = _smooth_ic(grid, seed=3)
    q1 = 0.5 * np.random.default_rng(2).uniform(0.9, 1.1, 500)
    q1[0] = 0.56  # the largest budget
    work = []
    for m in (1, 500):
        rows.clear()
        states, ok = advance_ensemble("quadratic", q1[:m], np.zeros(m), u0, 1 / 31, grid)
        assert ok.all()
        work.append(sum(rows))
    substeps = work[0] // 2
    assert substeps > 10
    assert work[1] - work[0] <= 500


def _chained(flux_kind, q1, q2, u0, grid, t_final, nt_out):
    """Frames and per-interval ``ok`` of ``advance_ensemble`` called once
    per output interval, each call starting from the last frame."""
    times = np.linspace(0.0, t_final, nt_out)
    frames, oks = [u0], []
    for k in range(1, nt_out):
        states, ok = advance_ensemble(flux_kind, q1, q2, frames[-1], times[k] - times[k - 1],
                                      grid)
        frames.append(states)
        oks.append(ok)
    return np.stack(frames, axis=1), np.stack(oks, axis=1)


def _assert_frames_match_chained(values, ok, chain, chain_ok):
    """The same ``ok``, byte-equal frames up to and including each row's
    failing frame, and a failed row's later frames frozen at that one."""
    assert ok.tolist() == chain_ok.all(axis=1).tolist()
    for i in range(ok.size):
        end = values.shape[1] if ok[i] else 2 + np.argmin(chain_ok[i])
        assert values[i, :end].tobytes() == chain[i, :end].tobytes()
        frozen = np.broadcast_to(values[i, end - 1], values[i, end - 1 :].shape)
        assert values[i, end - 1 :].tobytes() == frozen.tobytes()


@pytest.mark.parametrize("fail_late", [False, True], ids=["", "failing-late"])
@pytest.mark.parametrize("law", ALL_LAWS, ids=lambda l: f"{l.flux_kind}-q2={l.q2}")
def test_solve_ensemble_frames_match_chained_intervals(law, fail_late, monkeypatch):
    """One kernel call over the whole schedule gives every frame the bits
    of one ``advance_ensemble`` call per interval, in a batch split across
    two forced cores, with rows that cannot move or fail at once (NaN,
    infinite and zero ``q1``) and never-diffused rows (``q2 = -5``). With
    ``fail_late``, a row's step turns NaN once the spread of its wave
    speeds has decayed below a cut, so rows fail inside frames and at
    frame ends throughout the schedule."""
    monkeypatch.setattr(solver, "_cores", lambda: 2)
    calls = []
    advance_rows = solver._advance_rows

    def recording(flux, fc, *rest):
        calls.append(fc.size)
        advance_rows(flux, fc, *rest)

    monkeypatch.setattr(solver, "_advance_rows", recording)
    grid = _grid(64)
    rng = np.random.default_rng(13)
    m = 300
    u0 = np.stack([_smooth_ic(grid, seed) for seed in rng.integers(0, 2**31, m)])
    q1 = law.q1 * rng.uniform(0.9, 1.1, m) * rng.choice([-1.0, 1.0], m)
    q2 = law.q2 * rng.uniform(0.9, 1.1, m)
    if fail_late:
        flux = solver.FLUXES[law.flux_kind]
        scale = np.abs(q1[:, None]) if law.q2 > 0.0 else 1.0
        spread = np.ptp(flux.speed(flux.slope * scale, u0), axis=1)
        cut = (0.6 if law.q2 > 0.0 else 0.8) * np.median(spread)
        stable = solver._stable_dt

        def failing(w, dx):
            dt = stable(w, dx)
            dt[np.ptp(w, axis=1) < cut] = np.nan
            return dt

        monkeypatch.setattr(solver, "_stable_dt", failing)
    q1[[0, 150, 299]] = [np.nan, np.inf, 0.0]
    q1[[1, 151, 298]] = [-np.inf, 0.0, np.nan]
    q2[[2, 152, 297]] = -5.0
    times, values, ok = solve_ensemble(law.flux_kind, q1, q2, u0, grid, 0.25, 9)
    assert len(calls) == 2 and min(calls) >= solver._MIN_BLOCK_ROWS
    calls.clear()
    chain, chain_ok = _chained(law.flux_kind, q1, q2, u0, grid, 0.25, 9)
    assert len(calls) == 16  # two blocks per interval
    _assert_frames_match_chained(values, ok, chain, chain_ok)
    assert not ok[[0, 1, 150, 298]].any()
    failed_at = np.argmin(chain_ok[~ok], axis=1)
    if fail_late:
        assert np.unique(failed_at).size >= 3 and 100 <= np.count_nonzero(~ok) < m
    else:
        assert ok[[151, 299]].all() and not failed_at.any()


@pytest.mark.parametrize("t_final", [2e-323, 3e-323], ids=["zero-steps", "a-step-back"])
def test_output_times_that_do_not_increase_are_rejected(t_final):
    """At subnormal horizons ``linspace`` repeats a time or steps back by an
    ulp; ``solve_ensemble`` rejects those times as ``SpaceTimeField`` does."""
    assert (np.diff(np.linspace(0.0, t_final, 9)) <= 0.0).any()
    grid = _grid(32)
    u0 = _smooth_ic(grid, seed=0)[None]
    with pytest.raises(ValueError, match="strictly increasing"):
        solve_ensemble("quadratic", np.ones(1), np.zeros(1), u0, grid, t_final, 9)


def test_solve_makes_one_kernel_call(monkeypatch):
    calls = []
    advance_rows = solver._advance_rows

    def recording(*args):
        calls.append(args[1].size)
        advance_rows(*args)

    monkeypatch.setattr(solver, "_advance_rows", recording)
    grid = _grid()
    for law in ALL_LAWS:
        calls.clear()
        solve(law, _smooth_ic(grid, seed=3), grid, 1.0, 32)
        assert calls == [1]
