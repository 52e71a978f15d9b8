import sys
import threading

import numpy as np
import pytest

from pdesym import solver
from pdesym.datagen import FAMILIES, grid_for, law_for, sample_ic
from pdesym.errors import AllWeightsDegenerate, ZeroCoefficient
from pdesym.smc import (
    FilterConfig,
    ObservationSeq,
    ParticleEnsemble,
    advance_ensemble,
    discrete_l2,
    init_ensemble,
    propagate,
    refine,
    resample,
    reweight,
    weights_from_sq_residuals,
)
from pdesym.solver import ConservationLaw, solve, solve_ensemble



def _observations(family="inviscid_burgers", q1=0.5, q2=0.0, seed=0, frames=11):
    spec = FAMILIES[family]
    grid = grid_for(spec)
    u0 = sample_ic(spec, np.random.default_rng(seed))
    law = law_for(spec, q1, q2)
    traj = solve(law, u0, grid, spec.t_f, spec.nt)
    return ObservationSeq.from_field(traj, n_frames=frames), law


# ---------------------------------------------------------------------------
# initialization

def test_init_uniform_cloud_bounds_and_weights():
    cfg = FilterConfig(particles=500, seed=1)
    ens = init_ensemble(np.array([1.0]), cfg, np.random.default_rng(cfg.seed))
    assert ens.particles.shape == (500, 1)
    assert np.all(ens.particles >= 0.9) and np.all(ens.particles <= 1.1)
    assert np.allclose(ens.weights, 0.002)


def test_init_two_coefficient_intervals():
    cfg = FilterConfig(particles=400, seed=3)
    ens = init_ensemble(np.array([0.5, 0.01]), cfg, np.random.default_rng(cfg.seed))
    assert ens.particles.shape == (400, 2)
    assert ens.particles[:, 0].min() >= 0.45 and ens.particles[:, 0].max() <= 0.55
    assert ens.particles[:, 1].min() >= 0.009 and ens.particles[:, 1].max() <= 0.011


def test_init_negative_coefficient_interval_is_sorted():
    cfg = FilterConfig(particles=100, seed=4)
    ens = init_ensemble(np.array([-1.0]), cfg, np.random.default_rng(cfg.seed))
    assert np.all(ens.particles >= -1.1) and np.all(ens.particles <= -0.9)


def test_init_rejects_zero_coefficient():
    with pytest.raises(ZeroCoefficient):
        init_ensemble(np.array([0.5, 0.0]), FilterConfig(), np.random.default_rng(0))


@pytest.mark.parametrize("alpha0", [[np.nan], [np.inf], [0.5, -np.inf], [0.5, 0.05, 1.0], [],
                                    [[0.5]]],
                         ids=["nan", "inf", "minus-inf", "three", "empty", "nested"])
def test_malformed_initial_coefficients_are_value_errors(alpha0):
    with pytest.raises(ValueError):
        init_ensemble(alpha0, FilterConfig(), np.random.default_rng(0))
    obs, law = _observations(frames=3)
    with pytest.raises(ValueError):
        refine(alpha0, obs, law, FilterConfig(particles=8, steps=2))


# ---------------------------------------------------------------------------
# propagation

def test_propagate_increment_variance():
    cfg = FilterConfig(particles=2, process_var=1e-5, seed=5)
    rng = np.random.default_rng(5)
    n = 100_000
    increments = rng.normal(0.0, np.sqrt(cfg.process_var), n)
    var = float(np.var(increments))
    assert 0.9e-5 <= var <= 1.1e-5
    # the same generator drives propagate
    ens = ParticleEnsemble(np.zeros((n, 1)), np.full(n, 1.0 / n))
    moved = propagate(ens, cfg, np.random.default_rng(5))
    assert 0.9e-5 <= float(np.var(moved.particles)) <= 1.1e-5


def test_propagate_tiny_variance_is_near_identity():
    cfg = FilterConfig(particles=100, process_var=1e-30, seed=6)
    ens = init_ensemble(np.array([1.0]), cfg, np.random.default_rng(cfg.seed))
    moved = propagate(ens, cfg, np.random.default_rng(cfg.seed))
    assert np.allclose(moved.particles, ens.particles, atol=1e-12)
    assert np.array_equal(moved.weights, ens.weights)


@pytest.mark.parametrize("step", [init_ensemble, propagate, resample])
def test_random_steps_take_the_callers_generator(step):
    """No step re-seeds a generator of its own from ``cfg.seed``."""
    cfg = FilterConfig(particles=4)
    ens = ParticleEnsemble(np.full((4, 1), 0.5), np.full(4, 0.25))
    with pytest.raises(TypeError):
        step(np.array([0.5]) if step is init_ensemble else ens, cfg)


def test_propagate_mean_drift_bound():
    cfg = FilterConfig(particles=500, process_var=1e-5, seed=7)
    ens = init_ensemble(np.array([1.0]), cfg, np.random.default_rng(cfg.seed))
    moved = propagate(ens, cfg, np.random.default_rng(7))
    drift = abs(float(moved.particles.mean() - ens.particles.mean()))
    assert drift <= 4.0 * np.sqrt(cfg.process_var / cfg.particles)


# ---------------------------------------------------------------------------
# weighting

def test_identical_particles_get_uniform_weights():
    obs, law = _observations()
    cfg = FilterConfig(particles=20, seed=8)
    ens = ParticleEnsemble(np.full((20, 1), 0.5), np.full(20, 0.05))
    out = reweight(
        ens, obs.states[0], obs.states[1], law, cfg,
        float(obs.times[1] - obs.times[0]), obs.grid,
        discrete_l2(obs.states[0], obs.grid.dx),
    )
    assert np.allclose(out.weights, 1.0 / 20)
    assert abs(out.weights.sum() - 1.0) <= 1e-12


def test_weight_ratio_matches_gaussian_likelihood():
    r, eps = 0.013, 0.031
    w = weights_from_sq_residuals(np.array([r**2, (2 * r) ** 2]), eps)
    expected_ratio = np.exp(3.0 * r**2 / (2.0 * eps**2))
    assert w[0] / w[1] == pytest.approx(expected_ratio, rel=1e-12)


def test_weights_sum_to_one_and_failures_get_zero():
    w = weights_from_sq_residuals(np.array([0.1, np.inf, 0.2]), 0.5)
    assert abs(w.sum() - 1.0) <= 1e-12
    assert w[1] == 0.0


def test_failures_get_zero_when_the_noise_scale_squared_overflows():
    assert np.array_equal(weights_from_sq_residuals(np.array([0.1, np.inf]), 1e200), [1.0, 0.0])
    assert np.array_equal(weights_from_sq_residuals(np.array([0.1, 0.2]), 1e200), [0.5, 0.5])


def test_all_failures_raise():
    with pytest.raises(AllWeightsDegenerate):
        weights_from_sq_residuals(np.array([np.inf, np.inf]), 0.5)


def test_true_coefficient_outweighs_offset_particle():
    obs, law = _observations(seed=9)
    cfg = FilterConfig(particles=2, seed=9)
    ens = ParticleEnsemble(np.array([[0.5], [0.55]]), np.array([0.5, 0.5]))
    out = reweight(
        ens, obs.states[4], obs.states[5], law, cfg,
        float(obs.times[5] - obs.times[4]), obs.grid,
        discrete_l2(obs.states[0], obs.grid.dx),
    )
    assert out.weights[0] > out.weights[1]


def test_negative_viscosity_particles_are_rejected():
    obs, law = _observations(family="burgers", q1=0.5, q2=0.05)
    cfg = FilterConfig(particles=3, seed=10)
    ens = ParticleEnsemble(
        np.array([[0.5, 0.05], [0.5, -0.01], [0.5, 0.04]]), np.full(3, 1 / 3)
    )
    out = reweight(
        ens, obs.states[0], obs.states[1], law, cfg,
        float(obs.times[1] - obs.times[0]), obs.grid,
        discrete_l2(obs.states[0], obs.grid.dx),
    )
    assert out.weights[1] == 0.0
    assert out.weights[0] > 0.0 and out.weights[2] > 0.0


def test_batched_advance_matches_scalar_solver_bitwise():
    """Every row of a batch equals that row advanced alone, which is the
    one-row path ``solve`` takes; a failing row disturbs none of the others."""
    obs, _ = _observations(family="cl_sine", q1=1.0, q2=0.05)
    u0, dt, grid = obs.states[0], 1 / 31, obs.grid
    rng = np.random.default_rng(11)
    q1 = rng.uniform(0.9, 1.1, 25)
    q2 = rng.uniform(0.04, 0.06, 25)
    mixed = q2.copy()
    mixed[::3] = 0.0
    with_inf = q1.copy()
    with_inf[7] = np.inf
    for q1s, q2s in ((q1, q2), (q1, mixed), (with_inf, mixed)):
        states, ok = advance_ensemble("sine", q1s, q2s, u0, dt, grid)
        assert ok.tolist() == np.isfinite(q1s).tolist()
        for i in range(q1s.size):
            solo, solo_ok = advance_ensemble(
                "sine", q1s[i : i + 1], q2s[i : i + 1], u0, dt, grid
            )
            assert solo_ok[0] == ok[i]
            if ok[i]:
                assert np.array_equal(states[i], solo[0])
                assert states[i].tobytes() == solo[0].tobytes()
    traj = solve(ConservationLaw("sine", q1[0], q2[0]), u0, grid, dt, 2)
    batch = advance_ensemble("sine", q1, q2, u0, dt, grid)[0][0]
    assert np.array_equal(traj.values[1], batch)
    assert traj.values[1].tobytes() == batch.tobytes()


@pytest.mark.parametrize("flux_kind", sorted(solver.FLUXES))
def test_split_batch_matches_rows_advanced_alone(flux_kind, monkeypatch):
    """A batch split across worker threads gives every row the bits and the
    ``ok`` flag of that row advanced alone, with failing rows in the first
    and the last block. Each row starts from its own copy of the state, so
    no two rows share a march and every live row counts toward the split."""
    family = {"quadratic": "burgers", "cubic": "cl_cubic", "sine": "cl_sine"}[flux_kind]
    obs, law = _observations(family=family, q1=FAMILIES[family].q1, q2=0.05)
    monkeypatch.setattr(solver, "_cores", lambda: 2)
    blocks = []
    advance_rows = solver._advance_rows

    def recording(flux, fc, *rest):
        blocks.append((fc.size, threading.current_thread() is threading.main_thread()))
        advance_rows(flux, fc, *rest)

    monkeypatch.setattr(solver, "_advance_rows", recording)
    u0, dt, grid = obs.states[0], 1 / 124, obs.grid
    rng = np.random.default_rng(21)
    q1 = law.q1 * rng.uniform(0.9, 1.1, 301)
    q2 = rng.uniform(0.04, 0.06, 301)
    q2[::3] = 0.0
    q1[[0, 300]] = [np.inf, np.nan]  # inviscid: frozen before any march
    q1[[4, 296]] = [np.nan, np.inf]  # viscous: fail at their block's first substep
    q1[[1, 299]] = 0.0  # no wave speed: a zero divisor in every step limit
    q2[[2, 298]] = -5.0  # never diffused, whether or not its block is viscous
    states, ok = advance_ensemble(flux_kind, q1, q2, np.tile(u0, (301, 1)), dt, grid)
    assert sorted(blocks) == [(149, False), (150, False)]
    expected_ok = np.isfinite(q1)
    for i in range(q1.size):
        solo, solo_ok = advance_ensemble(flux_kind, q1[i : i + 1], q2[i : i + 1], u0, dt, grid)
        assert solo_ok[0] == ok[i] == expected_ok[i]
        assert np.array_equal(states[i], solo[0], equal_nan=True)
        assert states[i].tobytes() == solo[0].tobytes()
    assert blocks[2:] == [(1, True)] * (q1.size - 2)


def test_more_blocks_than_cores_write_their_rows_alone():
    """Four worker blocks on two cores, switching threads every microsecond,
    write into one shared output, over one interval or a schedule of four
    frames: every row keeps the bits and the ``ok`` flag of the same batch
    run as one block."""
    obs, law = _observations(family="burgers", q1=0.5, q2=0.05)
    rng = np.random.default_rng(8)
    q1 = 0.5 * rng.uniform(0.9, 1.1, 600)
    q2 = rng.uniform(0.04, 0.06, 600)
    q2[::4] = 0.0
    q1[[1, 151, 301, 451]] = np.nan  # one failure per block
    u0 = np.tile(obs.states[0], (600, 1))
    dt, grid = 1 / 124, obs.grid
    cores = solver._cores
    interval = sys.getswitchinterval()
    try:
        solver._cores = lambda: 1
        one, one_ok = advance_ensemble("quadratic", q1, q2, u0, dt, grid)
        _, one_frames, one_frames_ok = solve_ensemble("quadratic", q1, q2, u0, grid, 4 * dt, 5)
        solver._cores = lambda: 4
        sys.setswitchinterval(1e-6)
        four, four_ok = advance_ensemble("quadratic", q1, q2, u0, dt, grid)
        _, four_frames, four_frames_ok = solve_ensemble("quadratic", q1, q2, u0, grid, 4 * dt, 5)
    finally:
        solver._cores = cores
        sys.setswitchinterval(interval)
    assert four_ok.tolist() == one_ok.tolist() == np.isfinite(q1).tolist()
    assert four.tobytes() == one.tobytes()
    assert four_frames_ok.tolist() == one_frames_ok.tolist() == one_ok.tolist()
    assert four_frames.tobytes() == one_frames.tobytes()


@pytest.mark.parametrize("family", ["inviscid_burgers", "icl_cubic", "icl_sine"])
def test_generating_particle_reproduces_each_frame_in_a_full_batch(family):
    """A particle carrying the coefficient that generated noise-free data
    reproduces ``solve``'s next frame bit for bit inside a 500-particle
    inviscid batch, which marches once per sign of ``q1``."""
    obs, law = _observations(family=family, q1=FAMILIES[family].q1)
    rng = np.random.default_rng(4)
    q1 = law.q1 * rng.uniform(0.9, 1.1, 500)
    q1[[17, 250]] = law.q1
    q1[300:] *= -1.0
    for k in (1, 5, 10):
        dt = float(obs.times[k] - obs.times[k - 1])
        states, ok = advance_ensemble(law.flux_kind, q1, np.zeros(500), obs.states[k - 1],
                                      dt, obs.grid)
        assert ok.all()
        for i in (17, 250):
            assert states[i].tobytes() == obs.states[k].tobytes()
    # the same particle through the filter's reweight: residual zero, top weight
    ens = ParticleEnsemble(q1[:, None], np.full(500, 1 / 500))
    ref = discrete_l2(obs.states[0], obs.grid.dx)
    out = reweight(ens, obs.states[0], obs.states[1], law, FilterConfig(), float(obs.times[1]),
                   obs.grid, ref)
    assert out.weights[17] == out.weights[250] == out.weights.max()


# ---------------------------------------------------------------------------
# resampling

def test_point_mass_resamples_to_copies():
    cfg = FilterConfig(particles=64, seed=12)
    particles = np.arange(64, dtype=float).reshape(-1, 1)
    weights = np.zeros(64)
    weights[17] = 1.0
    out = resample(ParticleEnsemble(particles, weights), cfg, np.random.default_rng(cfg.seed))
    assert np.all(out.particles == 17.0)
    assert np.allclose(out.weights, 1.0 / 64)


def test_resampling_multiplicity_within_binomial_bounds():
    cfg = FilterConfig(particles=10_000, seed=13)
    particles = np.array([[0.0], [1.0]]).repeat(5000, axis=0)[:10_000]
    particles = np.vstack([np.zeros((1, 1)), np.ones((9999, 1))])
    weights = np.concatenate([[0.75], np.full(9999, 0.25 / 9999)])
    out = resample(ParticleEnsemble(particles, weights), cfg, np.random.default_rng(cfg.seed))
    count = int(np.sum(out.particles == 0.0))
    assert 7350 <= count <= 7650


def test_uniform_resampling_preserves_mean_within_clt_bound():
    cfg = FilterConfig(particles=4000, seed=14)
    ens = init_ensemble(np.array([1.0]), cfg, np.random.default_rng(14))
    out = resample(ens, cfg, np.random.default_rng(15))
    sigma = float(ens.particles.std())
    bound = 4.0 * sigma / np.sqrt(cfg.particles)
    assert abs(float(out.particles.mean() - ens.particles.mean())) <= bound


# ---------------------------------------------------------------------------
# full refinement

def test_refine_noise_floor_with_exact_initial_guess():
    obs, law = _observations(seed=16)
    cfg = FilterConfig(seed=16)
    result = refine(np.array([0.5]), obs, law, cfg)
    assert abs(result.alpha[0] - 0.5) <= 5.0 * np.sqrt(cfg.steps * cfg.process_var)
    assert result.ess.shape == (10,)
    assert np.all(result.ess >= 1.0) and np.all(result.ess <= cfg.particles)


def test_refine_is_deterministic():
    obs, law = _observations(seed=17)
    cfg = FilterConfig(seed=17)
    a = refine(np.array([0.52]), obs, law, cfg)
    b = refine(np.array([0.52]), obs, law, cfg)
    assert np.array_equal(a.alpha, b.alpha)
    assert np.array_equal(a.ess, b.ess)


def test_refine_requires_enough_frames():
    obs, law = _observations(frames=5)
    with pytest.raises(ValueError):
        refine(np.array([0.5]), obs, law, FilterConfig(steps=10))


def test_posterior_contraction_over_seeds():
    exceptions = 0
    for seed in range(20):
        obs, law = _observations(seed=100 + seed)
        cfg = FilterConfig(particles=200, seed=seed)
        result = refine(np.array([0.525]), obs, law, cfg)
        initial_std = 0.2 * 0.525 / np.sqrt(12.0)
        if float(result.spread[-1, 0]) > initial_std:
            exceptions += 1
    assert exceptions <= 2


def test_refine_reduces_coefficient_error_on_average():
    gains = []
    for seed in range(5):
        obs, law = _observations(seed=200 + seed)
        alpha0 = 0.5 * 1.05
        cfg = FilterConfig(particles=300, seed=seed)
        result = refine(np.array([alpha0]), obs, law, cfg)
        gains.append(abs(result.alpha[0] - 0.5) < abs(alpha0 - 0.5))
    assert sum(gains) >= 4


def test_config_validation():
    with pytest.raises(ValueError):
        FilterConfig(particles=1)
    with pytest.raises(ValueError):
        FilterConfig(steps=0)
    with pytest.raises(ValueError):
        FilterConfig(process_var=0.0)
    for field in ("process_var", "obs_scale"):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=field):
                FilterConfig(**{field: value})


def test_observation_seq_validation():
    grid = grid_for(FAMILIES["burgers"])
    with pytest.raises(ValueError):
        ObservationSeq(np.array([0.0]), np.zeros((1, 128)), grid)
    with pytest.raises(ValueError):
        ObservationSeq(np.array([0.0, 0.0]), np.zeros((2, 128)), grid)
    with pytest.raises(ValueError, match="shape"):
        ObservationSeq(np.array([0.0, 1.0]), np.zeros((2, 64)), grid)
