"""Sequential Monte Carlo refinement of conservation-law coefficients.

The filter tracks an ensemble of coefficient vectors. Each refinement step
is propagate -> reweight -> resample:

* propagate adds zero-mean Gaussian process noise (variance
  ``process_var``) to every coordinate;
* reweight simulates each particle one observation interval forward with
  ``solver.advance_ensemble``, the integrator ``solve`` uses. All particles
  start from the observed frame, so inviscid ones of one sign march once in
  rescaled time and each leaves the march where its own interval ends; a
  particle carrying the coefficients that generated noise-free data still
  reproduces each frame bit for bit. It scores each particle against the
  observed frame under the observation model ``u_obs = H(alpha, u_prev) +
  sigma`` with iid per-point Gaussian noise of scale
  ``eps = obs_scale * ||u(., t=0)||_2``, so
  ``log w_i = -sum_j (u_obs_j - u_hat_ij)^2 / (2 eps^2)``;
* resample draws M particles from the weighted empirical CDF
  (multinomial, inverse-CDF), restoring uniform weights.

Every draw comes from the one generator ``refine`` seeds with
``cfg.seed``; ``init_ensemble``, ``propagate`` and ``resample`` take it as
their ``rng``. After the configured number of steps the unweighted
ensemble mean is the refined coefficient vector. One-coefficient laws
refine q1; two-coefficient laws refine (q1, q2) jointly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllWeightsDegenerate, ZeroCoefficient
from .solver import ConservationLaw, Grid1D, SpaceTimeField, advance_ensemble

INIT_REL_HALFWIDTH = 0.1  # the initial cloud spans alpha0 * (1 -/+ this)


@dataclass
class FilterConfig:
    particles: int = 500
    steps: int = 10
    process_var: float = 1e-5
    obs_scale: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.particles < 2:
            raise ValueError("particles must be >= 2")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not 0.0 < self.process_var < np.inf:
            raise ValueError("process_var must be positive and finite")
        if not 0.0 < self.obs_scale < np.inf:
            raise ValueError("obs_scale must be positive and finite")


@dataclass
class ParticleEnsemble:
    """M coefficient vectors with normalized importance weights."""

    particles: np.ndarray  # (M, d)
    weights: np.ndarray  # (M,)

    @property
    def size(self) -> int:
        return self.particles.shape[0]

    def mean(self) -> np.ndarray:
        return self.particles.mean(axis=0)


@dataclass
class ObservationSeq:
    """Observed frames (timestamp, state) on a fixed grid."""

    times: np.ndarray
    states: np.ndarray
    grid: Grid1D

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.states.shape != (self.times.size, self.grid.nx):
            raise ValueError("states must have shape (n_frames, nx)")
        if self.times.size < 2 or not np.all(np.diff(self.times) > 0):
            raise ValueError("need >= 2 frames with strictly increasing times")

    @classmethod
    def from_field(cls, field: SpaceTimeField, n_frames: int):
        return cls(field.times[:n_frames].copy(), field.values[:n_frames].copy(), field.grid)


@dataclass
class RefineResult:
    alpha: np.ndarray
    ess: np.ndarray  # effective sample size 1/sum(p^2) per step
    spread: np.ndarray  # post-resample ensemble std per step, (steps, d)


def discrete_l2(u: np.ndarray, dx: float) -> float:
    """sqrt(sum(u^2) * dx)."""
    with np.errstate(over="ignore"):  # an overflowing norm is inf, not a warning
        return float(np.sqrt(np.sum(u * u) * dx))


def init_ensemble(alpha0, cfg: FilterConfig, rng) -> ParticleEnsemble:
    """Uniform cloud on [(1-h) a0_j, (1+h) a0_j] per coordinate, with
    ``h = INIT_REL_HALFWIDTH``, drawn from ``rng``. ``alpha0`` must hold one
    or two finite coefficients; anything else raises ``ValueError``."""
    alpha0 = np.atleast_1d(np.asarray(alpha0, dtype=float))
    if alpha0.ndim != 1 or not 1 <= alpha0.size <= 2:
        raise ValueError(f"alpha0 must hold one or two coefficients, got {alpha0.size}")
    if not np.all(np.isfinite(alpha0)):
        raise ValueError("alpha0 must be finite")
    if np.any(alpha0 == 0.0):
        raise ZeroCoefficient(
            "relative initialization interval degenerates for a zero coefficient"
        )
    a, b = (1.0 - INIT_REL_HALFWIDTH) * alpha0, (1.0 + INIT_REL_HALFWIDTH) * alpha0
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    particles = rng.uniform(lo, hi, size=(cfg.particles, alpha0.size))
    weights = np.full(cfg.particles, 1.0 / cfg.particles)
    return ParticleEnsemble(particles, weights)


def propagate(ens: ParticleEnsemble, cfg: FilterConfig, rng) -> ParticleEnsemble:
    """Add N(0, process_var) noise to every coordinate; weights unchanged."""
    noise = rng.normal(0.0, np.sqrt(cfg.process_var), size=ens.particles.shape)
    return ParticleEnsemble(ens.particles + noise, ens.weights.copy())


def _coefficient_arrays(particles: np.ndarray, template: ConservationLaw):
    """Per-particle (q1, q2, valid): 1-D particles refine q1 only, 2-D
    particles refine (q1, q2) jointly. Negative viscosity is invalid."""
    q1 = particles[:, 0].astype(float)
    if particles.shape[1] == 1:
        q2 = np.full(particles.shape[0], template.q2)
    else:
        q2 = particles[:, 1].astype(float)
    valid = np.all(np.isfinite(particles), axis=1) & (q2 >= 0.0)
    return q1, q2, valid


def weights_from_sq_residuals(sq_residuals: np.ndarray, eps: float) -> np.ndarray:
    """Normalized softmax of -r^2/(2 eps^2); infinite entries get weight zero.

    Their log weight is set to -inf directly, so an overflowing eps^2 (where
    inf / inf would be NaN) still leaves the finite entries their weights.
    """
    sq = np.asarray(sq_residuals, dtype=float)
    logw = np.full(sq.shape, -np.inf)
    live = sq != np.inf
    logw[live] = -sq[live] / (2.0 * eps * eps)
    m = np.max(logw)
    if not np.isfinite(m):
        raise AllWeightsDegenerate("no particle produced a finite simulation")
    w = np.exp(logw - m)
    return w / np.sum(w)


def reweight(ens: ParticleEnsemble, u_prev: np.ndarray, u_obs: np.ndarray,
             law_template: ConservationLaw, cfg: FilterConfig, dt_obs: float,
             grid: Grid1D, ref_norm: float) -> ParticleEnsemble:
    """Score every particle against one observed transition.

    Each particle's coefficients are substituted into the law template and
    advanced from ``u_prev`` over ``dt_obs``; ``ref_norm`` is the discrete
    L2 norm of the initial frame, fixing ``eps = obs_scale * ref_norm``.
    Particles whose simulation blows up receive weight zero. When none has
    a finite squared residual, :class:`AllWeightsDegenerate` names the
    cause: no finite simulation, or only residuals that overflowed.
    """
    eps = cfg.obs_scale * ref_norm
    if eps <= 0.0:
        raise ZeroCoefficient("observation noise scale vanishes (zero initial norm)")
    sq = np.full(ens.size, np.inf)
    q1, q2, valid = _coefficient_arrays(ens.particles, law_template)
    idx = np.flatnonzero(valid)
    if idx.size:
        states, ok = advance_ensemble(
            law_template.flux_kind, q1[idx], q2[idx], u_prev, dt_obs, grid
        )
        with np.errstate(over="ignore"):  # a residual that overflows is inf
            diff = u_obs[None, :] - states[ok]
            sq[idx[ok]] = np.sum(diff * diff, axis=1)
        if ok.any() and np.isinf(sq).all():
            raise AllWeightsDegenerate("every finite simulation's squared residual overflowed")
    weights = weights_from_sq_residuals(sq, eps)
    return ParticleEnsemble(ens.particles.copy(), weights)


def resample(ens: ParticleEnsemble, cfg: FilterConfig, rng) -> ParticleEnsemble:
    """Multinomial resampling through the weighted empirical CDF."""
    cdf = np.cumsum(ens.weights)
    cdf[-1] = 1.0
    idx = np.searchsorted(cdf, rng.random(ens.size), side="right")
    idx = np.minimum(idx, ens.size - 1)
    particles = ens.particles[idx].copy()
    weights = np.full(ens.size, 1.0 / ens.size)
    return ParticleEnsemble(particles, weights)


def refine(alpha0, obs: ObservationSeq, law_template: ConservationLaw,
           cfg: FilterConfig) -> RefineResult:
    """Run the full propagate/reweight/resample loop and return the mean.

    Consumes observation frames 0..steps consecutively; requires at least
    ``steps + 1`` frames.
    """
    alpha0 = np.atleast_1d(np.asarray(alpha0, dtype=float))
    if obs.times.size < cfg.steps + 1:
        raise ValueError(
            f"need at least steps+1={cfg.steps + 1} frames, got {obs.times.size}"
        )
    rng = np.random.default_rng(cfg.seed)
    ens = init_ensemble(alpha0, cfg, rng)
    ref_norm = discrete_l2(obs.states[0], obs.grid.dx)
    ess = np.empty(cfg.steps)
    spread = np.empty((cfg.steps, alpha0.size))
    for k in range(1, cfg.steps + 1):
        ens = propagate(ens, cfg, rng)
        ens = reweight(
            ens,
            obs.states[k - 1],
            obs.states[k],
            law_template,
            cfg,
            float(obs.times[k] - obs.times[k - 1]),
            obs.grid,
            ref_norm,
        )
        ess[k - 1] = 1.0 / float(np.sum(ens.weights**2))
        ens = resample(ens, cfg, rng)
        spread[k - 1] = ens.particles.std(axis=0)
    return RefineResult(alpha=ens.mean(), ess=ess, spread=spread)
