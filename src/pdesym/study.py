"""End-to-end refinement study: symbolic and time-series errors for
coefficient estimates with and without particle-filter refinement.

Per family and trial: draw jittered true coefficients and a random initial
condition, solve for the reference trajectory, offset the coefficients by
a fixed relative error (random sign per coordinate) to emulate an imperfect
decoder estimate, refine that estimate against the first ``steps + 1``
observed frames, and score both the raw and the refined equation.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .datagen import (
    FAMILIES,
    check_families,
    coeff_vector,
    equation_for,
    equation_from_vector,
    grid_for,
    law_for,
    sample_ic,
    sample_params,
)
from .metrics import symbolic_error, time_series_error
from .smc import FilterConfig, ObservationSeq, refine
from .solver import solve

#: families covered by the with/without-refinement comparison study
STUDY_FAMILIES = ("burgers", "inviscid_burgers", "cl_cubic", "icl_cubic", "icl_sine")


@dataclass
class StudyRow:
    family: str
    trials: int
    symbolic_without: float
    symbolic_with: float
    timeseries_without: float
    timeseries_with: float


def run_trial(family: str, trial_seed, coeff_error: float, cfg: FilterConfig):
    """One trial; returns (sym_without, sym_with, ts_without, ts_with)."""
    spec = FAMILIES[family]
    seq = np.random.SeedSequence(trial_seed)
    rng_param, rng_ic, rng_sign, rng_metric = (
        np.random.default_rng(s) for s in seq.spawn(4)
    )
    q1, q2 = sample_params(spec, rng_param)
    u0 = sample_ic(spec, rng_ic)
    grid = grid_for(spec)
    law = law_for(spec, q1, q2)
    truth_traj = solve(law, u0, grid, spec.t_f, spec.nt)

    alpha_true = coeff_vector(q1, q2)
    signs = rng_sign.choice([-1.0, 1.0], size=alpha_true.size)
    alpha0 = alpha_true * (1.0 + coeff_error * signs)

    obs = ObservationSeq.from_field(truth_traj, n_frames=cfg.steps + 1)
    trial_cfg = replace(cfg, seed=int(rng_metric.integers(2**63)))
    result = refine(alpha0, obs, law, trial_cfg)

    eq_true = equation_for(spec, q1, q2)
    eq_without = equation_from_vector(spec, alpha0)
    eq_with = equation_from_vector(spec, result.alpha)

    metric_seed = int(rng_metric.integers(2**63))
    sym_without = symbolic_error(eq_without, eq_true, seed=metric_seed)
    sym_with = symbolic_error(eq_with, eq_true, seed=metric_seed)
    ts_without = time_series_error(eq_without, u0, truth_traj)
    ts_with = time_series_error(eq_with, u0, truth_traj)
    return sym_without, sym_with, ts_without, ts_with


def run_study(families=STUDY_FAMILIES, trials: int = 20, coeff_error: float = 0.03,
              seed: int = 0, filter_config: FilterConfig | None = None) -> list[StudyRow]:
    """One row of mean errors per family, over ``trials`` trials each."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    check_families(families)
    cfg = filter_config if filter_config is not None else FilterConfig()
    rows = []
    for fam_idx, family in enumerate(families):
        sums = np.zeros(4)
        for trial in range(trials):
            sums += run_trial(family, (seed, fam_idx, trial), coeff_error, cfg)
        means = sums / trials
        rows.append(
            StudyRow(
                family=family,
                trials=trials,
                symbolic_without=float(means[0]),
                symbolic_with=float(means[1]),
                timeseries_without=float(means[2]),
                timeseries_with=float(means[3]),
            )
        )
    return rows
