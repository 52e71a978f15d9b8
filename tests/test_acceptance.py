"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured quantities. Run with ``pytest -s`` to see
the report; the heavier criteria (5 and 6) take a few minutes."""
import json
import time

import numpy as np
import pytest

from pdesym.cli import main as cli_main
from pdesym.datagen import (
    FAMILIES,
    equation_for,
    grid_for,
    law_for,
    sample_ic,
    sample_params,
)
from pdesym.expr import (
    Binary,
    Const,
    Equation,
    Int,
    Unary,
    Var,
    parse_infix,
)
from pdesym.metrics import r2_score, symbolic_error, valid_fraction
from pdesym.perturb import PerturbConfig, swap_branches
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
)
from pdesym.solver import ConservationLaw, Grid1D, solve
from pdesym.study import STUDY_FAMILIES, run_study
from pdesym.tokens import Dialect, TokenSeq, to_canonical_tokens, to_manual_tokens


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------

def test_criterion_1_canonical_order_invariance():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    failures = 0
    total = 0
    for fam_idx, spec in enumerate(FAMILIES.values()):
        for i in range(1000):
            q1, q2 = sample_params(spec, rng)
            eq = equation_for(spec, q1, q2)
            base = to_canonical_tokens(eq).tokens
            cfg = PerturbConfig(swap_prob=0.5, seed=fam_idx * 100_000 + i)
            perturbed = swap_branches(eq, cfg)
            if to_canonical_tokens(perturbed).tokens != base:
                failures += 1
            total += 1
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1 (order invariance)",
        failures == 0 and elapsed < 10.0,
        f"{total - failures}/{total} identical canonical sequences, {elapsed:.2f}s",
    )


def test_criterion_2_reordered_sum_tokens_match():
    a = to_canonical_tokens(parse_infix("x - 1 + 1 + y"))
    b = to_canonical_tokens(parse_infix("y + x"))
    _report(
        "criterion 2 (x-1+1+y vs y+x)",
        a.tokens == b.tokens,
        f"{a.text!r} == {b.text!r}",
    )


def test_criterion_3_token_golden_sequences():
    tree = Binary(
        "add",
        Unary("cos", Binary("mul", Const(1.5), Var("x_1"))),
        Binary("sub", Binary("pow", Var("x_2"), Int(2)), Const(2.6)),
    )
    manual = list(to_manual_tokens(tree).tokens)
    expected = ["+", "cos", "×", "1.5", "x_1", "-", "pow", "x_2", "2", "2.6"]
    kdv = to_canonical_tokens(parse_infix("u*u_x + u_t + 0.0484*u_xxx = 0")).text
    ok = manual == expected and "∂ ( u(x,t) , ( x , 3 ) )" in kdv
    _report(
        "criterion 3 (token golden tests)",
        ok,
        f"manual={' '.join(manual)} | kdv contains third-order group",
    )


def test_criterion_4_conservation_and_convergence():
    start = time.perf_counter()
    worst = 0.0
    for name in ("inviscid_burgers", "icl_cubic", "icl_sine"):
        spec = FAMILIES[name]
        grid = grid_for(spec)
        u0 = sample_ic(spec, np.random.default_rng(17))
        law = law_for(spec, spec.q1, 0.0)
        field = solve(law, u0, grid, spec.t_f, spec.nt)
        mass0 = np.sum(u0) * grid.dx
        drift = np.max(np.abs(np.sum(field.values, axis=1) * grid.dx - mass0))
        worst = max(worst, drift / (1.0 + abs(mass0)))
    conserved = worst <= 1e-12

    law = ConservationLaw("quadratic", 0.5, 0.05)
    solutions = {}
    for nx in (128, 256, 512, 1024):
        grid = Grid1D(nx=nx, dx=1.0 / nx)
        u0 = np.sin(2 * np.pi * grid.cells())
        solutions[nx] = solve(law, u0, grid, 0.05, 2).values[-1]
    orders = []
    errors = {}
    for nx in (128, 256, 512):
        ref = solutions[1024].reshape(nx, -1).mean(axis=1)
        errors[nx] = np.linalg.norm(solutions[nx] - ref) / np.sqrt(nx)
    orders = [
        np.log2(errors[128] / errors[256]),
        np.log2(errors[256] / errors[512]),
    ]
    elapsed = time.perf_counter() - start
    _report(
        "criterion 4 (conservation + convergence)",
        conserved and min(orders) >= 0.9 and elapsed < 60.0,
        f"mass drift {worst:.2e}, orders {orders[0]:.2f}/{orders[1]:.2f}, {elapsed:.1f}s",
    )


def _likelihood_grid_search(obs, law, alpha0: float, n: int = 2001) -> float:
    """Brute-force coefficient estimate: exhaustive search of the data
    misfit of chained forward simulations from the initial frame. The
    first interval starts every row from the one shared frame, so its rows
    march once; each row's bits are those of its own start."""
    qs = np.linspace(0.9 * alpha0, 1.1 * alpha0, n)
    q2 = np.zeros(n)
    states = obs.states[0]
    loss = np.zeros(n)
    for k in range(1, obs.times.size):
        states, ok = advance_ensemble(
            law.flux_kind, qs, q2, states, float(obs.times[k] - obs.times[k - 1]),
            obs.grid,
        )
        diff = obs.states[k][None, :] - states
        loss += np.sum(diff * diff, axis=1)
        loss[~ok] = np.inf
    return float(qs[np.argmin(loss)])


def test_criterion_5_filter_recovery_with_oracle():
    start = time.perf_counter()
    spec = FAMILIES["inviscid_burgers"]
    grid = grid_for(spec)
    q_true = 0.5
    law = law_for(spec, q_true, 0.0)
    alpha0 = 1.05 * q_true
    rel_errors = []
    oracle_gaps = []
    for trial in range(50):
        u0 = sample_ic(spec, np.random.default_rng(1000 + trial))
        traj = solve(law, u0, grid, spec.t_f, spec.nt)
        obs = ObservationSeq.from_field(traj, n_frames=11)
        cfg = FilterConfig(
            particles=500, steps=10, process_var=1e-5, obs_scale=0.05, seed=trial
        )
        result = refine(np.array([alpha0]), obs, law, cfg)
        rel_errors.append(abs(result.alpha[0] - q_true) / q_true)
        oracle = _likelihood_grid_search(obs, law, alpha0)
        oracle_gaps.append(abs(result.alpha[0] - oracle))
    rel_errors = np.array(rel_errors)
    oracle_gaps = np.array(oracle_gaps)
    n_good = int(np.sum(rel_errors < 0.02))
    oracle_ok = bool(np.max(oracle_gaps) <= 0.01 * q_true)
    elapsed = time.perf_counter() - start
    _report(
        "criterion 5 (filter recovery)",
        n_good >= 45 and oracle_ok and elapsed < 300.0,
        f"{n_good}/50 trials < 2% (median {np.median(rel_errors):.4f}), "
        f"max |refine - grid search| = {np.max(oracle_gaps):.5f} "
        f"(bound {0.01 * q_true}), {elapsed:.0f}s",
    )


def test_criterion_6_refinement_improves_both_error_metrics():
    start = time.perf_counter()
    rows = run_study(families=STUDY_FAMILIES, trials=20, coeff_error=0.03, seed=0)
    lines = []
    ok = True
    for row in rows:
        sym_ok = row.symbolic_with < row.symbolic_without
        ts_ok = row.timeseries_with < row.timeseries_without
        ok = ok and sym_ok and ts_ok
        lines.append(
            f"{row.family}: sym {row.symbolic_without:.4f}->{row.symbolic_with:.4f}, "
            f"ts {row.timeseries_without:.4f}->{row.timeseries_with:.4f}"
        )
    elapsed = time.perf_counter() - start
    _report(
        "criterion 6 (directional refinement gains)",
        ok and elapsed < 1800.0,
        "; ".join(lines) + f"; {elapsed:.0f}s",
    )


def test_criterion_7_metric_identities():
    rng = np.random.default_rng(3)
    targets = [rng.normal(size=(6, 7)) for _ in range(4)]
    r2_perfect = r2_score(targets, targets)
    r2_mean = r2_score(targets, [np.full_like(u, np.mean(u)) for u in targets])

    eq = parse_infix("u_t + 0.7*(u^2)_x = 0")
    sym_self = symbolic_error(eq, eq)

    spec = FAMILIES["inviscid_burgers"]
    truth = equation_for(spec, 1.0, 0.0)
    good = to_canonical_tokens(truth)
    truncated = TokenSeq(Dialect.CANONICAL, good.tokens[:5])
    doubled = to_canonical_tokens(Equation(Binary("mul", Const(2.0), truth.residual)))
    fraction = valid_fraction(
        [good] * 7 + [truncated] * 2 + [doubled], [truth] * 10
    )
    ok = (
        r2_perfect == 1.0
        and r2_mean == 0.0
        and sym_self == 0.0
        and fraction == pytest.approx(0.7)
    )
    _report(
        "criterion 7 (metric identities)",
        ok,
        f"r2(perfect)={r2_perfect}, r2(mean)={r2_mean}, sym(e,e)={sym_self}, "
        f"valid_fraction={fraction}",
    )


def test_criterion_8_resampling_statistics():
    cfg = FilterConfig(particles=10_000, seed=8)
    particles = np.vstack([np.zeros((1, 1)), np.ones((9999, 1))])
    weights = np.concatenate([[0.75], np.full(9999, 0.25 / 9999)])
    out = resample(ParticleEnsemble(particles, weights), cfg, np.random.default_rng(cfg.seed))
    count = int(np.sum(out.particles == 0.0))

    spec = FAMILIES["inviscid_burgers"]
    grid = grid_for(spec)
    law = law_for(spec, 0.5, 0.0)
    u0 = sample_ic(spec, np.random.default_rng(88))
    traj = solve(law, u0, grid, spec.t_f, spec.nt)
    obs = ObservationSeq.from_field(traj, n_frames=11)
    fcfg = FilterConfig(particles=300, seed=88)
    rng = np.random.default_rng(fcfg.seed)
    ens = init_ensemble(np.array([0.52]), fcfg, rng)
    ref_norm = discrete_l2(obs.states[0], grid.dx)
    worst_sum_gap = 0.0
    for k in range(1, fcfg.steps + 1):
        ens = propagate(ens, fcfg, rng)
        ens = reweight(
            ens, obs.states[k - 1], obs.states[k], law, fcfg,
            float(obs.times[k] - obs.times[k - 1]), grid, ref_norm,
        )
        worst_sum_gap = max(worst_sum_gap, abs(float(ens.weights.sum()) - 1.0))
        ens = resample(ens, fcfg, rng)
    ok = 7350 <= count <= 7650 and worst_sum_gap <= 1e-12
    _report(
        "criterion 8 (resampling statistics)",
        ok,
        f"multiplicity {count} in [7350, 7650], worst |sum(p)-1| = {worst_sum_gap:.2e}",
    )


def test_criterion_9_byte_identical_reruns(tmp_path, capsys):
    def run(*argv):
        assert cli_main(list(argv)) == 0
        capsys.readouterr()

    # gen: full directory byte comparison
    for sub in ("d1", "d2"):
        run(
            "gen", "--out", str(tmp_path / sub), "--families",
            "inviscid_burgers,cl_sine", "--params", "2", "--ics", "1",
            "--seed", "3",
        )
    gen_ok = True
    names = sorted(p.name for p in (tmp_path / "d1").iterdir())
    for name in names:
        if (tmp_path / "d1" / name).read_bytes() != (tmp_path / "d2" / name).read_bytes():
            gen_ok = False

    # refine: identical artifacts
    index = json.loads((tmp_path / "d1" / "manifest.json").read_text())
    entry = index["entries"][0]
    refine_payloads = []
    for sub in ("r1.json", "r2.json"):
        run(
            "refine", "--equation", str(tmp_path / "d1" / entry["equation"]),
            "--observations", str(tmp_path / "d1" / entry["trajectory"]),
            "--particles", "120", "--steps", "4", "--seed", "6",
            "--output", str(tmp_path / sub),
        )
        payload = json.loads((tmp_path / sub).read_text())
        refine_payloads.append(json.dumps(payload, sort_keys=True))
    refine_ok = refine_payloads[0] == refine_payloads[1]

    # study: full byte comparison
    for sub in ("s1.json", "s2.json"):
        run(
            "study", "--families", "icl_sine", "--trials", "2",
            "--particles", "80", "--steps", "3", "--seed", "4",
            "--output", str(tmp_path / sub),
        )
    study_ok = (tmp_path / "s1.json").read_bytes() == (tmp_path / "s2.json").read_bytes()

    _report(
        "criterion 9 (deterministic re-runs)",
        gen_ok and refine_ok and study_ok,
        f"gen {len(names)} files identical={gen_ok}, refine identical={refine_ok}, "
        f"study identical={study_ok}",
    )
