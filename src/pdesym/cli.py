"""Command-line interface.

Subcommands: parse, canon, tokens, perturb, solve, gen, refine, eval,
study. Every command is deterministic given its flags, input files and
seed; JSON goes to stdout unless ``--output`` is given. Exit codes:
1 usage error, 2 data error, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
import time

import numpy as np

from . import datagen, metrics, perturb, smc, solver, study
from .canon import build, terms
from .errors import (
    AllWeightsDegenerate,
    CFLViolation,
    DecodeError,
    DegenerateReference,
    DivisionByZero,
    NonFiniteState,
    NotSolvable,
    ParseError,
    UnsupportedNode,
    ZeroCoefficient,
)
from .expr import parse_infix, to_infix
from .tokens import (
    Dialect,
    TokenSeq,
    canonical_tokens_of_terms,
    from_tokens,
    to_canonical_tokens,
    to_manual_tokens,
)

_DATA_ERRORS = (
    ParseError,
    DecodeError,
    UnsupportedNode,
    NotSolvable,
    DegenerateReference,
    FileNotFoundError,
    ValueError,
    KeyError,
    json.JSONDecodeError,
)
_NUMERIC_ERRORS = (
    CFLViolation,
    NonFiniteState,
    AllWeightsDegenerate,
    DivisionByZero,
    ZeroCoefficient,
)


class _UsageError(Exception):
    pass


# The library grammar requires explicit "*", but equations are often quoted
# with juxtaposition ("0.955 cos(u)u_x"). Insert the stars up front:
# digit->letter/paren (but not an exponent like 1e-3), ")"->operand (but not
# a derivative suffix like ")_x"), and whitespace-separated identifiers.
_JUXTA_RULES = (
    (re.compile(r"(?<=\d)\s*(?=(?![eE][-+]?\d)[A-Za-z(])"), "*"),
    (re.compile(r"(?<=\))\s*(?=[A-Za-z0-9(])(?!_)"), "*"),
    (re.compile(r"(?<=[A-Za-z_0-9])\s+(?=[A-Za-z])"), "*"),
)


def normalize_juxtaposition(src: str) -> str:
    for pattern, star in _JUXTA_RULES:
        src = pattern.sub(star, src)
    return src


def _parse_input(text: str):
    return parse_infix(normalize_juxtaposition(text))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _emit(args, payload) -> None:
    if args.format == "csv":
        text = _to_csv(payload)
    else:
        text = json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _to_csv(payload) -> str:
    rows = payload if isinstance(payload, list) else [payload]
    flat = []
    for row in rows:
        flat.append(
            {
                k: (" ".join(v) if isinstance(v, list) and all(isinstance(x, str) for x in v) else v)
                for k, v in row.items()
                if not isinstance(v, (dict,))
            }
        )
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(flat[0].keys()))
    writer.writeheader()
    writer.writerows(flat)
    return buf.getvalue()


def _tokens_payload(seq: TokenSeq) -> dict:
    return {"dialect": seq.dialect.value, "tokens": list(seq.tokens), "text": seq.text}


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_parse(args) -> None:
    eq = _parse_input(args.expr)
    payload = {
        "input": args.expr,
        "residual_infix": to_infix(eq.residual),
        "canonical": _tokens_payload(to_canonical_tokens(eq)),
    }
    try:
        payload["manual"] = _tokens_payload(to_manual_tokens(eq))
    except UnsupportedNode:
        payload["manual"] = None
    _emit(args, payload)


def _cmd_canon(args) -> None:
    ts = terms(_parse_input(args.expr).residual)
    payload = _tokens_payload(canonical_tokens_of_terms(ts))
    payload["canonical_infix"] = to_infix(build(ts))
    _emit(args, payload)


def _cmd_tokens(args) -> None:
    eq = _parse_input(args.eq)
    if args.dialect == Dialect.MANUAL.value:
        seq = to_manual_tokens(eq)
    else:
        seq = to_canonical_tokens(eq)
    _emit(args, _tokens_payload(seq))


def _cmd_perturb(args) -> None:
    eq = _parse_input(args.eq)
    cfg = perturb.PerturbConfig(
        swap_prob=args.swap_prob, noise_prob=args.noise_prob, seed=args.seed
    )
    injection = perturb.inject_noise_term(eq, cfg)
    out_eq = perturb.swap_branches(injection.equation, cfg)
    dialect = Dialect(args.dialect)
    serialize = to_manual_tokens if dialect == Dialect.MANUAL else to_canonical_tokens
    payload = {
        "input_tokens": list(serialize(eq).tokens),
        "output_tokens": list(serialize(out_eq).tokens),
        "injected_term": to_infix(injection.injected_term)
        if injection.injected_term is not None
        else None,
    }
    _emit(args, payload)


def _cmd_solve(args) -> None:
    spec = datagen.FAMILIES[args.family]
    q1 = args.q1 if args.q1 is not None else spec.q1
    q2 = args.q2 if args.q2 is not None else spec.q2
    grid = solver.Grid1D(nx=args.nx, dx=spec.x_f / args.nx)
    rng = np.random.default_rng(args.ic_seed)
    u0 = datagen.sample_ic(
        datagen.FamilySpec(spec.name, spec.flux_kind, q1, q2, nx=args.nx), rng
    )
    law = solver.ConservationLaw(spec.flux_kind, q1, q2)
    field = solver.solve(law, u0, grid, args.t_final, args.nt)
    solver.write_grid_file(field, args.output_grid)
    _emit(
        args,
        {
            "family": args.family,
            "q1": q1,
            "q2": q2,
            "nt": args.nt,
            "nx": args.nx,
            "t_final": args.t_final,
            "trajectory": args.output_grid,
        },
    )


def _cmd_gen(args) -> None:
    counts = datagen.DEFAULT_COUNTS[args.split]
    manifest = datagen.DatasetManifest(
        families=args.families.split(",") if args.families else list(datagen.FAMILIES),
        params_per_family=args.params if args.params is not None else counts[0],
        ics_per_param=args.ics if args.ics is not None else counts[1],
        seed=args.seed,
        split=args.split,
    )
    index = datagen.generate(manifest, args.out)
    _emit(
        args,
        {
            "out": args.out,
            "split": index["split"],
            "n_entries": len(index["entries"]),
        },
    )


def _cmd_refine(args) -> None:
    record = datagen.load_equation_record(args.equation)
    field = solver.read_grid_file(args.observations)
    cfg = smc.FilterConfig(
        particles=args.particles,
        steps=args.steps,
        process_var=args.process_var,
        obs_scale=args.obs_scale,
        seed=args.seed,
        likelihood=args.likelihood,
    )
    if args.alpha0:
        alpha0 = np.array([float(v) for v in args.alpha0.split(",")])
    else:
        alpha0 = datagen.coeff_vector(record["q1"], record["q2"])
    obs = smc.ObservationSeq.from_field(field, n_frames=cfg.steps + 1)
    law = datagen.law_from_record(record)
    start = time.perf_counter()
    result = smc.refine(alpha0, obs, law, cfg)
    elapsed = time.perf_counter() - start
    _emit(
        args,
        {
            "refined_coefficients": [float(v) for v in result.alpha],
            "initial_coefficients": [float(v) for v in alpha0],
            "ess_per_step": [float(v) for v in result.ess],
            "elapsed": elapsed,
        },
    )


def _cmd_eval(args) -> None:
    truth = datagen.load_equation_record(args.truth)
    spec = datagen.FAMILIES[truth["family"]]
    eq_true = datagen.equation_for(spec, truth["q1"], truth["q2"])
    payload: dict = {"truth": args.truth}
    if args.learned:
        learned = datagen.load_equation_record(args.learned)
        eq_learned = datagen.equation_for(
            datagen.FAMILIES[learned["family"]], learned["q1"], learned["q2"]
        )
    elif args.learned_tokens:
        seq = TokenSeq(Dialect(args.dialect), tuple(args.learned_tokens.split()))
        eq_learned = from_tokens(seq)
    else:
        raise _UsageError("eval needs --learned or --learned-tokens")
    payload["symbolic_error"] = metrics.symbolic_error(
        eq_learned, eq_true, seed=args.seed
    )
    if args.trajectory:
        field = solver.read_grid_file(args.trajectory)
        payload["time_series_error"] = metrics.time_series_error(
            eq_learned, field.values[0], field
        )
        if args.prediction:
            pred = solver.read_grid_file(args.prediction)
            payload["rel_l2"] = metrics.rel_l2(field.values, pred.values)
            payload["r2"] = metrics.r2_score([field.values], [pred.values])
    for name, score in payload.items():
        if name != "truth" and not np.isfinite(score):  # NaN and inf are not JSON
            raise NonFiniteState(f"{name} is {score}")
    _emit(args, payload)


def _cmd_study(args) -> None:
    cfg = smc.FilterConfig(
        particles=args.particles,
        steps=args.steps,
        process_var=args.process_var,
        obs_scale=args.obs_scale,
        likelihood=args.likelihood,
    )
    families = args.families.split(",") if args.families else list(study.STUDY_FAMILIES)
    rows = study.run_study(
        families=families,
        trials=args.trials,
        coeff_error=args.coeff_error,
        seed=args.seed,
        filter_config=cfg,
    )
    _emit(args, [row.as_dict() for row in rows])


# ---------------------------------------------------------------------------
# argument wiring

def build_parser() -> _Parser:
    parser = _Parser(prog="pdesym", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("parse", help="parse an equation and echo both dialects")
    p.add_argument("--expr", required=True)
    common(p)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("canon", help="canonical token sequence of an expression")
    p.add_argument("--expr", required=True)
    common(p)
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("tokens", help="serialize an equation in a chosen dialect")
    p.add_argument("--eq", required=True)
    p.add_argument("--dialect", choices=("manual", "canonical"), default="canonical")
    common(p)
    p.set_defaults(func=_cmd_tokens)

    p = sub.add_parser("perturb", help="noise injection followed by branch swapping")
    p.add_argument("--eq", required=True)
    p.add_argument("--swap-prob", type=float, default=0.5)
    p.add_argument("--noise-prob", type=float, default=0.5)
    p.add_argument("--dialect", choices=("manual", "canonical"), default="manual")
    common(p)
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("solve", help="solve one family trajectory to a PDEGRID1 file")
    p.add_argument("--family", choices=tuple(datagen.FAMILIES), required=True)
    p.add_argument("--q1", type=float)
    p.add_argument("--q2", type=float)
    p.add_argument("--nx", type=int, default=128)
    p.add_argument("--nt", type=int, default=32)
    p.add_argument("--t-final", type=float, default=1.0)
    p.add_argument("--ic-seed", type=int, default=0)
    p.add_argument("--output-grid", required=True)
    common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("gen", help="generate a dataset directory")
    p.add_argument("--out", required=True)
    p.add_argument("--families", help="comma-separated family names (default: all)")
    p.add_argument("--params", type=int, help="parameter draws per family")
    p.add_argument("--ics", type=int, help="initial conditions per draw")
    p.add_argument("--split", choices=("train", "test"), default="train")
    common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("refine", help="particle-filter refinement of coefficients")
    p.add_argument("--equation", required=True, help="eq_*.json file")
    p.add_argument("--observations", required=True, help="traj_*.grid file")
    p.add_argument("--alpha0", help="comma-separated initial coefficients")
    p.add_argument("--particles", type=int, default=500)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--process-var", type=float, default=1e-5)
    p.add_argument("--obs-scale", type=float, default=0.05)
    p.add_argument("--likelihood", choices=smc.LIKELIHOODS, default="pointwise")
    common(p)
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("eval", help="score a learned equation against the truth")
    p.add_argument("--truth", required=True, help="eq_*.json file")
    p.add_argument("--learned", help="eq_*.json file")
    p.add_argument("--learned-tokens", help="space-separated token sequence")
    p.add_argument("--dialect", choices=("manual", "canonical"), default="canonical")
    p.add_argument("--trajectory", help="traj_*.grid reference trajectory")
    p.add_argument("--prediction", help="predicted trajectory for rel_l2/R^2")
    common(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("study", help="with/without-refinement error table")
    p.add_argument("--families", help="comma-separated subset of the table families")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--coeff-error", type=float, default=0.03)
    p.add_argument("--particles", type=int, default=500)
    p.add_argument("--steps", type=int, default=10)
    p.add_argument("--process-var", type=float, default=1e-5)
    p.add_argument("--obs-scale", type=float, default=0.05)
    p.add_argument("--likelihood", choices=smc.LIKELIHOODS, default="pointwise")
    common(p)
    p.set_defaults(func=_cmd_study)

    return parser


def _fail(code: int, exc: Exception) -> int:
    sys.stderr.write(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
    )
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return _fail(1, exc)
    try:
        args.func(args)
    except _UsageError as exc:
        return _fail(1, exc)
    except _NUMERIC_ERRORS as exc:
        return _fail(3, exc)
    except _DATA_ERRORS as exc:
        return _fail(2, exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
