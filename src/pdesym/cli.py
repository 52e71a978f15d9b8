"""Command-line interface.

Subcommands: parse, canon, tokens, perturb, solve, gen, refine, eval,
study. Every command is deterministic given its flags, input files and
seed; JSON (or, from ``study --format csv``, CSV) goes to stdout unless
``--output`` is given. Exit codes: 1 usage error (a bad flag, or a setting
that ``FilterConfig`` or ``PerturbConfig`` rejects); 3 numeric failure (a
``NumericError``); 2 data error (any other ``PdesymError``, a
``ValueError``, an ``OSError`` such as an input path that is a directory,
or a ``MemoryError`` from a size that cannot be allocated). Each writes
one JSON line to stderr.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import re
import sys

import numpy as np

from . import datagen, metrics, perturb, smc, solver, study
from .canon import canonicalize
from .errors import MalformedFile, NonFiniteState, NumericError, PdesymError, UnsupportedNode
from .expr import parse_infix, to_infix
from .tokens import Dialect, TokenSeq, from_tokens, to_canonical_tokens, to_manual_tokens


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


def _emit(args, payload, fmt: str = "json") -> None:
    if fmt == "csv":
        text = _to_csv(payload)
    else:
        text = datagen.json_text(payload)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _to_csv(rows: list) -> str:
    """Flat rows (dicts with the same keys) as CSV with a header line."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _finite(payload):
    """``payload`` (a dict, or a list of dicts) unchanged; a score in it that
    is NaN or inf, which JSON cannot hold, raises :class:`NonFiniteState`."""
    for row in payload if isinstance(payload, list) else [payload]:
        for name, score in row.items():
            if isinstance(score, float) and not np.isfinite(score):
                raise NonFiniteState(f"{name} is {score}")
    return payload


def _tokens_payload(seq: TokenSeq) -> dict:
    return {"dialect": seq.dialect.value, "tokens": list(seq.tokens), "text": seq.text}


_SERIALIZERS = {Dialect.MANUAL: to_manual_tokens, Dialect.CANONICAL: to_canonical_tokens}


def _config(config, args):
    """The dataclass ``config`` of the flags that ``build_parser`` declares
    from its fields, ``--seed`` included. A value the class rejects is a
    usage error."""
    try:
        return config(**{f.name: getattr(args, f.name) for f in dataclasses.fields(config)})
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


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
    eq = _parse_input(args.expr)
    payload = _tokens_payload(to_canonical_tokens(eq))
    payload["canonical_infix"] = to_infix(canonicalize(eq.residual))
    _emit(args, payload)


def _cmd_tokens(args) -> None:
    seq = _SERIALIZERS[Dialect(args.dialect)](_parse_input(args.eq))
    _emit(args, _tokens_payload(seq))


def _cmd_perturb(args) -> None:
    eq = _parse_input(args.eq)
    cfg = _config(perturb.PerturbConfig, args)
    # each perturbation draws from its own stream, so whether one fires
    # does not decide whether the other does
    noise_seed, swap_seed = (int(s) for s in np.random.SeedSequence(cfg.seed).generate_state(2))
    injection = perturb.inject_noise_term(eq, dataclasses.replace(cfg, seed=noise_seed))
    out_eq = perturb.swap_branches(injection.equation, dataclasses.replace(cfg, seed=swap_seed))
    serialize = _SERIALIZERS[Dialect(args.dialect)]
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
    spec = dataclasses.replace(spec, q1=q1, q2=q2, nx=args.nx)
    grid = datagen.grid_for(spec)
    u0 = datagen.sample_ic(spec, np.random.default_rng(args.ic_seed))
    law = datagen.law_for(spec, q1, q2)
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
    cfg = _config(smc.FilterConfig, args)
    if args.alpha0:
        alpha0 = np.array([float(v) for v in args.alpha0.split(",")])
    else:
        alpha0 = datagen.coeff_vector(record["q1"], record["q2"])
    obs = smc.ObservationSeq.from_field(field, n_frames=cfg.steps + 1)
    law = datagen.law_from_record(record)
    result = smc.refine(alpha0, obs, law, cfg)
    _emit(
        args,
        {
            "refined_coefficients": [float(v) for v in result.alpha],
            "initial_coefficients": [float(v) for v in alpha0],
            "ess_per_step": [float(v) for v in result.ess],
        },
    )


def _cmd_eval(args) -> None:
    eq_true = datagen.equation_from_record(datagen.load_equation_record(args.truth))
    payload: dict = {"truth": args.truth}
    if args.learned:
        eq_learned = datagen.equation_from_record(datagen.load_equation_record(args.learned))
    elif args.learned_tokens:
        seq = TokenSeq(Dialect(args.dialect), tuple(args.learned_tokens.split()))
        eq_learned = from_tokens(seq)
    else:
        raise _UsageError("eval needs --learned or --learned-tokens")
    if args.prediction and not args.trajectory:
        raise _UsageError("eval --prediction needs --trajectory")
    payload["symbolic_error"] = metrics.symbolic_error(
        eq_learned, eq_true, seed=args.seed
    )
    if args.trajectory:
        field = solver.read_grid_file(args.trajectory)
        t = field.times
        if t.size < 2:
            raise MalformedFile(f"{args.trajectory}: a trajectory needs at least two frames")
        if not np.max(np.abs(t - np.linspace(0.0, t[-1], t.size))) <= 1e-12 * abs(t[-1]):
            raise MalformedFile(f"{args.trajectory}: frame times must be evenly spaced from 0")
        payload["time_series_error"] = metrics.time_series_error(
            eq_learned, field.values[0], field
        )
        if args.prediction:
            pred = solver.read_grid_file(args.prediction)
            if pred.values.shape != field.values.shape:
                raise MalformedFile(f"{args.prediction}: shape {pred.values.shape} does not "
                                    f"match {args.trajectory}'s {field.values.shape}")
            payload["rel_l2"] = metrics.rel_l2(field.values, pred.values)
            payload["r2"] = metrics.r2_score([field.values], [pred.values])
    _emit(args, _finite(payload))


def _cmd_study(args) -> None:
    cfg = _config(smc.FilterConfig, args)
    families = args.families.split(",") if args.families else list(study.STUDY_FAMILIES)
    rows = study.run_study(
        families=families,
        trials=args.trials,
        coeff_error=args.coeff_error,
        seed=args.seed,
        filter_config=cfg,
    )
    _emit(args, _finite([dataclasses.asdict(row) for row in rows]), args.format)


# ---------------------------------------------------------------------------
# argument wiring

def build_parser() -> _Parser:
    parser = _Parser(prog="pdesym", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--output", help="write the report here instead of stdout")
        if seed:
            p.add_argument("--seed", type=int, default=0)

    def config_flags(p, config):
        """A flag of each field of ``config`` but ``seed``, read by :func:`_config`."""
        for f in dataclasses.fields(config):
            if f.name != "seed":
                p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                               default=f.default)

    dialects = [d.value for d in Dialect]

    p = sub.add_parser("parse", help="parse an equation and echo both dialects")
    p.add_argument("--expr", required=True)
    common(p, seed=False)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("canon", help="canonical token sequence of an expression")
    p.add_argument("--expr", required=True)
    common(p, seed=False)
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("tokens", help="serialize an equation in a chosen dialect")
    p.add_argument("--eq", required=True)
    p.add_argument("--dialect", choices=dialects, default=Dialect.CANONICAL.value)
    common(p, seed=False)
    p.set_defaults(func=_cmd_tokens)

    p = sub.add_parser("perturb", help="noise injection followed by branch swapping")
    p.add_argument("--eq", required=True)
    config_flags(p, perturb.PerturbConfig)
    p.add_argument("--dialect", choices=dialects, default=Dialect.MANUAL.value)
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
    common(p, seed=False)
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
    config_flags(p, smc.FilterConfig)
    common(p)
    p.set_defaults(func=_cmd_refine)

    p = sub.add_parser("eval", help="score a learned equation against the truth")
    p.add_argument("--truth", required=True, help="eq_*.json file")
    p.add_argument("--learned", help="eq_*.json file")
    p.add_argument("--learned-tokens", help="space-separated token sequence")
    p.add_argument("--dialect", choices=dialects, default=Dialect.CANONICAL.value)
    p.add_argument("--trajectory", help="traj_*.grid reference trajectory")
    p.add_argument("--prediction", help="predicted trajectory for rel_l2/R^2")
    common(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("study", help="with/without-refinement error table")
    p.add_argument("--families", help="comma-separated subset of the table families")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--coeff-error", type=float, default=0.03)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    config_flags(p, smc.FilterConfig)
    common(p)
    p.set_defaults(func=_cmd_study)

    return parser


def _fail(code: int, exc: Exception) -> int:
    sys.stderr.write(
        json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
    )
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
    except _UsageError as exc:
        return _fail(1, exc)
    except NumericError as exc:
        return _fail(3, exc)
    except (PdesymError, ValueError, OSError, MemoryError) as exc:
        return _fail(2, exc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
