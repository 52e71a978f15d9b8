"""pdesym benchmark: one client, closed loop, two workloads.

    python3 perfbench/run.py --workload viscous_pipeline --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src``. Each
run sets up its inputs from ``--seed``, then repeats whole units of its
workload until ``--seconds`` have passed (at least one unit). A unit of
every workload runs the same chain, in different proportions:

* ``pdesym gen`` calls, ``pdesym refine`` of chosen records with alpha0
  offset by a fixed 3% relative error (random sign per coefficient, as in
  ``study``), and ``pdesym eval --trajectory`` of each refined equation;
* blocks of the symbolic corpus (``corpus.py``), interleaved with those
  operations: parse/print/tokenize/decode/``equivalent`` per equation and
  ``symbolic_error`` on a subset.

``--trace 0`` drives the CLI and the library without tracing and prints
the end-to-end metrics. ``--trace 1`` runs one unit through the library
twice, untraced and then traced (``tracer.py``), checks that the rebuilt
filter loop matches ``smc.refine`` bit for bit, and prints the per-layer
metrics. The last stdout line is the result object; the line before it
records the environment, the seed and the sample counts. Both are also
written under ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

try:
    import pdesym  # noqa: E402
except ImportError as exc:
    sys.exit(f"cannot import pdesym from {ROOT / 'src'}: {exc}")
if Path(pdesym.__file__).resolve().parent != ROOT / "src" / "pdesym":
    sys.exit(f"pdesym was imported from {pdesym.__file__}, not from this checkout")

import corpus  # noqa: E402
import pipeline  # noqa: E402
import tracer  # noqa: E402
from pdesym import canon, datagen, expr, metrics, perturb, smc, solver, tokens  # noqa: E402

COEFF_ERROR = 0.03
SETUP_REPEATS = 5
BLOCK = 1000  # corpus equations per block; 10 of them lie beyond its p99
LAYERS = ("bench", "datagen", "solver", "smc", "expr", "canon", "tokens", "perturb", "metrics")


@dataclass(frozen=True)
class Gen:
    """One ``pdesym gen`` call."""

    families: tuple[str, ...]
    params: int
    ics: int

    def writes(self, record_id: str) -> bool:
        family, p, i = record_id.rsplit("_", 2)
        return family in self.families and int(p) < self.params and int(i) < self.ics


@dataclass(frozen=True)
class Workload:
    gens: tuple[Gen, ...]
    refine: tuple[str, ...]  # record ids refined and evaluated wherever a gen call wrote them
    corpus_families: tuple[str, ...]
    corpus_blocks: int
    symerr: int  # symbolic_error calls per unit
    particles: int = 500
    steps: int = 10


VISCOUS = ("burgers", "cl_cubic", "cl_sine")
INVISCID = ("inviscid_burgers", "icl_cubic", "icl_sine")

WORKLOADS = {
    # Diffusion-limited: ~4096 CFL substeps per solve, so the scalar solver
    # and the batched filter kernel do nearly all the work. cl_sine is
    # generated but not refined: its refine time swings between 14 and
    # 21 s with the seed, which would swamp the run-to-run spread.
    "viscous_pipeline": Workload(
        tuple(Gen((f,), 2, 1) for f in VISCOUS), ("burgers_000_000", "cl_cubic_000_000"),
        VISCOUS, 6, 40),
    # Advection-limited: solves take 15-45 ms, so CLI start-up, PDEGRID1
    # I/O, record tokenization and per-step filter overhead carry weight.
    "inviscid_pipeline": Workload(
        (Gen(INVISCID, 2, 2),), tuple(f"{f}_00{p}_000" for f in INVISCID for p in (0, 1)),
        INVISCID, 3, 13),
}


def tiny(w: Workload) -> Workload:
    """The self-test size: every operation, as few and as small as possible."""
    return Workload(
        tuple(Gen(g.families, 1, 1) for g in w.gens),
        tuple(r for r in w.refine if r.endswith("_000_000")),
        w.corpus_families, 1, 2, particles=16, steps=2,
    )


def setup(w: Workload, seed: int) -> list:
    """The workload's inputs: the corpus (units draw the rest per index)."""
    return corpus.build(w.corpus_families, w.corpus_blocks * BLOCK,
                        np.random.default_rng((seed, 1)))


def measure_setup(args) -> list[float]:
    """Seconds from spawning a fresh interpreter until it has imported
    pdesym and built the inputs, once per repeat."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"setup probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


# -- one unit ----------------------------------------------------------------

@dataclass
class Unit:
    ops: list
    members: list  # corpus members in processing order
    blocks: list  # one corpus.Block per corpus block
    wall_s: float

    @property
    def outcomes(self) -> list:
        return [o for b in self.blocks for o in b.outcomes]


def run_unit(runner, w: Workload, members, seed: int, k: int, workdir: Path) -> Unit:
    """Unit ``k`` of a run: its gen, refine and eval inputs come from (seed, k).

    Corpus blocks are spread evenly between the pipeline operations, so
    that no metric rests on one stretch of the run.
    """
    rng = np.random.default_rng((seed, 2, k))
    blocks = [members[i * BLOCK:(i + 1) * BLOCK] for i in range(w.corpus_blocks)]
    n_ops = sum(1 + 2 * sum(map(g.writes, w.refine)) for g in w.gens)
    ops, done = [], []

    def run_block():
        i = len(done)
        n_symerr = w.symerr // len(blocks) + (i < w.symerr % len(blocks))
        with runner.span("bench.corpus"):
            done.append(corpus.run(blocks[i], n_symerr))

    def record(op):
        ops.append(op)
        while len(done) < len(blocks) * len(ops) // n_ops:
            run_block()
        return op

    for g_index, g in enumerate(w.gens):
        outdir = workdir / f"unit{k}" / f"gen{g_index}"
        if record(runner.gen(outdir, g.families, g.params, g.ics,
                             int(rng.integers(2**31)))).error:
            continue
        for entry in json.loads((outdir / "manifest.json").read_text())["entries"]:
            if entry["id"] not in w.refine:
                continue
            spec = datagen.FAMILIES[entry["family"]]
            truth = np.array([entry["q1"], entry["q2"]] if entry["q2"] else [entry["q1"]])
            alpha0 = truth * (1.0 + COEFF_ERROR * rng.choice([-1.0, 1.0], truth.size))
            cfg = smc.FilterConfig(particles=w.particles, steps=w.steps,
                                   seed=int(rng.integers(2**31)))
            eq_path, traj_path = outdir / entry["equation"], outdir / entry["trajectory"]
            op = runner.refine(eq_path, traj_path, alpha0, cfg)
            op.data.update(truth=truth, eq_path=eq_path, traj_path=traj_path)
            if record(op).error:
                continue
            q = [float(v) for v in op.data["alpha"]] + [0.0]
            learned = tokens.to_canonical_tokens(datagen.equation_for(spec, q[0], q[1]))
            record(runner.eval(eq_path, traj_path, learned, int(rng.integers(2**31))))
    while len(done) < len(blocks):
        run_block()
    wall = sum(op.seconds for op in ops) + sum(b.wall_s for b in done)
    return Unit(ops, [m for b in blocks for m in b], done, wall)


def check_unit(unit: Unit) -> tuple[int, int, list[str], int, int]:
    """Output checks. Returns (attempted, failed, messages, split members,
    split members whose tokens differ from their unsplit twin)."""
    errors = []
    for op in unit.ops:
        if op.kind == "gen" and op.error is None:
            op.error = pipeline.check_dataset(op.data["outdir"], op.data["expected"])
        if op.error:
            errors.append(op.error)
    splits = mismatched = 0
    for m, out in zip(unit.members, unit.outcomes):
        if m.unsplit is not None:
            splits += 1
            mismatched += corpus.order_mismatch(m, out)
        error = corpus.check(m, out)
        if error:
            errors.append(f"corpus {m.kind}: {error}")
    symerr_values = [v for b in unit.blocks for v in b.symerr_values]
    for v in symerr_values:
        if not (isinstance(v, float) and np.isfinite(v) and v >= 0.0):
            errors.append(f"symbolic_error returned {v!r}")
    attempted = len(unit.ops) + len(unit.members) + len(symerr_values)
    return attempted, len(errors), errors, splits, mismatched


# -- timed run ---------------------------------------------------------------

def timed_run(args, w: Workload, members, workdir: Path):
    setup_samples = measure_setup(args)
    runner = pipeline.Runner(ROOT, lib=False)
    units, t0 = [], time.perf_counter()
    attempted = failed = 0
    messages = []
    while True:
        unit = run_unit(runner, w, members, args.seed, len(units), workdir)
        a, f, msgs, _, _ = check_unit(unit)
        attempted, failed, messages = attempted + a, failed + f, messages + msgs
        for block in unit.blocks:  # checked; holding every unit's outputs would inflate peak RSS
            block.outcomes.clear()
        units.append(unit)
        if time.perf_counter() - t0 >= args.seconds:
            break
    ops = [op for unit in units for op in unit.ops if op.error is None]
    gens = [op.data["expected"] / op.seconds for op in ops if op.kind == "gen"]
    refines = [op.seconds for op in ops if op.kind == "refine"]
    evals = [op.seconds for op in ops if op.kind == "eval"]
    blocks = [b.latencies for unit in units for b in unit.blocks]
    symerr = [s for unit in units for b in unit.blocks for s in b.symerr_s]
    out = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(unit.wall_s for unit in units), "s"),
        "gen_traj_per_s": (_median(gens), "1/s"),
        "refine_s": (_median(refines), "s"),
        "eval_s": (_median(evals), "s"),
        "corpus_eq_per_s": (statistics.median(len(b) / sum(b) for b in blocks), "1/s"),
        "corpus_eq_p99_us": (
            statistics.median(float(np.percentile(b, 99)) for b in blocks) * 1e6, "us"),
        # a mean: call costs cluster by equation shape, and a median would
        # jump between clusters as the seed changes the mix
        "symerr_per_s": (len(symerr) / sum(symerr), "1/s"),
        "ok_frac": (1.0 - failed / attempted, "1"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    samples = {
        "units": len(units), "setup": len(setup_samples), "gen": len(gens),
        "refine": len(refines), "eval": len(evals), "corpus_blocks": len(blocks),
        "corpus_eq": sum(map(len, blocks)), "symerr": len(symerr),
    }
    return out, samples, attempted, failed, messages


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Largest max-RSS of this process and of any child it waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


# -- traced run --------------------------------------------------------------

def instrument(tr: tracer.Tracer) -> None:
    """Spans around the public functions of every layer."""
    for fn, name, attrs in (
        (datagen.generate, "datagen.generate", None),
        (datagen.equation_record, "datagen.record", None),
        (solver.solve, "solver.solve", None),
        (solver.write_grid_file, "solver.write_grid",
         lambda a, r: {"bytes": os.path.getsize(a[1])}),
        (solver.read_grid_file, "solver.read_grid", None),
        (smc.init_ensemble, "smc.init_ensemble", None),
        (smc.propagate, "smc.propagate", None),
        (smc.reweight, "smc.reweight", None),
        (smc.advance_ensemble, "smc.advance",
         lambda a, r: {"particle_cells": a[1].size * a[3].size}),
        (smc.resample, "smc.resample", None),
        (expr.to_infix, "expr.to_infix", None),
        (expr.parse_infix, "expr.parse_infix", None),
        (tokens.to_manual_tokens, "tokens.to_manual", None),
        (tokens.to_canonical_tokens, "tokens.to_canonical", None),
        (tokens.from_tokens, "tokens.from_tokens", None),
        (canon.canonicalize, "canon.canonicalize", None),
        (canon.equivalent, "canon.equivalent", None),
        (perturb.swap_branches, "perturb.swap_branches", None),
        (perturb.inject_noise_term, "perturb.inject_noise_term", None),
        (perturb.mask_coefficients, "perturb.mask_coefficients", None),
        (metrics.symbolic_error, "metrics.symbolic_error", None),
        (metrics.time_series_error, "metrics.time_series_error", None),
        (metrics.law_from_equation, "metrics.law_from_equation", None),
    ):
        tr.instrument(fn, name, attrs)


def probe_solver(tr: tracer.Tracer, unit: Unit) -> None:
    """Public ``cfl_dt`` and ``step`` on every observed frame of the refined
    records: the solver's per-call costs, which ``solve`` hides."""
    for op in unit.ops:
        if op.kind != "refine" or op.error:
            continue
        with tr.span("bench.probe"):
            field = solver.read_grid_file(op.data["traj_path"])
            law = datagen.law_from_record(datagen.load_equation_record(op.data["eq_path"]))
            for u in field.values:
                with tr.span("solver.cfl_dt"):
                    dt = solver.cfl_dt(law, u, field.grid)
                with tr.span("solver.step", cells=u.size):
                    solver.step(law, u, dt, field.grid)


def traced_run(args, w: Workload, members, workdir: Path):
    plain = run_unit(pipeline.Runner(ROOT, lib=True), w, members, args.seed, 0,
                     workdir / "untraced")
    tr = tracer.Tracer(f"{args.workload}/seed{args.seed}")
    instrument(tr)
    try:
        with tr.span("bench.unit"):
            traced = run_unit(pipeline.Runner(ROOT, lib=True, tracer=tr), w, members,
                              args.seed, 0, workdir / "traced")
        probe_solver(tr, traced)
    finally:
        tr.restore()
    OUT.mkdir(parents=True, exist_ok=True)
    tr.write_jsonl(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")

    a, f, messages, _, _ = check_unit(plain)
    attempted, failed, msgs, splits, mismatched = check_unit(traced)
    attempted, failed, messages = attempted + a, failed + f, messages + msgs
    refines = [(p, t) for p, t in zip(plain.ops, traced.ops) if p.kind == "refine"]
    for p, t in refines:
        attempted += 1
        if p.error or t.error or p.data["alpha"].tobytes() != t.data["alpha"].tobytes():
            failed += 1
            messages.append("rebuilt filter loop does not match smc.refine bit for bit")

    s = tracer.Summary(tr.spans)
    good = [t for _, t in refines if t.error is None]

    def mean_over_refines(values) -> float:
        return float(np.mean(values)) if good else 0.0

    perturbs = ("perturb.swap_branches", "perturb.inject_noise_term", "perturb.mask_coefficients")
    out = {
        "smc.reweight_ms": (s.mean("smc.reweight") * 1e3, "ms"),
        "smc.advance_ns_per_particle_cell": (
            _ratio(s.total["smc.advance"], s.attrs["smc.advance"]["particle_cells"]) * 1e9, "ns"),
        "smc.propagate_us": (s.mean("smc.propagate") * 1e6, "us"),
        "smc.resample_us": (s.mean("smc.resample") * 1e6, "us"),
        "smc.live_frac": (mean_over_refines([t.data["live_frac"] for t in good]), "1"),
        "smc.unique_frac": (mean_over_refines([t.data["unique_frac"] for t in good]), "1"),
        "smc.ess_frac": (mean_over_refines([t.data["ess_frac"] for t in good]), "1"),
        "smc.reweight_share": (_ratio(s.total["smc.reweight"], s.total["smc.refine"]), "1"),
        "refine_coef_err": (mean_over_refines(
            [np.mean(np.abs(t.data["alpha"] / t.data["truth"] - 1.0)) for t in good]), "1"),
        "solver.solve_ms": (s.mean("solver.solve") * 1e3, "ms"),
        "solver.step_ns_per_cell": (
            _ratio(s.total["solver.step"], s.attrs["solver.step"]["cells"]) * 1e9, "ns"),
        "solver.cfl_dt_us": (s.mean("solver.cfl_dt") * 1e6, "us"),
        "solver.write_grid_ms": (s.mean("solver.write_grid") * 1e3, "ms"),
        "solver.read_grid_ms": (s.mean("solver.read_grid") * 1e3, "ms"),
        "solver.bytes_written": (s.attrs["solver.write_grid"]["bytes"], "bytes"),
        "datagen.generate_s": (s.mean("datagen.generate"), "s"),
        "datagen.record_ms": (s.mean("datagen.record") * 1e3, "ms"),
        "expr.parse_infix_us": (s.mean("expr.parse_infix") * 1e6, "us"),
        "expr.to_infix_us": (s.mean("expr.to_infix") * 1e6, "us"),
        "canon.canonicalize_us": (s.mean("canon.canonicalize") * 1e6, "us"),
        "canon.equivalent_us": (s.mean("canon.equivalent") * 1e6, "us"),
        "canon.order_mismatch_frac": (_ratio(mismatched, splits), "1"),
        "tokens.to_canonical_us": (s.mean("tokens.to_canonical") * 1e6, "us"),
        "tokens.to_manual_us": (s.mean("tokens.to_manual") * 1e6, "us"),
        "tokens.from_tokens_us": (s.mean("tokens.from_tokens") * 1e6, "us"),
        "tokens.per_eq": (float(np.mean([len(o.canonical) for o in traced.outcomes])), "count"),
        "perturb.perturb_us": (s.mean(*perturbs) * 1e6, "us"),
        "metrics.symbolic_error_ms": (s.mean("metrics.symbolic_error") * 1e3, "ms"),
        "metrics.time_series_error_ms": (s.mean("metrics.time_series_error") * 1e3, "ms"),
        "metrics.law_from_equation_us": (s.mean("metrics.law_from_equation") * 1e6, "us"),
        "trace.overhead_frac": (traced.wall_s / plain.wall_s - 1.0, "1"),
        "failed_frac": (failed / attempted, "1"),
    }
    layer_self = s.layer_self()
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")
    samples = {
        "units": 1, "refine": len(refines), "corpus_eq": len(traced.outcomes),
        "spans": len(tr.spans), "untraced_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s,
    }
    return out, samples, attempted, failed, messages


# -- entry point -------------------------------------------------------------

def environment(args) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "nproc": os.cpu_count(),
        "cpu": cpu, "python": platform.python_version(), "numpy": np.__version__,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=tuple(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="self-test size")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    w = tiny(WORKLOADS[args.workload]) if args.tiny else WORKLOADS[args.workload]

    members = setup(w, args.seed)
    if args.probe_setup:
        print(time.monotonic())
        return 0

    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run = traced_run if args.trace else timed_run
        values, samples, attempted, failed, messages = run(args, w, members, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for msg in messages[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    info = {"env": environment(args), "samples": samples}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**info, "result": result}, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
