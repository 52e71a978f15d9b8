"""In-process A/B of each layer of the pipeline between two checkouts.

    python3 tools/layer_ab.py BASE_DIR [HEAD_DIR] [--out BENCH_<n>.json]

``BASE_DIR/src/pdesym`` is copied to a temporary directory as ``pdesym_a``,
and ``HEAD_DIR/src/pdesym`` (this checkout by default) as ``pdesym_b`` and
again as ``pdesym_c``. The package's imports are relative, so each copy is
a package of its own, with its own node table and caches, and each layer's
seeded inputs are built once per package. ``perfbench/corpus.py`` of this
checkout builds the symbolic inputs for every package, from the corpus
and the ``symbolic_error`` calls of one unit of ``perfbench/run.py``'s
``viscous_pipeline`` at seed 1.

A layer's inputs are split into blocks. Each block runs ``RUNS`` times on
each of the three packages in turn, the package that goes first rotating,
and a package's time for the block is its fastest run. A package's layer
time is the sum of its blocks' fastest runs, in thread CPU time; the
layers whose batches the solver splits over worker threads (the 500-row
intervals and ``refine``) use process CPU time, which counts those threads.
``b/a`` is the change; ``c/b``, HEAD against its own copy, is the A/A
reading. Every layer is measured ``ROUNDS`` times. Which of two copies is
read as the base is arbitrary, so each A/A reading ``r`` counts as ``r``
and as ``1/r``: the A/A band of a layer is the lowest to the highest of
these over the rounds. A layer is within its band when its median ``b/a`` lies inside
it.

It prints one line per layer. With ``--out``, it also writes the layers
under a ``layers`` key of that JSON file, keeping whatever else the file
holds (the end-to-end pairs of ``tools/bench_pairs.py``, say), so run it
after ``bench_pairs.py``. Run from the repository root.
"""
from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("a", "b", "c")
ROUNDS = 5  # readings of every layer
RUNS = 5  # runs of a block per package; the fastest counts
MEMBERS = 1200  # corpus members per symbolic layer

# perfbench/run.py puts this checkout's src on the path and imports pdesym
sys.path.insert(0, str(ROOT / "perfbench"))
import run as perfbench  # noqa: E402

WORKLOAD = perfbench.WORKLOADS["viscous_pipeline"]
SEED = 1


def load(src: Path, tmp: Path, name: str):
    """``src/pdesym`` of a checkout, imported as the package ``name``."""
    shutil.copytree(src / "src" / "pdesym", tmp / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def load_corpus(pkg):
    """``perfbench/corpus.py`` bound to ``pkg``: while it loads, ``pdesym``
    and its submodules name ``pkg``'s."""
    aliases = {"pdesym" + name[len(pkg.__name__):]: module
               for name, module in list(sys.modules.items())
               if name == pkg.__name__ or name.startswith(pkg.__name__ + ".")}
    saved = {name: sys.modules.get(name) for name in aliases}
    sys.modules.update(aliases)
    try:
        spec = importlib.util.spec_from_file_location(
            f"corpus_{pkg.__name__}", ROOT / "perfbench" / "corpus.py")
        corpus = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(corpus)
    finally:
        for name, module in saved.items():
            if module is None:
                del sys.modules[name]
            else:
                sys.modules[name] = module
    return corpus


def _kept(fn, items, errors) -> list:
    """The items ``fn`` accepts, those raising ``errors`` left out."""
    out = []
    for item in items:
        try:
            fn(item)
        except errors:
            continue
        out.append(item)
    return out


def symbolic_layers(pkg) -> dict:
    """name -> (function, inputs) for the layers of the symbolic corpus."""
    corpus = load_corpus(pkg)
    expr, tokens, canon, metrics = pkg.expr, pkg.tokens, pkg.canon, pkg.metrics
    unsupported = pkg.errors.UnsupportedNode
    w, size = WORKLOAD, perfbench.BLOCK
    # perfbench/run.py's setup, built with pkg's corpus
    everything = corpus.build(w.corpus_families, w.corpus_blocks * size,
                              np.random.default_rng((SEED, 1)))
    # must match run.run_unit's n_symerr per block and corpus.run's choice
    # of the scored members
    calls = []
    for i in range(w.corpus_blocks):
        block = everything[i * size:(i + 1) * size]
        n = w.symerr // w.corpus_blocks + (i < w.symerr % w.corpus_blocks)
        scored = [m for m in block if m.kind != "mask"]
        stride = max(1, len(scored) // max(1, n))
        calls += [(corpus.variant(m), m.template, j)
                  for j, m in enumerate(scored[::stride][:n])]
    chosen = everything[:MEMBERS]
    eqs = [corpus.variant(m) for m in chosen]
    printable = _kept(lambda e: expr.to_infix(e.residual), eqs, unsupported)
    parsed = [expr.parse_infix(expr.to_infix(e.residual) + " = 0") for e in printable]
    canonical = [tokens.to_canonical_tokens(e) for e in parsed]
    decoded = [tokens.from_tokens(ts) for ts in canonical]

    return {
        "parse_print": (lambda e: expr.parse_infix(expr.to_infix(e.residual) + " = 0"),
                        printable),
        "to_manual_tokens": (tokens.to_manual_tokens,
                             _kept(tokens.to_manual_tokens, parsed, unsupported)),
        "to_canonical_tokens": (tokens.to_canonical_tokens, parsed),
        "from_tokens": (tokens.from_tokens, canonical),
        "canonicalize": (canon.canonicalize, parsed),
        "equivalent": (lambda pair: canon.equivalent(*pair), list(zip(decoded, parsed))),
        "round_trip": (corpus.process, chosen),
        "symbolic_error": (lambda call: metrics.symbolic_error(call[0], call[1], seed=call[2]),
                           calls),
    }


def solver_layers(pkg) -> dict:
    """name -> (function, inputs) for the solver and filter layers."""
    datagen, solver, smc = pkg.datagen, pkg.solver, pkg.smc
    rng = np.random.default_rng((SEED, 3))

    def observations(family: str):
        spec = datagen.FAMILIES[family]
        law = datagen.law_for(spec, spec.q1, spec.q2)
        u0 = datagen.sample_ic(spec, rng)
        field = solver.solve(law, u0, datagen.grid_for(spec), spec.t_f, spec.nt)
        return spec, law, smc.ObservationSeq.from_field(field, n_frames=11)

    spec, law, obs = observations("burgers")
    inv_spec, inv_law, inv_obs = observations("inviscid_burgers")
    dt = float(obs.times[1] - obs.times[0])
    jitter = rng.uniform(0.9, 1.1, (2, 500))
    viscous = (spec.q1 * jitter[0], spec.q2 * jitter[1], np.tile(obs.states[0], (500, 1)))
    inviscid = (inv_spec.q1 * jitter[0], np.zeros(500), inv_obs.states[0])
    solves = [(law, datagen.sample_ic(spec, rng), datagen.grid_for(spec), spec.t_f, spec.nt)
              for _ in range(4)]
    alpha0 = datagen.coeff_vector(spec.q1, spec.q2) * (1.0 + 0.03 * rng.choice([-1.0, 1.0], 2))
    refines = [smc.FilterConfig(particles=500, steps=10, seed=s) for s in range(2)]

    return {
        "solve": (lambda args: solver.solve(*args), solves),
        "viscous_interval": (
            lambda rows: solver.advance_ensemble("quadratic", *rows, dt, obs.grid), [viscous]),
        "inviscid_interval": (
            lambda rows: solver.advance_ensemble("quadratic", *rows, dt, inv_obs.grid),
            [inviscid]),
        "refine": (lambda cfg: smc.refine(alpha0, obs, law, cfg), refines),
    }


# items per timed block, and the clock: the solver runs these batches on
# worker threads, which only process CPU time counts
BLOCKS = {"symbolic_error": 10, "solve": 1, "viscous_interval": 1, "inviscid_interval": 1,
          "refine": 1}
PROCESS_CLOCK = {"viscous_interval", "inviscid_interval", "refine"}


def measure(name: str, layer: dict, round_: int) -> dict:
    """Each side's layer time in seconds: the sum over blocks of the block's
    fastest run, the sides taking turns."""
    clock = time.process_time if name in PROCESS_CLOCK else time.thread_time
    size = BLOCKS.get(name, 100)
    n = min(len(layer[s][1]) for s in SIDES)
    total = dict.fromkeys(SIDES, 0.0)
    for start in range(0, n, size):
        best = dict.fromkeys(SIDES, float("inf"))
        for k in range(RUNS):
            shift = (k + round_) % len(SIDES)
            for side in SIDES[shift:] + SIDES[:shift]:
                fn, items = layer[side]
                block = items[start:start + size]
                t0 = clock()
                for item in block:
                    fn(item)
                best[side] = min(best[side], clock() - t0)
        for side in SIDES:
            total[side] += best[side]
    return {"items": n, **total}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", type=Path, help="checkout measured as a")
    p.add_argument("head", type=Path, nargs="?", default=ROOT,
                   help="checkout measured as b and, for the A/A, c (default: this one)")
    p.add_argument("--out", type=Path, help="JSON file to write the layers into")
    args = p.parse_args(argv)

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        pkgs = {side: load(src, Path(tmp), f"pdesym_{side}")
                for side, src in zip(SIDES, (args.base, args.head, args.head))}
        layers = {side: {**symbolic_layers(pkg), **solver_layers(pkg)}
                  for side, pkg in pkgs.items()}
        out = {}
        for name in layers["a"]:
            layer = {side: layers[side][name] for side in SIDES}
            readings = []
            for r in range(ROUNDS):
                gc.collect()
                readings.append(measure(name, layer, r))
            change = [m["b"] / m["a"] for m in readings]
            aa = [m["c"] / m["b"] for m in readings]
            both = aa + [1.0 / r for r in aa]
            ratio, band = statistics.median(change), [min(both), max(both)]
            n = readings[0]["items"]
            out[name] = {
                "items": n, "clock": "process" if name in PROCESS_CLOCK else "thread",
                "a_us": statistics.median(m["a"] for m in readings) / n * 1e6,
                "b_us": statistics.median(m["b"] for m in readings) / n * 1e6,
                "ratio": ratio, "ratios": change, "aa_band": band, "aa_ratios": aa,
                "within_band": band[0] <= ratio <= band[1],
            }
            o = out[name]
            print(f"{name:20s} {n:5d} items  a {o['a_us']:10.2f} us  b {o['b_us']:10.2f} us  "
                  f"b/a {ratio:.3f} [{min(change):.3f}, {max(change):.3f}]  "
                  f"A/A band [{band[0]:.3f}, {band[1]:.3f}]  "
                  f"{'within' if o['within_band'] else 'outside'}", flush=True)
        sys.path.remove(tmp)
    if args.out:
        bench = json.loads(args.out.read_text()) if args.out.exists() else {}
        bench["layers"] = {
            "rounds": ROUNDS, "runs": RUNS, "members": MEMBERS,
            "nproc": os.cpu_count(), "python": sys.version.split()[0], "results": out,
        }
        args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
