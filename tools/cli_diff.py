"""Compare the bytes the ``pdesym`` CLI writes in two checkouts.

    python tools/cli_diff.py BASE_DIR [HEAD_DIR]

``HEAD_DIR`` defaults to this checkout. In each checkout the tool runs the
CLI as child processes (``python -m pdesym.cli`` with ``PYTHONPATH`` set to
that checkout's ``src``), all in one fresh working directory, so the paths
the commands echo are the same relative paths on both sides:

* ``gen --out data --params 2 --ics 2 --seed 17``, every family;
* per record of that manifest: ``refine --particles 40 --steps 3``, and
  ``eval --trajectory`` of the record's trajectory with the record as the
  truth and the family's next record as the learned equation;
* ``parse``, ``canon``, ``tokens`` in both dialects and ``perturb`` (seed 7)
  in both dialects on each README example;
* ``solve`` of ``burgers`` and of ``icl_sine`` with default flags, of one
  ``icl_sine`` frame 60 time units long (about 19,200 substeps), and of
  ``burgers`` at ``q1 = 1e300``, which stops at the substep cap (exit 3)
  after a few seconds;
* ``study --families burgers,icl_sine --trials 2``, as JSON and as CSV;
* commands the CLI rejects, so that exit codes and JSON error lines are
  compared too: a flag argparse does not know, flag values the library
  rejects (``refine --process-var nan``, ``--alpha0 abc`` and ``--steps
  99`` on the manifest's first record, ``solve --q1 nan``, ``study
  --trials 0``), ``eval`` given both ``--learned`` and ``--learned-tokens``,
  ``eval`` of a learned law whose q1 overflows once divided by its ``u_t``
  coefficient, and ``canon`` of an unknown symbol.

It prints every command whose exit code, stdout or stderr differs, and
every file in the working directory that differs or exists on one side
only, each with the first lines of a diff, and then how many differ.
"""
from __future__ import annotations

import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the example equations of README.md, the failing ones included
EXAMPLES = (
    "x - 1 + 1 + y",
    "y + x",
    "u*u_x + u_t + 0.0484*u_xxx = 0",
    "u_t + 0.9*u*u_x",
    "u_t + 0.5*(u^2)_x = 0.01*u_xx",
    "u_t + 0.955 cos(u)u_x = 0",
    "cos(1.5*x_1) + (x_2^2 - 2.6)",
    "0.1*x + 0.2*x + 0.3*x",
    "0.3*x + (0.2*x + 0.1*x)",
    "2^100000",
    "1e400",
)
# (label, flags) of each solve run
SOLVES = (
    ("burgers", ("--family", "burgers")),
    ("icl_sine", ("--family", "icl_sine")),
    ("icl_sine long frame", ("--family", "icl_sine", "--t-final", "60", "--nt", "2")),
    ("burgers tiny steps", ("--family", "burgers", "--q1", "1e300", "--nt", "3")),
)
# u_t and u^2 flux terms whose quotient q1 overflows
OVERFLOW_TOKENS = "+ × 1e-300 ∂ ( u(x,t) , t ) × 1e+300 ∂ ( pow u(x,t) 2 , x )"
DIFF_LINES = 12


def _commands(work: Path, run) -> None:
    """Run every command of the comparison through ``run(label, *argv)``."""
    run("gen", "gen", "--out", "data", "--params", "2", "--ics", "2", "--seed", "17")
    entries = json.loads((work / "data" / "manifest.json").read_text())["entries"]
    for entry in entries:
        eq, traj = f"data/{entry['equation']}", f"data/{entry['trajectory']}"
        run(f"refine {entry['id']}", "refine", "--equation", eq, "--observations", traj,
            "--particles", "40", "--steps", "3")
        family = [e for e in entries if e["family"] == entry["family"]]
        learned = family[(family.index(entry) + 1) % len(family)]
        run(f"eval {entry['id']}", "eval", "--truth", eq,
            "--learned", f"data/{learned['equation']}", "--trajectory", traj)
    for i, text in enumerate(EXAMPLES):
        run(f"parse {i}", "parse", "--expr", text)
        run(f"canon {i}", "canon", "--expr", text)
        for dialect in ("manual", "canonical"):
            run(f"tokens {dialect} {i}", "tokens", "--dialect", dialect, "--eq", text)
            run(f"perturb {dialect} {i}", "perturb", "--dialect", dialect, "--eq", text,
                "--seed", "7")
    for i, (label, flags) in enumerate(SOLVES):
        run(f"solve {label}", "solve", *flags, "--output-grid", f"solve_{i}.grid")
    for fmt in ("json", "csv"):
        run(f"study {fmt}", "study", "--families", "burgers,icl_sine", "--trials", "2",
            "--format", fmt)
    eq, traj = f"data/{entries[0]['equation']}", f"data/{entries[0]['trajectory']}"
    refine = ("refine", "--equation", eq, "--observations", traj)
    for label, argv in (
        ("bad flag", ("tokens", "--bad-flag", "x")),
        ("process-var nan", (*refine, "--process-var", "nan")),
        ("q1 nan", ("solve", "--family", "burgers", "--q1", "nan", "--output-grid", "nan.grid")),
        ("alpha0 abc", (*refine, "--alpha0", "abc")),
        ("steps 99", (*refine, "--steps", "99")),
        ("trials 0", ("study", "--families", "burgers", "--trials", "0")),
        ("both learned", ("eval", "--truth", eq, "--learned", eq,
                          "--learned-tokens", "garbage tokens")),
        ("overflow", ("eval", "--truth", eq, "--learned-tokens", OVERFLOW_TOKENS,
                      "--trajectory", traj)),
        ("unknown symbol", ("canon", "--expr", "tan(u)")),
    ):
        run(f"rejected {label}", *argv)


def outputs_of(checkout: Path) -> dict:
    """Each command's exit code, stdout and stderr, and each file the
    commands left in the working directory, run on ``checkout``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)

        def run(label, *argv):
            done = subprocess.run([sys.executable, "-m", "pdesym.cli", *argv], cwd=work,
                                  env=env, capture_output=True)
            for part, value in (("exit code", str(done.returncode).encode()),
                                ("stdout", done.stdout), ("stderr", done.stderr)):
                out[f"{label}: {part}"] = value

        _commands(work, run)
        for path in sorted(work.rglob("*")):
            if path.is_file():
                out[f"file {path.relative_to(work)}"] = path.read_bytes()
    return out


def report(base: dict, head: dict) -> int:
    """Print each output that differs; return how many differ."""
    changed = 0
    for key in sorted(base.keys() | head.keys()):
        a, b = base.get(key), head.get(key)
        if a == b:
            continue
        changed += 1
        if a is None or b is None:
            print(f"{key}: only in {'head' if a is None else 'base'}")
            continue
        print(f"{key}: differs")
        lines = difflib.unified_diff(a.decode(errors="replace").splitlines(),
                                     b.decode(errors="replace").splitlines(),
                                     "base", "head", lineterm="", n=1)
        for line in list(lines)[2:2 + DIFF_LINES]:
            print(f"    {line}")
    print(f"{changed} of {len(base.keys() | head.keys())} outputs differ")
    return changed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout to compare against")
    parser.add_argument("head", type=Path, nargs="?", default=ROOT,
                        help="checkout to compare (default: this one)")
    args = parser.parse_args(argv)
    report(outputs_of(args.base.resolve()), outputs_of(args.head.resolve()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
