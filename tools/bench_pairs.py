"""Alternating A/B runs of the benchmark between two commits, summarized as
a BENCH json file.

    python3 tools/bench_pairs.py --base <commit> --change <commit> \\
        --workdir /tmp/ab --out BENCH_<n>.json

Each commit is exported with ``git archive`` into its own directory under
``--workdir``, so only committed files are measured. Every workload runs
``PAIRS`` pairs at each of ``SEEDS``. A pair runs ``perfbench/run.py
--trace 0`` for ``BENCHMARK.json``'s ``run_seconds`` once in each
directory, the side that goes first alternating from pair to pair, and
reads each run's result from that directory's ``perfbench/out/``. For
every workload and seed, and every end-to-end metric that
``BENCHMARK.json`` names, the file records each side's runs, median and
quartiles, the ratio of the medians, the pairs the change won, and whether
the medians differ by more than the distance between the base's quartiles
(the interquartile range, IQR). At the end
it prints the same comparison to stderr, one line per workload, seed and
metric. Run from the repository root.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 9001)
PAIRS = 10


def export(commit: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                   cwd=checkout, check=True, capture_output=True)
    out = checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(out.read_text())


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(metric: dict, base: list[float], change: list[float]) -> dict:
    sign = 1.0 if metric["better"] == "higher" else -1.0
    b, c = summary(base), summary(change)
    return {
        "unit": metric["unit"], "better": metric["better"], "base": b, "change": c,
        "ratio": c["median"] / b["median"] if b["median"] else None,
        "change_wins": sum(sign * (y - x) > 0 for x, y in zip(base, change)),
        "beyond_base_iqr": abs(c["median"] - b["median"]) > b["q3"] - b["q1"],
    }


def summary_line(result: dict, name: str) -> str:
    m = result["metrics"][name]
    b, c = m["base"], m["change"]
    ratio = "n/a" if m["ratio"] is None else f"{m['ratio']:.3f}x"
    return (f"{result['workload']} seed {result['seed']} {name} ({m['unit']}, "
            f"{m['better']} is better): base {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}], "
            f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}], ratio {ratio}, "
            f"change won {m['change_wins']}/{result['pairs']} pairs, "
            f"{'beyond' if m['beyond_base_iqr'] else 'within'} the base IQR")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", required=True, help="commit the change is measured against")
    p.add_argument("--change", required=True)
    p.add_argument("--workdir", type=Path, required=True, help="a directory that does not exist")
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    commits = {side: subprocess.run(["git", "-C", str(ROOT), "rev-parse", getattr(args, side)],
                                    check=True, capture_output=True, text=True).stdout.strip()
               for side in ("base", "change")}
    for side, commit in commits.items():
        export(commit, args.workdir / side)
    results, env = [], None
    seconds = spec["run_seconds"]
    for seed in SEEDS:
        for workload in (w["name"] for w in spec["workloads"]):
            runs = {"base": [], "change": []}
            for k in range(PAIRS):
                for side in ("base", "change") if k % 2 == 0 else ("change", "base"):
                    result = run(args.workdir / side, workload, seed, seconds)
                    env = env or result["env"]
                    runs[side].append(result["result"])
                    print(f"{workload} seed {seed} pair {k} {side}: "
                          f"correct={result['result']['correct']}", file=sys.stderr)
            results.append({
                "workload": workload, "seed": seed, "pairs": PAIRS,
                "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
                "metrics": {m["name"]: compare(m, *([r["metrics"][m["name"]]["value"] for r in runs[side]]
                                                    for side in ("base", "change")))
                            for m in spec["end_to_end"]},
            })
            bench = {  # written after every workload, so a stopped run keeps what it has
                "commits": commits,
                "seconds": seconds,
                "env": {"nproc": env["nproc"], "cpu": env["cpu"], "python": env["python"],
                        "numpy": env["numpy"],
                        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
                "results": results,
            }
            args.out.write_text(json.dumps(bench, indent=1) + "\n")
    for result in results:
        for name in result["metrics"]:
            print(summary_line(result, name), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
