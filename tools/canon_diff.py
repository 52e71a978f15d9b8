"""Compare the canonical outputs of two checkouts.

    python tools/canon_diff.py BASE_DIR [HEAD_DIR]

``HEAD_DIR`` defaults to this checkout. Each checkout computes its outputs
in a child process that imports its own ``src``, ``tests/helpers.py`` and
``perfbench`` (read only), on two input sets:

* the digest set of ``tests/test_canon.py``: 1,000 seeded trees from each
  ``tests/helpers.py`` generator and the six family templates (3,006
  trees). Each gives its canonical tokens, canonical infix, manual tokens
  and three ``equivalent`` verdicts: against its branch-swapped twin, of
  its decoded canonical tokens, and against the tree before it;
* the benchmark corpus (``perfbench/run.py`` ``setup``) of both workloads
  at seeds 1 and 9001 (18,000 members). Each gives its canonical tokens,
  manual tokens, round-trip verdict and check result
  (``perfbench/corpus.py`` ``process`` and ``check``).

An output that raises a ``PdesymError`` is that error as ``Type: message``,
so a changed message counts as a changed output. For each output kind the
tool prints how many outputs changed, how verdicts moved, and the first
``EXAMPLES`` changed examples.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS_SEEDS = (1, 9001)
EXAMPLES = 3  # changed examples printed per output kind
# (output kind, whether its values are verdicts whose moves are tallied)
DIGEST_KINDS = (("canonical tokens", False), ("canonical infix", False),
                ("manual tokens", False), ("equivalent to swapped", True),
                ("decoded tokens equivalent", True), ("equivalent to previous", True))
CORPUS_KINDS = (("corpus canonical tokens", False), ("corpus manual tokens", False),
                ("corpus round trip", True), ("corpus check", True))


def dump(checkout: Path) -> dict:
    """The outputs of ``checkout``: each kind's values, and a label for each
    input of the digest set and of the corpus."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "tests"), str(checkout / "perfbench")]
    import numpy as np

    import run  # perfbench/run.py: the workloads and their corpus
    from corpus import check, process
    from helpers import random_deriv_tree, random_general_tree, random_manual_tree
    from pdesym.canon import canonicalize, equivalent
    from pdesym.datagen import FAMILIES, equation_for
    from pdesym.errors import PdesymError
    from pdesym.expr import to_infix
    from pdesym.perturb import PerturbConfig, swap_branches
    from pdesym.tokens import from_tokens, to_canonical_tokens, to_manual_tokens

    def failure(exc):
        return f"{type(exc).__name__}: {exc}"

    def text(output):
        try:
            return str(output())
        except PdesymError as exc:
            return failure(exc)

    values = {kind: [] for kind, _ in DIGEST_KINDS + CORPUS_KINDS}
    labels = {"digest": [], "corpus": []}
    trees = []
    for seed, make in ((1, random_manual_tree), (2, random_general_tree), (3, random_deriv_tree)):
        rng = np.random.default_rng(seed)
        trees += [make(rng) for _ in range(1000)]
    trees += [equation_for(spec, spec.q1, spec.q2).residual for spec in FAMILIES.values()]
    previous = trees[-1]
    for i, tree in enumerate(trees):
        swapped = swap_branches(tree, PerturbConfig(swap_prob=0.5, seed=i))
        outputs = (
            lambda: to_canonical_tokens(tree).text,
            lambda: to_infix(canonicalize(tree)),
            lambda: to_manual_tokens(tree).text,
            lambda: equivalent(tree, swapped),
            lambda: equivalent(from_tokens(to_canonical_tokens(tree)), tree),
            lambda: equivalent(tree, previous),
        )
        for (kind, _), output in zip(DIGEST_KINDS, outputs):
            values[kind].append(text(output))
        labels["digest"].append(f"digest tree {i}: {text(lambda: to_infix(tree))}")
        previous = tree
    for name, workload in run.WORKLOADS.items():
        for seed in CORPUS_SEEDS:
            for j, m in enumerate(run.setup(workload, seed)):
                try:
                    out = process(m)
                except PdesymError as exc:
                    outs = (failure(exc),) * 4
                else:
                    outs = (out.canonical.text, out.manual and out.manual.text,
                            out.round_trip, check(m, out))
                for (kind, _), output in zip(CORPUS_KINDS, outs):
                    values[kind].append(str(output))
                labels["corpus"].append(f"{name} seed {seed} member {j} ({m.kind}): "
                                        f"{to_infix(m.template.residual)}")
    return {"values": values, "labels": labels}


def outputs_of(checkout: Path) -> dict:
    """:func:`dump` of ``checkout``, run in a child process."""
    done = subprocess.run([sys.executable, __file__, "--dump", str(checkout)],
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def report(base: dict, head: dict) -> None:
    for kinds, labels in ((DIGEST_KINDS, "digest"), (CORPUS_KINDS, "corpus")):
        for kind, verdicts in kinds:
            pairs = list(zip(base["values"][kind], head["values"][kind]))
            changed = [i for i, (a, b) in enumerate(pairs) if a != b]
            print(f"{kind}: {len(changed)} of {len(pairs)} changed")
            if verdicts:
                moves = Counter(pairs[i] for i in changed)
                for (a, b), n in sorted(moves.items()):
                    print(f"    {a} -> {b}: {n}")
            for i in changed[:EXAMPLES]:
                print(f"  {head['labels'][labels][i]}\n    base: {pairs[i][0]}\n"
                      f"    head: {pairs[i][1]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout to compare against")
    parser.add_argument("head", type=Path, nargs="?", default=ROOT,
                        help="checkout to compare (default: this one)")
    args = parser.parse_args(argv)
    report(outputs_of(args.base.resolve()), outputs_of(args.head.resolve()))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--dump"]:  # the child process of outputs_of
        json.dump(dump(Path(sys.argv[2])), sys.stdout)
    else:
        sys.exit(main())
