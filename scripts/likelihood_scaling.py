"""Per-call cost of `log_posterior` against taxon count, plan against dict pruning.

    python3 scripts/likelihood_scaling.py [--taxa 8,16,32,64] [--columns N[,N...]]
                                          [--repeats 5] [--steps 200] [--seed 1]

Run from the root of a checkout; the program is imported from src/ and
the dict pruning it replaced from tests/oracles.py.  For each taxon count
the script draws one alignment (each column is one base with probability
0.7 per taxon, else uniform over the five symbols) and one random binary
tree with lengths uniform on [0.02, 0.3], then times:

- miss: `log_posterior` on a fresh copy of the alignment, so that the
  plan is compiled in the call;
- hit: `log_posterior` again on an alignment that holds the plan, as a
  length move sees it (a plan over the cache budget is not held, so
  this call compiles it again: `cached` says which);
- dict: the reference dict pruning plus the same gamma prior, once (it
  is slow at 32 taxa and above);
- step: one Metropolis-Hastings step of a chain with the documented
  proposal (tau 0.9, sigma 0.05) from that tree, averaged over
  `--steps` steps: length moves hit the cache, NNI proposals miss it.

`--columns` takes one count, or one per taxon count.  By default it is
200, and 40 from 64 taxa up, where the plan exceeds the cache budget and
every call compiles it (seconds at 200 columns); BENCH_8.json holds the
default run.  Each time is a median in milliseconds.  Prints one JSON
object with the timings, the plan's size (pairs of cells its folds
examine, and the pattern blocks it is compiled in) and the relative
difference between the two values.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import numpy as np  # noqa: E402

from bhvphylo import phylo_model  # noqa: E402
from bhvphylo.mcmc import ProposalConfig, RunConfig, run  # noqa: E402
from bhvphylo.phylo_model import (  # noqa: E402
    Alignment,
    DirichletPrior,
    GammaPrior,
    log_posterior,
    log_prior,
)
from bhvphylo.treespace import TaxonTable, Tree, random_binary_splits  # noqa: E402
from oracles import reference_log_likelihood  # noqa: E402

SHARED = 0.7


def synthetic(n_taxa: int, n_columns: int, rng) -> tuple[Tree, Alignment]:
    taxa = TaxonTable(tuple(f"t{i:02d}" for i in range(n_taxa)))
    columns = []
    for _ in range(n_columns):
        base = rng.randrange(5)
        columns.append(tuple(
            base if rng.random() < SHARED else rng.randrange(5) for _ in range(n_taxa)
        ))
    splits = sorted(random_binary_splits(n_taxa, rng))
    tree = Tree(
        taxa,
        tuple(rng.uniform(0.02, 0.3) for _ in range(n_taxa)),
        {s: rng.uniform(0.02, 0.3) for s in splits},
    )
    return tree, Alignment.from_columns(taxa, columns)


def timed(call, repeats: int) -> tuple[float, float]:
    """The last value and the median time in ms over `repeats` calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        value = call()
        times.append(time.perf_counter() - start)
    return value, 1e3 * statistics.median(times)


def measure(n_taxa: int, n_columns: int, repeats: int, steps: int, rng) -> dict:
    tree, alignment = synthetic(n_taxa, n_columns, rng)
    dirichlet, gamma = DirichletPrior(), GammaPrior()

    copies = iter([Alignment.from_columns(alignment.taxa, alignment.columns)
                   for _ in range(repeats)])

    def miss():
        return log_posterior(tree, next(copies), dirichlet, gamma)

    def hit():
        return log_posterior(tree, alignment, dirichlet, gamma)

    def dict_pruning():
        return reference_log_likelihood(tree, alignment, dirichlet) + log_prior(tree, gamma)

    _, miss_ms = timed(miss, repeats)
    hit()
    value, hit_ms = timed(hit, repeats)
    reference, dict_ms = timed(dict_pruning, 1)
    cached = bool(alignment.plans)
    # compiled once more, block by block, so that no whole plan is held
    blocks = [plan.pairs for plan in phylo_model._compile_blocks(tree, alignment, dirichlet.alpha)]
    config = RunConfig(iterations=steps, burn_in=0, proposal=ProposalConfig(seed=n_taxa))
    _, chain_ms = timed(lambda: run(alignment, config, initial=tree), 1)
    return {
        "taxa": n_taxa,
        "columns": n_columns,
        "patterns": len(alignment.pattern_index),
        "miss_ms": round(miss_ms, 3),
        "hit_ms": round(hit_ms, 3),
        "dict_ms": round(dict_ms, 3),
        "step_ms": round(chain_ms / steps, 3),
        "plan_pairs": sum(blocks),
        "blocks": len(blocks),
        "cached": cached,
        "relative_difference": abs(value - reference) / abs(reference),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--taxa", default="8,16,32,64")
    parser.add_argument("--columns")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    taxa = [int(x) for x in args.taxa.split(",")]
    if args.columns is None:
        columns = [40 if n >= 64 else 200 for n in taxa]
    else:
        columns = [int(x) for x in args.columns.split(",")]
    if len(columns) == 1:
        columns *= len(taxa)
    if len(columns) != len(taxa):
        parser.error("--columns takes one count or one per taxon count")
    rng = random.Random(args.seed)
    rows = []
    for n_taxa, n_columns in zip(taxa, columns):
        rows.append(measure(n_taxa, n_columns, args.repeats, args.steps, rng))
        print(json.dumps(rows[-1]), file=sys.stderr)
    arguments = sys.argv[1:] if argv is None else argv
    host = (f"{platform.machine()}, {os.cpu_count()} cores, "
            f"Python {platform.python_version()}, numpy {np.__version__}")
    print(json.dumps({
        "command": " ".join(["python3 scripts/likelihood_scaling.py", *arguments]),
        "host": host,
        "rows": rows,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
