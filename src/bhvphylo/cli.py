"""Command line pipeline: sampling, estimation, and summaries.

Every command is deterministic given its inputs and seed; `sample`
writes a manifest recording everything needed to reproduce its outputs
byte for byte.  Exit codes: 0 success, 2 input error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import warnings

import numpy as np

from . import __version__
from .frechet import EstimatorConfig, mean, median, variance
from .geodesic import distance, interpolate
from .mcmc import (
    ChainAbortError,
    ProposalConfig,
    RunConfig,
    kept_iterations,
    run,
    trace_csv_lines,
)
from .phylo_model import (
    ALPHABET,
    Alignment,
    DirichletPrior,
    GammaPrior,
    N_SYMBOLS,
    mutation_prob,
)
from .summary import (
    DEFAULT_BINS,
    compare_mean_consensus,
    consensus_majority,
    render_report,
    split_frequencies,
    stats_csv_lines,
)
from .treespace import (
    TaxonTable,
    Tree,
    load_samples,
    parse_newick,
    serialize_newick,
    tree_topology,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


class InputError(ValueError):
    pass


def read_fasta(path) -> list[tuple[str, str]]:
    """Minimal FASTA reader; the name is the first header token."""
    records: list[tuple[str, list[str]]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            if line.startswith(">"):
                name = line[1:].split()[0] if line[1:].split() else ""
                if not name:
                    raise InputError(f"{path}: empty FASTA header")
                records.append((name, []))
            else:
                if not records:
                    raise InputError(f"{path}: sequence data before any header")
                records[-1][1].append(line)
    if not records:
        raise InputError(f"{path}: no sequences")
    sequences = [(name, "".join(parts)) for name, parts in records]
    lengths = {len(seq) for _, seq in sequences}
    if len(lengths) > 1:
        raise InputError(f"{path}: ragged alignment (lengths {sorted(lengths)})")
    names = [name for name, _ in sequences]
    if len(set(names)) != len(names):
        raise InputError(f"{path}: duplicate sequence name")
    return sequences


def alignment_from_fasta(path, outgroup: str | None) -> Alignment:
    sequences = read_fasta(path)
    if len(sequences) < 4:
        raise InputError(f"{path}: need at least 4 sequences, got {len(sequences)}")
    names = [name for name, _ in sequences]
    if outgroup is None:
        outgroup = names[0]
    if outgroup not in names:
        raise InputError(f"outgroup {outgroup!r} not among the sequences")
    # same canonical taxon order as parse_newick: outgroup first, rest sorted
    ordered = [outgroup] + sorted(n for n in names if n != outgroup)
    by_name = dict(sequences)
    taxa = TaxonTable(tuple(ordered))
    return Alignment.from_sequences(taxa, [by_name[n] for n in ordered])


def _read_tree_arg(arg: str, taxa=None, outgroup=None) -> Tree:
    """A literal Newick string (starts with '(') or a path to one."""
    text = arg
    if not arg.lstrip().startswith("("):
        with open(arg) as handle:
            text = handle.read().strip()
    return parse_newick(text, taxa=taxa, outgroup=outgroup)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        digest.update(handle.read())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Commands

def cmd_sample(args) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")  # each message once, not once per symbol
        alignment = alignment_from_fasta(args.fasta, args.outgroup)
    for item in caught:
        print(f"warning: {item.message}", file=sys.stderr)
    config = RunConfig(
        chains=args.chains,
        iterations=args.iters,
        burn_in=args.burnin,
        thin=args.thin,
        proposal=ProposalConfig(tau=args.tau, sigma=args.sigma, seed=args.seed),
        dirichlet=DirichletPrior((args.alpha,) * N_SYMBOLS),
        gamma=GammaPrior(shape=args.shape, scale=args.scale),
    )
    samples, trace = run(alignment, config)

    kept = kept_iterations(config)
    sample_lines = []
    for index, tree in enumerate(samples):
        chain = index // len(kept)
        iteration = kept[index % len(kept)]
        sample_lines.append(f"# chain={chain} iter={iteration}")
        sample_lines.append(serialize_newick(tree))

    manifest = {
        "tool": "bhvphylo",
        "version": __version__,
        "command": "sample",
        "input": {"path": str(args.fasta), "sha256": _sha256(args.fasta)},
        "taxa": list(alignment.taxa.names),
        "columns": alignment.n_columns,
        "parameters": {
            "alpha": args.alpha,
            "shape": args.shape,
            "scale": args.scale,
            "tau": args.tau,
            "sigma": args.sigma,
            "chains": args.chains,
            "iters": args.iters,
            "burnin": args.burnin,
            "thin": args.thin,
            "seed": args.seed,
            "outgroup": alignment.taxa.names[0],
        },
        "chain_seeds": [args.seed + c for c in range(args.chains)],
    }

    _write_lines(f"{args.out}.samples", sample_lines)
    _write_lines(f"{args.out}.trace.csv", trace_csv_lines(trace, config.iterations))
    with open(f"{args.out}.manifest.json", "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        f"wrote {len(samples)} samples, {len(trace)} trace rows to {args.out}.*",
        file=sys.stderr,
    )
    return EXIT_OK


def _write_lines(path, lines) -> None:
    with open(path, "w") as handle:
        for line in lines:
            handle.write(line)
            handle.write("\n")


def _estimator_config(args) -> EstimatorConfig:
    return EstimatorConfig(
        order=args.order,
        iterations=args.steps,
        seed=args.seed,
        tolerance=args.tolerance,
    )


def _load_trees(path) -> list[Tree]:
    trees = load_samples(path)
    if not trees:
        raise InputError(f"{path}: no trees")
    return trees


def _print_estimate(args, estimator) -> int:
    trees = _load_trees(args.samples)
    estimate = estimator(trees, _estimator_config(args))
    print(serialize_newick(estimate))
    print(f"# variance= {variance(trees, estimate):.17g}")
    return EXIT_OK


def cmd_mean(args) -> int:
    return _print_estimate(args, mean)


def cmd_median(args) -> int:
    return _print_estimate(args, median)


def cmd_consensus(args) -> int:
    print(serialize_newick(consensus_majority(_load_trees(args.samples))))
    return EXIT_OK


def cmd_splits(args) -> int:
    trees = _load_trees(args.samples)
    print("\n".join(stats_csv_lines(split_frequencies(trees, bins=args.bins))))
    return EXIT_OK


def cmd_compare(args) -> int:
    trees = _load_trees(args.samples)
    mean_tree = mean(trees, EstimatorConfig(iterations=args.steps, seed=args.seed))
    consensus = consensus_majority(trees)
    rows = compare_mean_consensus(trees, mean_tree, consensus)
    print(render_report(rows, trees[0].taxa))
    return EXIT_OK


def cmd_distance(args) -> int:
    first = _read_tree_arg(args.tree_a, outgroup=args.outgroup)
    second = _read_tree_arg(args.tree_b, taxa=first.taxa)
    print(f"{distance(first, second):.17g}")
    return EXIT_OK


def cmd_interpolate(args) -> int:
    first = _read_tree_arg(args.tree_a, outgroup=args.outgroup)
    second = _read_tree_arg(args.tree_b, taxa=first.taxa)
    print(serialize_newick(interpolate(first, second, args.lam)))
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.columns < 0:
        raise InputError(f"--columns must be nonnegative, got {args.columns}")
    tree = _read_tree_arg(args.tree, outgroup=args.outgroup)
    rng = np.random.default_rng(args.seed)
    alpha = (args.alpha,) * N_SYMBOLS
    root = tree_topology(tree)
    names = tree.taxa.names
    sequences = {name: [] for name in names}

    def evolve(node, parent_state, theta):
        if node.length is None:
            state = parent_state
        elif rng.uniform() < mutation_prob(node.length):
            state = int(rng.choice(N_SYMBOLS, p=theta))
        else:
            state = parent_state
        if node.is_leaf():
            sequences[names[node.leaf]].append(ALPHABET[state])
        for child in node.children:
            evolve(child, state, theta)

    for _ in range(args.columns):
        theta = rng.dirichlet(alpha)
        root_state = int(rng.choice(N_SYMBOLS, p=theta))
        evolve(root, root_state, theta)

    lines = []
    for name in names:
        lines.append(f">{name}")
        lines.append("".join(sequences[name]))
    if args.out:
        _write_lines(args.out, lines)
    else:
        for line in lines:
            print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bhvphylo",
        description="Posterior tree sampling and geodesic tree-space summaries",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sample = sub.add_parser("sample", help="run the MCMC sampler on a FASTA alignment")
    sample.add_argument("fasta", help="alignment in FASTA format")
    sample.add_argument("--out", required=True, help="output prefix")
    sample.add_argument("--seed", type=int, required=True, help="RNG seed")
    sample.add_argument("--alpha", type=float, default=0.2, help="Dirichlet pseudocount")
    sample.add_argument("--shape", type=float, default=1.0, help="gamma prior shape")
    sample.add_argument("--scale", type=float, default=0.1, help="gamma prior scale")
    sample.add_argument("--tau", type=float, default=0.9, help="length-move probability")
    sample.add_argument("--sigma", type=float, default=0.05, help="length proposal stddev")
    sample.add_argument("--chains", type=int, default=1)
    sample.add_argument("--iters", type=int, default=20000)
    sample.add_argument("--burnin", type=int, default=4000)
    sample.add_argument("--thin", type=int, default=1)
    sample.add_argument("--outgroup", default=None, help="taxon used as leaf 0")
    sample.set_defaults(func=cmd_sample)

    for name, func in (("mean", cmd_mean), ("median", cmd_median)):
        cmd = sub.add_parser(name, help=f"geodesic {name} of a samples file")
        cmd.add_argument("samples", help="file of Newick lines")
        cmd.add_argument("--order", choices=("random", "cyclic"), default="random")
        cmd.add_argument("--steps", type=int, default=None, help="proximal steps")
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--tolerance", type=float, default=0.0)
        cmd.set_defaults(func=func)

    consensus = sub.add_parser("consensus", help="majority-rule consensus tree")
    consensus.add_argument("samples")
    consensus.set_defaults(func=cmd_consensus)

    splits = sub.add_parser("splits", help="split frequencies and length histograms")
    splits.add_argument("samples")
    splits.add_argument("--bins", type=int, default=DEFAULT_BINS)
    splits.set_defaults(func=cmd_splits)

    compare = sub.add_parser("compare", help="consensus versus mean, edge by edge")
    compare.add_argument("samples")
    compare.add_argument("--steps", type=int, default=None, help="proximal steps")
    compare.add_argument("--seed", type=int, default=0)
    compare.set_defaults(func=cmd_compare)

    dist = sub.add_parser("distance", help="geodesic distance between two trees")
    dist.add_argument("tree_a", help="Newick string or file")
    dist.add_argument("tree_b", help="Newick string or file")
    dist.add_argument("--outgroup", default=None)
    dist.set_defaults(func=cmd_distance)

    interp = sub.add_parser("interpolate", help="point along the geodesic")
    interp.add_argument("tree_a")
    interp.add_argument("tree_b")
    interp.add_argument("--lambda", dest="lam", type=float, required=True)
    interp.add_argument("--outgroup", default=None)
    interp.set_defaults(func=cmd_interpolate)

    simulate = sub.add_parser(
        "simulate", help="draw a synthetic alignment from a tree"
    )
    simulate.add_argument("tree", help="Newick string or file")
    simulate.add_argument("--columns", type=int, required=True)
    simulate.add_argument("--seed", type=int, required=True)
    simulate.add_argument("--alpha", type=float, default=0.2)
    simulate.add_argument("--out", default=None, help="FASTA path (default stdout)")
    simulate.add_argument("--outgroup", default=None)
    simulate.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ArithmeticError, ChainAbortError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entrypoint() -> None:
    sys.exit(main(argv=None))


if __name__ == "__main__":
    entrypoint()
