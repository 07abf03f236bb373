"""Command line pipeline: sampling, estimation, and summaries.

Every command is deterministic given its inputs and seed; `sample`
writes a manifest recording everything needed to reproduce its outputs
byte for byte.  Exit codes: 0 success, 2 input error (a usage error
among them), 3 numerical failure.  The command line is the table
COMMANDS, read by `parse_args`.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import random
import sys
import warnings
from types import SimpleNamespace
from typing import Callable, NamedTuple

from . import __version__
from .frechet import EstimatorConfig, mean, median, variance
from .geodesic import distance, interpolate
from .mcmc import ProposalConfig, RunConfig, kept_iterations, run, trace_csv_lines
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
    Tree,
    canonical_taxa,
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
    """Minimal FASTA reader; the name is the first header token, and
    whitespace inside sequence lines is dropped."""
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
                records[-1][1].extend(line.split())
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
    by_name = dict(sequences)
    if outgroup is not None and outgroup not in by_name:
        raise InputError(f"outgroup {outgroup!r} not among the sequences")
    taxa = canonical_taxa(list(by_name), outgroup)
    return Alignment.from_sequences(taxa, [by_name[n] for n in taxa.names])


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
    config = RunConfig(
        chains=args.chains,
        iterations=args.iters,
        burn_in=args.burnin,
        thin=args.thin,
        proposal=ProposalConfig(tau=args.tau, sigma=args.sigma, seed=args.seed),
        dirichlet=DirichletPrior((args.alpha,) * N_SYMBOLS),
        gamma=GammaPrior(shape=args.shape, scale=args.scale),
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")  # each message once, not once per symbol
        alignment = alignment_from_fasta(args.fasta, args.outgroup)
    for item in caught:
        print(f"warning: {item.message}", file=sys.stderr)
    samples, trace = run(alignment, config)

    kept = kept_iterations(config)
    sample_lines = []
    for index, tree in enumerate(samples):
        chain = index // len(kept)
        iteration = kept[index % len(kept)]
        sample_lines.append(f"# chain={chain} iter={iteration}")
        sample_lines.append(serialize_newick(tree))

    # every option but --out, with the outgroup as resolved
    parameters = {name[2:]: getattr(args, name[2:]) for name in COMMANDS["sample"].options}
    del parameters["out"]
    parameters["outgroup"] = alignment.taxa.names[0]
    manifest = {
        "tool": "bhvphylo",
        "version": __version__,
        "command": "sample",
        "input": {"path": str(args.fasta), "sha256": _sha256(args.fasta)},
        "taxa": list(alignment.taxa.names),
        "columns": len(alignment.columns),
        "parameters": parameters,
        "chain_seeds": [args.seed + c for c in range(args.chains)],
        "python": platform.python_version(),
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


def _load_trees(path) -> list[Tree]:
    trees = load_samples(path)
    if not trees:
        raise InputError(f"{path}: no trees")
    return trees


def _print_estimate(args, estimator) -> int:
    config = EstimatorConfig(
        order=args.order, iterations=args.steps, seed=args.seed, tolerance=args.tolerance
    )
    trees = _load_trees(args.samples)
    estimate = estimator(trees, config)
    # a numerical failure in the variance must not leave a printed estimate
    spread = variance(trees, estimate)
    print(serialize_newick(estimate))
    print(f"# variance= {spread:.17g}")
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
    config = EstimatorConfig(iterations=args.steps, seed=args.seed)
    trees = _load_trees(args.samples)
    mean_tree = mean(trees, config)
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
    alpha = DirichletPrior((args.alpha,) * N_SYMBOLS).alpha
    if args.seed < 0:
        raise InputError(f"seed must be a nonnegative integer, got {args.seed!r}")
    tree = _read_tree_arg(args.tree, outgroup=args.outgroup)
    # gammavariate takes sqrt(2 * shape - 1) and never returns once it is inf
    if 2.0 * (alpha[0] + 1.0) == math.inf:
        raise ArithmeticError(f"Dirichlet pseudocount {alpha[0]!r} is too large to draw from")
    rng = random.Random(args.seed)
    root = tree_topology(tree)
    names = tree.taxa.names
    sequences = {name: [] for name in names}

    def evolve(node, parent_state, theta):
        if node.length is None:
            state = parent_state
        elif rng.random() < mutation_prob(node.length):
            state = rng.choices(range(N_SYMBOLS), theta)[0]
        else:
            state = parent_state
        if node.is_leaf():
            sequences[names[node.leaf]].append(ALPHABET[state])
        for child in node.children:
            evolve(child, state, theta)

    for _ in range(args.columns):
        # Dirichlet weights from Gamma(a) draws, taken in logs as
        # Gamma(a + 1) * U**(1/a) so that small pseudocounts cannot underflow
        logs = [
            math.log(rng.gammavariate(a + 1.0, 1.0)) + math.log(1.0 - rng.random()) / a
            for a in alpha
        ]
        peak = max(logs)
        if peak == -math.inf:  # every weight underflows
            raise ArithmeticError(f"Dirichlet pseudocount {alpha[0]!r} is too small to draw from")
        theta = [math.exp(x - peak) for x in logs]
        evolve(root, rng.choices(range(N_SYMBOLS), theta)[0], theta)

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
# Arguments

class Option(NamedTuple):
    """One `--name VALUE` option of a command."""

    help: str
    type: Callable[[str], object] = str
    default: object = None
    required: bool = False
    choices: tuple[str, ...] = ()
    dest: str | None = None  # attribute it sets; None: the name without `--`


class Command(NamedTuple):
    func: str  # the module global that runs the command
    help: str
    positionals: dict[str, str]  # name -> help, in the order they are given
    options: dict[str, Option]


_SAMPLES = {"samples": "file of Newick lines"}
_TREES = {"tree_a": "Newick string or file", "tree_b": "Newick string or file"}
_OUTGROUP = Option("taxon used as leaf 0")
_STEPS = Option("proximal steps (default: 1000 per sample)", int)
_ORDER_SEED = Option("RNG seed of the visiting order", int, 0)
_ESTIMATOR = {
    "--order": Option(
        "order in which the samples are visited",
        default="random",
        choices=("random", "cyclic"),
    ),
    "--steps": _STEPS,
    "--seed": _ORDER_SEED,
    "--tolerance": Option(
        "stop once a pass over the samples moves the estimate less; 0: never",
        float,
        0.0,
    ),
}

# The whole command line.  `main` looks the command's function up by name
# on each call, so that a wrapper bound to that name is the one called.
COMMANDS = {
    "sample": Command(
        "cmd_sample",
        "run the MCMC sampler on a FASTA alignment",
        {"fasta": "alignment in FASTA format"},
        {
            "--out": Option("output prefix", required=True),
            "--seed": Option("RNG seed of the first chain", int, required=True),
            "--alpha": Option("Dirichlet pseudocount", float, 0.2),
            "--shape": Option("gamma prior shape", float, 1.0),
            "--scale": Option("gamma prior scale", float, 0.1),
            "--tau": Option("length-move probability", float, 0.9),
            "--sigma": Option("length proposal stddev", float, 0.05),
            "--chains": Option("independent chains", int, 1),
            "--iters": Option("iterations per chain", int, 20000),
            "--burnin": Option("iterations dropped from each chain's start", int, 4000),
            "--thin": Option("keep every THIN-th iteration", int, 1),
            "--outgroup": Option("taxon used as leaf 0 (default: the first sequence)"),
        },
    ),
    "mean": Command(
        "cmd_mean", "geodesic mean of a samples file", _SAMPLES, _ESTIMATOR
    ),
    "median": Command(
        "cmd_median", "geodesic median of a samples file", _SAMPLES, _ESTIMATOR
    ),
    "consensus": Command(
        "cmd_consensus", "majority-rule consensus tree", _SAMPLES, {}
    ),
    "splits": Command(
        "cmd_splits",
        "split frequencies and length histograms",
        _SAMPLES,
        {"--bins": Option("histogram bins per split", int, DEFAULT_BINS)},
    ),
    "compare": Command(
        "cmd_compare",
        "consensus versus mean, edge by edge",
        _SAMPLES,
        {"--steps": _STEPS, "--seed": _ORDER_SEED},
    ),
    "distance": Command(
        "cmd_distance",
        "geodesic distance between two trees",
        _TREES,
        {"--outgroup": _OUTGROUP},
    ),
    "interpolate": Command(
        "cmd_interpolate",
        "point along the geodesic",
        _TREES,
        {
            "--lambda": Option(
                "fraction of the way from tree_a to tree_b",
                float,
                required=True,
                dest="lam",
            ),
            "--outgroup": _OUTGROUP,
        },
    ),
    "simulate": Command(
        "cmd_simulate",
        "draw a synthetic alignment from a tree",
        {"tree": "Newick string or file"},
        {
            "--columns": Option("alignment columns", int, required=True),
            "--seed": Option("RNG seed", int, required=True),
            "--alpha": Option("Dirichlet pseudocount", float, 0.2),
            "--out": Option("FASTA path (default: standard output)"),
            "--outgroup": _OUTGROUP,
        },
    ),
}

_PROG = "bhvphylo"
_HELP_ROW = ("-h, --help", "show this help message and exit")


class UsageError(Exception):
    """A command line that COMMANDS does not describe."""

    def __init__(self, command: str | None, message: str):
        super().__init__(message)
        self.command = command


def parse_args(argv: list[str]) -> SimpleNamespace | str:
    """The arguments that `argv` (command first) gives, or the text it asks
    for with `-h`, `--help` or `--version`.

    `--name VALUE` and `--name=VALUE` set one option; the name must match
    exactly, and VALUE may start with `-`.  Any other token that starts
    with `-` is an error, and the rest are the positionals, in order.
    Raises UsageError.
    """
    if not argv:
        raise UsageError(None, "the following arguments are required: command")
    command, *rest = argv
    if command in ("-h", "--help"):
        return _help(None)
    if command == "--version":
        return __version__
    if command not in COMMANDS:
        if command.startswith("-"):
            raise UsageError(None, f"unrecognized arguments: {command}")
        raise UsageError(
            None, f"argument command: {_invalid_choice(command, COMMANDS)}"
        )
    spec = COMMANDS[command]
    values = {"command": command}
    for name, option in spec.options.items():
        values[option.dest or name[2:]] = option.default
    given, positionals = set(), []
    tokens = iter(rest)
    for token in tokens:
        if token in ("-h", "--help"):
            return _help(command)
        if not token.startswith("-"):
            positionals.append(token)
            continue
        name, equals, text = token.partition("=")
        option = spec.options.get(name)
        if option is None:
            raise UsageError(command, f"unrecognized arguments: {token}")
        if not equals:
            text = next(tokens, None)
            if text is None:
                raise UsageError(command, f"argument {name}: expected one argument")
        if option.choices and text not in option.choices:
            raise UsageError(
                command, f"argument {name}: {_invalid_choice(text, option.choices)}"
            )
        try:
            values[option.dest or name[2:]] = option.type(text)
        except ValueError:
            raise UsageError(
                command,
                f"argument {name}: invalid {option.type.__name__} value: {text!r}",
            ) from None
        given.add(name)
    missing = list(spec.positionals)[len(positionals):] + [
        name for name, option in spec.options.items()
        if option.required and name not in given
    ]
    if missing:
        raise UsageError(
            command, f"the following arguments are required: {', '.join(missing)}"
        )
    if len(positionals) > len(spec.positionals):
        extra = " ".join(positionals[len(spec.positionals):])
        raise UsageError(command, f"unrecognized arguments: {extra}")
    values.update(zip(spec.positionals, positionals))
    return SimpleNamespace(**values)


def _invalid_choice(text: str, choices) -> str:
    return f"invalid choice: {text!r} (choose from {', '.join(map(repr, choices))})"


def _metavar(name: str, option: Option) -> str:
    if option.choices:
        return "{" + ",".join(option.choices) + "}"
    return name[2:].upper()


def _usage(command: str | None) -> str:
    """The `usage:` line(s) of the tool, or of one command."""
    if command is None:
        return f"usage: {_PROG} [-h] [--version] {{{','.join(COMMANDS)}}} ..."
    spec = COMMANDS[command]
    parts = ["[-h]"]
    for name, option in spec.options.items():
        part = f"{name} {_metavar(name, option)}"
        parts.append(part if option.required else f"[{part}]")
    parts += spec.positionals
    # continuation lines start under the first part
    line = head = f"usage: {_PROG} {command}"
    lines = []
    for part in parts:
        if len(line) + 1 + len(part) > 79 and line.strip():
            lines.append(line)
            line = " " * len(head)
        line += " " + part
    return "\n".join(lines + [line])


def _help(command: str | None) -> str:
    if command is None:
        description = "Posterior tree sampling and geodesic tree-space summaries"
        sections = {
            "commands:": [(name, spec.help) for name, spec in COMMANDS.items()],
            "options:": [_HELP_ROW, ("--version", "show the version and exit")],
        }
    else:
        spec = COMMANDS[command]
        description = spec.help
        options = [_HELP_ROW]
        for name, option in spec.options.items():
            text = option.help
            if option.default is not None:
                text += f" (default: {option.default})"
            options.append((f"{name} {_metavar(name, option)}", text))
        sections = {
            "positional arguments:": list(spec.positionals.items()),
            "options:": options,
        }
    width = max(len(left) for rows in sections.values() for left, _ in rows)
    lines = [_usage(command), "", description]
    for title, rows in sections.items():
        lines += ["", title] + [f"  {left:<{width}}  {text}" for left, text in rows]
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parse_args(argv)
    except UsageError as exc:
        prog = _PROG if exc.command is None else f"{_PROG} {exc.command}"
        print(f"{_usage(exc.command)}\n{prog}: error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if isinstance(args, str):
        print(args)
        return EXIT_OK
    try:
        return globals()[COMMANDS[args.command].func](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entrypoint() -> None:
    sys.exit(main(argv=None))


if __name__ == "__main__":
    entrypoint()
