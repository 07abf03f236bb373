"""Metropolis-Hastings sampling over tree space.

The proposal mixes two symmetric moves: with probability tau a length
move (pick any edge, draw a new length from a normal centered at the
current one, reflected at zero), otherwise a nearest-neighbor
interchange that swaps one inner edge for one of the two alternative
quartet resolutions at the same length.  Both moves have unit Hastings
ratio, so acceptance only compares unnormalized log posteriors.  `run`
gives each chain its own `random.Random(seed)`, the package's one
generator, and passes it to each step, so a `ChainState` is a snapshot.
Chains are independent and fully deterministic given their seeds.
Configs, states and trace rows are named tuples; the configs check their
values in `__new__`.  A target evaluation that fails with an
ArithmeticError, at the start tree or at a candidate, is raised again as
an ArithmeticError that names the tree.

Every state is a binary tree: the posterior's mass lies on the binary,
top-dimensional orthants, and neither move changes the number of inner
splits, so `run` rejects a start with fewer.
"""

from __future__ import annotations

import math
import random
from typing import Callable, NamedTuple

from .phylo_model import Alignment, DirichletPrior, GammaPrior, log_posterior
from .treespace import (
    Tree,
    check,
    random_binary_splits,
    serialize_newick,
    split_name,
    tree_topology,
    validate,
)

LENGTH_MOVE = "length"
NNI_MOVE = "nni"


class PolytomyError(ValueError):
    """NNI requested across an edge whose endpoints are not both binary."""


class _ProposalFields(NamedTuple):
    tau: float = 0.9        # probability of a within-orthant length move
    sigma: float = 0.05     # stddev of the reflected normal length proposal
    seed: int = 0


class ProposalConfig(_ProposalFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie strictly between 0 and 1")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError("sigma must be finite and positive")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        return self


class _RunFields(NamedTuple):
    chains: int = 1
    iterations: int = 20000
    burn_in: int = 4000
    thin: int = 1
    proposal: ProposalConfig = ProposalConfig()
    dirichlet: DirichletPrior = DirichletPrior()
    gamma: GammaPrior = GammaPrior()


class RunConfig(_RunFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.chains < 1:
            raise ValueError("chains must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError("burn_in must be in [0, iterations)")
        if self.thin < 1:
            raise ValueError("thin must be positive")
        return self


class ChainState(NamedTuple):
    """A snapshot of one chain: its current tree and that tree's log posterior."""
    current: Tree
    log_post: float


class TraceRow(NamedTuple):
    log_posterior: float
    accepted: bool
    move: str


def nni_neighbors(tree: Tree, edge: int) -> tuple[Tree, Tree]:
    """The two trees that replace `edge` by an incompatible split of the
    same length, leaving every other edge untouched."""
    if edge not in tree.inner:
        raise KeyError(f"{split_name(edge, tree.taxa)} is not an inner edge of the tree")
    root = tree_topology(tree)

    def find(node):
        for child in node.children:
            if child.mask == edge:
                return node, child
            if child.mask & edge == edge:
                return find(child)
        raise AssertionError("edge not found below its container")

    parent, node = find(root)
    full = (1 << tree.taxa.size) - 1
    near = [c.mask for c in node.children]
    far = [c.mask for c in parent.children if c.mask != edge]
    if parent is not root:
        far.append(full ^ parent.mask)
    if len(near) != 2 or len(far) != 2:
        raise PolytomyError(f"{split_name(edge, tree.taxa)} meets a polytomy")

    first, second = sorted(
        exchanged if not exchanged & 1 else full ^ exchanged
        for exchanged in (near[0] | far[0], near[0] | far[1])
    )
    return tree.with_split_replaced(edge, first), tree.with_split_replaced(edge, second)


def _length_move(tree: Tree, rng: random.Random, sigma: float) -> Tree:
    splits = sorted(tree.inner)
    n_edges = tree.taxa.size + len(splits)
    pick = rng.randrange(n_edges)
    if pick < tree.taxa.size:
        return tree.with_leaf_length(pick, abs(rng.gauss(tree.leaf_lengths[pick], sigma)))
    split = splits[pick - tree.taxa.size]
    return tree.with_inner_length(split, abs(rng.gauss(tree.inner[split], sigma)))


def propose(tree: Tree, rng: random.Random, cfg: ProposalConfig) -> tuple[Tree, str]:
    """Draw a candidate tree; returns (candidate, move kind).

    Both moves are symmetric, so acceptance needs no proposal ratio.
    """
    if rng.random() < cfg.tau:
        return _length_move(tree, rng, cfg.sigma), LENGTH_MOVE
    splits = sorted(tree.inner)
    edge = splits[rng.randrange(len(splits))]
    return nni_neighbors(tree, edge)[rng.randrange(2)], NNI_MOVE


def _evaluate(log_target: Callable[[Tree], float], tree: Tree) -> float:
    try:
        return log_target(tree)
    except ArithmeticError as exc:
        raise ArithmeticError(
            f"posterior evaluation failed on {serialize_newick(tree)}: {exc}"
        ) from exc


def mh_step(
    state: ChainState,
    rng: random.Random,
    cfg: ProposalConfig,
    log_target: Callable[[Tree], float],
) -> tuple[ChainState, TraceRow]:
    """One Metropolis-Hastings transition from `state`, drawing from `rng`;
    the trace row reports the outcome."""
    candidate, move = propose(state.current, rng, cfg)
    candidate_post = _evaluate(log_target, candidate)
    log_ratio = candidate_post - state.log_post
    if log_ratio >= 0.0:
        accepted = True
    else:
        u = rng.random()  # exactly 0.0 with probability 2**-53: log 0 = -inf
        accepted = (math.log(u) if u > 0.0 else -math.inf) < log_ratio
    if accepted:
        state = ChainState(candidate, candidate_post)
    return state, TraceRow(state.log_post, accepted, move)


def initial_tree(alignment: Alignment, run: RunConfig, rng: random.Random) -> Tree:
    """Random chain start: uniform random binary topology, prior-drawn lengths;
    ArithmeticError when a draw overflows to inf or underflows to 0."""
    n_leaves = alignment.taxa.size
    splits = random_binary_splits(n_leaves, rng)
    shape, scale = run.gamma.shape, run.gamma.scale
    # gammavariate takes sqrt(2 * shape - 1) and never returns once it is inf
    if 2.0 * shape == math.inf:
        raise ArithmeticError(f"gamma prior shape {shape!r} is too large to draw from")
    leaf_lengths = tuple(rng.gammavariate(shape, scale) for _ in range(n_leaves))
    inner = {s: rng.gammavariate(shape, scale) for s in sorted(splits)}
    tree = Tree(alignment.taxa, leaf_lengths, inner)
    problems = validate(tree)
    if problems:
        raise ArithmeticError(f"gamma prior draw gave a {problems[0]}")
    return tree


def run(
    alignment: Alignment,
    config: RunConfig,
    initial: Tree | None = None,
    log_target: Callable[[Tree], float] | None = None,
) -> tuple[list[Tree], list[TraceRow]]:
    """Run all chains; returns the kept trees and the full traces,
    concatenated in chain order.  Chain c draws from
    `random.Random(proposal.seed + c)` and starts at `initial` or, if that
    is None, at a tree drawn by `initial_tree`.  The target defaults to
    the posterior of `alignment` under the priors of `config`.  An
    `initial` tree that is not a valid binary tree raises ValueError."""
    # neither move changes the split count: a lower start would stay lower
    if initial is not None and len(check(initial).inner) < initial.taxa.size - 3:
        raise ValueError("the chain must start at a binary tree")
    if log_target is None:
        def log_target(tree):
            return log_posterior(tree, alignment, config.dirichlet, config.gamma)
    kept = kept_iterations(config)
    samples: list[Tree] = []
    trace: list[TraceRow] = []
    for chain in range(config.chains):
        rng = random.Random(config.proposal.seed + chain)
        tree = initial_tree(alignment, config, rng) if initial is None else initial
        state = ChainState(tree, _evaluate(log_target, tree))
        for step in range(1, config.iterations + 1):
            state, row = mh_step(state, rng, config.proposal, log_target)
            trace.append(row)
            if step in kept:
                samples.append(state.current)
    return samples, trace


def kept_iterations(config: RunConfig) -> range:
    """The iteration numbers whose states are kept, for one chain."""
    return range(config.burn_in + 1, config.iterations + 1, config.thin)


def trace_csv_lines(trace, iterations: int) -> list[str]:
    """Render the trace of chains of `iterations` steps each, in chain
    order, in the CSV layout chain,iteration,log_posterior,accepted,move."""
    lines = ["chain,iteration,log_posterior,accepted,move"]
    for index, row in enumerate(trace):
        chain, step = divmod(index, iterations)
        lines.append(
            f"{chain},{step + 1},{row.log_posterior:.17g},"
            f"{int(row.accepted)},{row.move}"
        )
    return lines
