"""Metropolis-Hastings sampling over tree space.

The proposal mixes two symmetric moves: with probability tau a length
move (pick any edge, draw a new length from a normal centered at the
current one, reflected at zero), otherwise a nearest-neighbor
interchange that swaps one inner edge for one of the two alternative
quartet resolutions at the same length.  Both moves have unit Hastings
ratio, so acceptance only compares unnormalized log posteriors.  Chains
are independent and fully deterministic given their seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .phylo_model import Alignment, DirichletPrior, GammaPrior, log_posterior
from .treespace import (
    Split,
    Tree,
    check,
    random_binary_splits,
    serialize_newick,
    tree_topology,
)

LENGTH_MOVE = "length"
NNI_MOVE = "nni"
FALLBACK_MOVE = "length-fallback"


class PolytomyError(ValueError):
    """NNI requested across an edge whose endpoints are not both binary."""


class ChainAbortError(RuntimeError):
    """Posterior evaluation failed mid-chain; carries the offending tree."""

    def __init__(self, newick: str, cause: Exception):
        super().__init__(f"posterior evaluation failed on {newick}: {cause}")
        self.newick = newick


@dataclass(frozen=True)
class ProposalConfig:
    tau: float = 0.9        # probability of a within-orthant length move
    sigma: float = 0.05     # stddev of the reflected normal length proposal
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie strictly between 0 and 1")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")


@dataclass(frozen=True)
class RunConfig:
    chains: int = 1
    iterations: int = 20000
    burn_in: int = 4000
    thin: int = 1
    proposal: ProposalConfig = ProposalConfig()
    dirichlet: DirichletPrior = DirichletPrior()
    gamma: GammaPrior = GammaPrior()

    def __post_init__(self):
        if self.chains < 1:
            raise ValueError("chains must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError("burn_in must be in [0, iterations)")
        if self.thin < 1:
            raise ValueError("thin must be positive")


@dataclass(frozen=True)
class ChainState:
    current: Tree
    log_post: float
    step_index: int = 0
    accept_count: int = 0
    rng_state: np.random.Generator = None

    @property
    def acceptance_rate(self) -> float:
        return self.accept_count / self.step_index if self.step_index else 0.0


@dataclass(frozen=True)
class TraceRow:
    chain: int
    iteration: int
    log_posterior: float
    accepted: bool
    move: str


def nni_neighbors(tree: Tree, edge: Split) -> tuple[Tree, Tree]:
    """The two trees that replace `edge` by an incompatible split of the
    same length, leaving every other edge untouched."""
    if edge not in tree.inner:
        raise KeyError(f"{edge} is not an inner edge of the tree")
    root = tree_topology(tree)

    def find(node):
        for child in node.children:
            if child.mask == edge.bits:
                return node, child
            if child.mask & edge.bits == edge.bits:
                return find(child)
        raise AssertionError("edge not found below its container")

    parent, node = find(root)
    if len(node.children) != 2:
        raise PolytomyError(f"{edge} meets a polytomy below")
    near = [node.children[0].mask, node.children[1].mask]
    full = (1 << tree.taxa.size) - 1
    if parent.length is None:
        others = [c.mask for c in parent.children if c.mask != edge.bits]
        if len(others) != 2:
            raise PolytomyError(f"{edge} meets a polytomy at the root")
        far = others
    else:
        siblings = [c.mask for c in parent.children if c.mask != edge.bits]
        if len(siblings) != 1:
            raise PolytomyError(f"{edge} meets a polytomy above")
        far = [siblings[0], full ^ parent.mask]

    swapped = []
    for exchanged in (near[0] | far[0], near[0] | far[1]):
        side = exchanged if not exchanged & 1 else full ^ exchanged
        swapped.append(Split(side, tree.taxa.size))
    first, second = sorted(swapped)
    return tree.with_split_replaced(edge, first), tree.with_split_replaced(edge, second)


def _length_move(tree: Tree, rng, sigma: float) -> Tree:
    splits = tree.sorted_splits()
    n_edges = tree.taxa.size + len(splits)
    pick = int(rng.integers(n_edges))
    if pick < tree.taxa.size:
        length = abs(rng.normal(tree.leaf_lengths[pick], sigma))
        return tree.with_leaf_length(pick, float(length))
    split = splits[pick - tree.taxa.size]
    length = abs(rng.normal(tree.inner[split], sigma))
    return tree.with_inner_length(split, float(length))


def propose(state: ChainState, cfg: ProposalConfig) -> tuple[Tree, float, str]:
    """Draw a candidate tree; returns (candidate, log_q_ratio, move kind).

    Both branches are symmetric, so the log proposal ratio is always 0.
    """
    tree = state.current
    rng = state.rng_state
    if rng.uniform() < cfg.tau:
        return _length_move(tree, rng, cfg.sigma), 0.0, LENGTH_MOVE
    splits = tree.sorted_splits()
    if not splits:
        return _length_move(tree, rng, cfg.sigma), 0.0, FALLBACK_MOVE
    edge = splits[int(rng.integers(len(splits)))]
    try:
        neighbors = nni_neighbors(tree, edge)
    except PolytomyError:
        return _length_move(tree, rng, cfg.sigma), 0.0, FALLBACK_MOVE
    return neighbors[int(rng.integers(2))], 0.0, NNI_MOVE


def mh_step(
    state: ChainState,
    alignment: Alignment,
    run: RunConfig,
    log_target: Callable[[Tree], float] | None = None,
) -> tuple[ChainState, TraceRow]:
    """One Metropolis-Hastings transition; the trace row reports the outcome."""
    if log_target is None:
        def log_target(tree):
            return log_posterior(tree, alignment, run.dirichlet, run.gamma)
    candidate, log_q_ratio, move = propose(state, run.proposal)
    try:
        candidate_post = log_target(candidate)
    except ArithmeticError as exc:
        raise ChainAbortError(serialize_newick(candidate), exc) from exc
    rng = state.rng_state
    log_ratio = candidate_post - state.log_post + log_q_ratio
    accepted = log_ratio >= 0.0 or math.log(rng.uniform()) < log_ratio
    if accepted:
        new_state = ChainState(
            current=candidate,
            log_post=candidate_post,
            step_index=state.step_index + 1,
            accept_count=state.accept_count + 1,
            rng_state=rng,
        )
    else:
        new_state = replace(state, step_index=state.step_index + 1)
    row = TraceRow(
        chain=-1,
        iteration=new_state.step_index,
        log_posterior=new_state.log_post,
        accepted=accepted,
        move=move,
    )
    return new_state, row


def initial_state(
    alignment: Alignment,
    run: RunConfig,
    seed: int,
    initial: Tree | None = None,
    log_target: Callable[[Tree], float] | None = None,
) -> ChainState:
    """Seeded chain start: uniform random binary topology, prior-drawn lengths."""
    rng = np.random.default_rng(seed)
    if initial is None:
        n_leaves = alignment.taxa.size
        splits = random_binary_splits(n_leaves, rng)
        leaf_lengths = tuple(
            float(rng.gamma(run.gamma.shape, run.gamma.scale)) for _ in range(n_leaves)
        )
        inner = {
            s: float(rng.gamma(run.gamma.shape, run.gamma.scale)) for s in sorted(splits)
        }
        initial = check(Tree(alignment.taxa, leaf_lengths, inner))
    if log_target is None:
        log_post = log_posterior(initial, alignment, run.dirichlet, run.gamma)
    else:
        log_post = log_target(initial)
    return ChainState(current=initial, log_post=log_post, rng_state=rng)


def run_chain(
    alignment: Alignment,
    run: RunConfig,
    seed: int,
    chain_index: int = 0,
    initial: Tree | None = None,
    log_target: Callable[[Tree], float] | None = None,
) -> tuple[list[tuple[int, Tree]], list[TraceRow]]:
    """One chain; returns kept (iteration, tree) samples and the full trace."""
    state = initial_state(alignment, run, seed, initial, log_target)
    kept = kept_iterations(run)
    samples: list[tuple[int, Tree]] = []
    trace: list[TraceRow] = []
    for step in range(1, run.iterations + 1):
        state, row = mh_step(state, alignment, run, log_target)
        trace.append(replace(row, chain=chain_index))
        if step in kept:
            samples.append((step, state.current))
    return samples, trace


def run(
    alignment: Alignment,
    config: RunConfig,
    initial: Tree | None = None,
    log_target: Callable[[Tree], float] | None = None,
) -> tuple[list[Tree], list[TraceRow]]:
    """Run all chains; samples and traces are concatenated in chain order.

    Chain c uses seed proposal.seed + c.
    """
    if alignment.taxa.size < 4:
        raise ValueError("need at least 4 taxa")
    samples: list[Tree] = []
    trace: list[TraceRow] = []
    for index in range(config.chains):
        seed = config.proposal.seed + index
        chain_samples, chain_trace = run_chain(
            alignment, config, seed, index, initial, log_target
        )
        samples.extend(tree for _, tree in chain_samples)
        trace.extend(chain_trace)
    return samples, trace


def kept_iterations(config: RunConfig) -> range:
    """The iteration numbers whose states are kept, for one chain."""
    return range(config.burn_in + 1, config.iterations + 1, config.thin)


def trace_csv_lines(trace) -> list[str]:
    """Render trace rows in the CSV layout chain,iteration,log_posterior,accepted,move."""
    lines = ["chain,iteration,log_posterior,accepted,move"]
    for row in trace:
        lines.append(
            f"{row.chain},{row.iteration},{row.log_posterior:.17g},"
            f"{int(row.accepted)},{row.move}"
        )
    return lines
