"""Unnormalized log posterior: marginalized F81+Gaps likelihood and gamma priors.

Each alignment column evolves down the tree under the F81+Gaps model,
where a mutation on an edge of length l happens with probability
1 - exp(-l) and redraws the symbol from a site-specific stationary
distribution theta over {A, C, G, T, gap}.  Cutting the tree at every
mutation leaves mutation-free components, each of which carries one
symbol drawn from theta: a component holding leaves must show their
common symbol x and contributes theta_x, and a leafless one contributes
sum(theta) = 1.  Felsenstein pruning over the status of the component
open at each vertex (still leafless, or already showing symbol x)
therefore writes the column likelihood as a polynomial in theta with
positive coefficients whose exponent of theta_x counts components
showing x.  It has at most prod_x (m_x + 1) terms, where m_x is the
number of leaves showing x, and degree at most the number of leaves.
The stationary distribution is never estimated: each monomial
integrates in closed form against a Dirichlet prior.  Edge lengths carry a gamma prior; the
posterior is the product, left unnormalized (the mixture weights over
tree topologies cancel in the sampler's acceptance ratio and are never
evaluated).

Which monomials combine with which depends on the topology and the
columns, never on the edge lengths.  So the pruning is compiled once per
topology into a plan (`_compile`): for each edge, integer index arrays
over one flat, pattern-major array of status coefficients for every
distinct column, plus the log Dirichlet moment of every final monomial.
Evaluating a plan (`_final_coefficients`) calls `mutation_prob` once per
edge and runs a fixed handful of numpy operations: two multiplies and an
`np.bincount` for the message up the edge, a gather, a multiply and an
`np.bincount` for folding it into the parent; one segmented log-sum-exp
then gives each column's log likelihood.  Each `Alignment` keeps its plans in a small
least-recently-used cache keyed by split set and Dirichlet pseudocounts,
so a length move, and the step after a rejected NNI, reuses a plan and
builds no topology.  Memory stays bounded whatever the alignment's
length: patterns are compiled in blocks of bounded size, and a plan too
large for the cache (from about 24 columns at 64 taxa) is compiled
again at every call, one block at a time.  Coefficients are rescaled by
exact powers of two when a lower bound on them nears underflow; every
pattern keeps its own exponent, so columns far below the smallest double
still get a finite log likelihood.
"""

from __future__ import annotations

import math
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .treespace import TaxonTable, Tree, tree_topology

ALPHABET = ("A", "C", "G", "T", "-")
N_SYMBOLS = 5
GAP = 4

_SYMBOL_INDEX = {"A": 0, "C": 1, "G": 2, "T": 3, "-": 4}


class ColumnLikelihoodError(ArithmeticError):
    """A column whose integrated likelihood is not a positive finite number."""

    def __init__(self, column: int, message: str):
        super().__init__(f"column {column}: {message}")
        self.column = column


def encode_symbol(symbol: str) -> int:
    """Map a character to the 5-letter alphabet; unknown symbols become gaps."""
    symbol = symbol.upper()
    if symbol in _SYMBOL_INDEX:
        return _SYMBOL_INDEX[symbol]
    warnings.warn(f"symbol {symbol!r} mapped to gap", stacklevel=2)
    return GAP


@dataclass(frozen=True)
class Alignment:
    """Aligned columns over the taxa, with duplicate columns counted once."""

    taxa: TaxonTable
    columns: tuple[tuple[int, ...], ...]
    # distinct columns in order of first occurrence, with multiplicities
    pattern_index: dict[tuple[int, ...], int] = field(init=False, compare=False)
    # compiled pruning plans by topology, least recently used first (see `_plans`)
    plans: OrderedDict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        patterns: dict[tuple[int, ...], int] = {}
        for column in self.columns:
            if len(column) != self.taxa.size:
                raise ValueError(
                    f"column has {len(column)} symbols, expected {self.taxa.size}"
                )
            if any(not 0 <= x < N_SYMBOLS for x in column):
                raise ValueError("symbol index outside the alphabet")
            patterns[column] = patterns.get(column, 0) + 1
        object.__setattr__(self, "pattern_index", patterns)
        object.__setattr__(self, "plans", OrderedDict())

    @classmethod
    def from_columns(cls, taxa: TaxonTable, columns) -> "Alignment":
        return cls(taxa, tuple(tuple(c) for c in columns))

    @classmethod
    def from_sequences(cls, taxa: TaxonTable, sequences) -> "Alignment":
        """Build from one string per taxon, in taxon order."""
        sequences = [str(s) for s in sequences]
        if len(sequences) != taxa.size:
            raise ValueError(f"{len(sequences)} sequences for {taxa.size} taxa")
        length = len(sequences[0])
        if any(len(s) != length for s in sequences):
            raise ValueError("sequences have unequal lengths")
        columns = [
            tuple(encode_symbol(seq[i]) for seq in sequences) for i in range(length)
        ]
        return cls.from_columns(taxa, columns)

    @property
    def n_columns(self) -> int:
        return len(self.columns)


@dataclass(frozen=True)
class DirichletPrior:
    """Pseudocounts of the Dirichlet prior on the stationary distribution."""

    alpha: tuple[float, ...] = (0.2,) * N_SYMBOLS

    def __post_init__(self):
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        if len(self.alpha) != N_SYMBOLS:
            raise ValueError(f"need {N_SYMBOLS} pseudocounts")
        if any(a <= 0 for a in self.alpha):
            raise ValueError("pseudocounts must be positive")


@dataclass(frozen=True)
class GammaPrior:
    """Gamma prior on every edge length (shape/scale convention)."""

    shape: float = 1.0
    scale: float = 0.1

    def __post_init__(self):
        if self.shape <= 0 or self.scale <= 0:
            raise ValueError("shape and scale must be positive")

    def log_density(self, length: float) -> float:
        if length <= 0:
            return -math.inf
        return (
            (self.shape - 1.0) * math.log(length)
            - length / self.scale
            - self.shape * math.log(self.scale)
            - math.lgamma(self.shape)
        )


def mutation_prob(length: float) -> float:
    """Probability of at least one substitution on an edge (unit rate)."""
    if not length > 0:
        raise ValueError(f"edge length must be positive, got {length}")
    return -math.expm1(-length)


def _log_moments(exponents: np.ndarray, alpha: tuple[float, ...]) -> np.ndarray:
    """log E[prod_x theta_x ** e_x] under Dirichlet(alpha), one value per row
    of `exponents` (a nonnegative integer array with one column per symbol)."""
    totals = exponents.sum(axis=1)
    top = int(totals.max(initial=0))
    total_alpha = sum(alpha)
    head = [math.lgamma(total_alpha) - math.lgamma(total_alpha + t) for t in range(top + 1)]
    values = np.array(head)[totals]
    for x, a in enumerate(alpha):
        # zero for a zero exponent, exactly
        table = np.array([math.lgamma(a + e) - math.lgamma(a) for e in range(top + 1)])
        values = values + table[exponents[:, x]]
    return values


# A plan compiles the pruning of one topology for every pattern of an
# alignment.  A cell is one monomial of one status polynomial of one
# pattern, coded as an integer: a pattern's cells lie in a block of its
# own, a status's in a sub-block of size(p) = prod_x (m_x + 1), and within
# it the exponents of theta are mixed-radix digits of radix m_x + 1.  An
# exponent never exceeds m_x, so adding two codes' digits never carries,
# and sorted codes are pattern-major.  Status x < 5: the open component
# shows symbol x; status 5: it is still leafless.
_EMPTY = N_SYMBOLS
_N_STATUSES = N_SYMBOLS + 1

# status polynomials are scaled by a power of two (exactly) once their
# largest coefficient falls below this
_RESCALE_BELOW = 2.0**-256
_LOG2 = math.log(2.0)

# An alignment keeps the plans of this many topologies: the current one,
# a rejected NNI neighbour and a few a chain returns to (on the 5-taxon
# benchmark inputs, 2 x 1000 steps miss 181 times against 301 with two)
_PLAN_CAPACITY = 8
# A plan stores at most three int64 indices per pair of cells its folds
# examine (about 21 bytes per pair at 32 taxa).  A block of patterns is
# compiled with at most _BLOCK_PAIRS pairs (one block for 200 columns at
# 32 taxa), and an alignment keeps plans of at most _CACHE_PAIRS pairs in
# all (two such plans); a larger plan is compiled again, block by block,
# at every call.
_BLOCK_PAIRS = 2**21
_CACHE_PAIRS = 2**22


@dataclass(frozen=True, eq=False)
class _Plan:
    """The pruning of one topology for a block of patterns, as index arrays.

    Vertex states live in slots: leaf i in slot i, the vertex of
    `splits[k]` in slot n + k, the root in the last slot (-1); a child's
    slot also indexes its edge length.  `edges` holds one step per non-root
    vertex, in the order pruning visits them: (child, parent, dst,
    n_message, fold, starts).  The child's message is
    bincount(dst, [mut * child, stay * child]): on a mutation every cell
    closes its component, without one it stays as it is.  `fold` is None
    for a vertex's first child, whose message becomes the vertex state,
    and otherwise (left, right, out, n_out) for
    bincount(out, parent[left] * message[right]).  `starts` is the first
    cell of each pattern in the parent state afterwards.
    """

    splits: tuple[int, ...]
    first: int                  # index of the block's first pattern in `pattern_index`
    pairs: int                  # state-message pairs the folds examine
    edges: tuple[tuple, ...]
    leaf_state: np.ndarray      # one cell per pattern: its leaf's symbol, coefficient 1
    closing: np.ndarray         # root cell -> final cell, as the open component closes
    starts: np.ndarray          # first final cell of each pattern
    cell_pattern: np.ndarray    # the pattern of each final cell, within the block
    exponents: np.ndarray       # each final cell's monomial, one exponent per symbol
    log_moments: np.ndarray     # each final cell's Dirichlet moment, in logs


class _BlockTooLarge(Exception):
    """A block of patterns whose folds would examine too many pairs."""


def _distinct(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct codes in increasing order, and each code's index among
    them, as `np.unique` with `return_inverse` gives them; its quicksort
    and bookkeeping map 0.2-0.35 MB more of numpy's code into a short
    `sample` command than this stable argsort does."""
    order = np.argsort(codes, kind="stable")
    ordered = codes[order]
    new = np.empty(len(codes), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    index = np.empty(len(codes), dtype=np.int64)
    index[order] = np.cumsum(new) - 1
    return ordered[new], index


def _pruning_order(node, slot: int, n_leaves: int, splits: list):
    """Yield (child, child's slot, parent's slot) for every edge below the
    node, each after the edges below its child; an inner child gets the
    next slot, and its split is appended to `splits`."""
    for child in node.children:
        if child.is_leaf():
            yield child, child.leaf, slot
        else:
            child_slot = n_leaves + len(splits)
            splits.append(child.mask)
            yield from _pruning_order(child, child_slot, n_leaves, splits)
            yield child, child_slot, slot


def _compile(topology, patterns: list, first: int, alpha: tuple[float, ...],
             limit: int | None) -> _Plan:
    """Compile the pruning of the topology for a block of patterns, the
    first of which is pattern `first` of its alignment; see `_Plan`.
    Raises `_BlockTooLarge` as soon as the folds would examine more than
    `limit` pairs, unless `limit` is None."""
    columns = np.array(patterns, dtype=np.int64)
    radix, unit = [], []
    for pattern in patterns:
        digits = [pattern.count(x) + 1 for x in range(N_SYMBOLS)]
        radix.append(digits)
        # closing a leafless component multiplies by 1: unit 0
        unit.append([math.prod(digits[:x]) for x in range(N_SYMBOLS)] + [0])
    radix, unit = np.array(radix), np.array(unit)
    size = radix[:, -1] * unit[:, N_SYMBOLS - 1]
    base = _N_STATUSES * (np.cumsum(size) - size)
    pairs = 0

    def decode(codes):
        pattern = np.searchsorted(base, codes, side="right") - 1
        offset = codes - base[pattern]
        return pattern, offset // size[pattern], offset % size[pattern]

    def closed(codes):
        """The leafless cells the open component's closing turns cells into."""
        pattern, status, key = decode(codes)
        return base[pattern] + _EMPTY * size[pattern] + key + unit[pattern, status]

    def fold(state, message):
        """Cells of a vertex state times a message: leafless with leafless
        stays leafless, x with leafless or with x shows x."""
        nonlocal pairs
        s_pattern, s_status, s_key = decode(state)
        m_pattern, m_status, m_key = decode(message)
        # pair every state cell with every message cell of its pattern
        m_count = np.bincount(m_pattern, minlength=len(patterns))
        reps = m_count[s_pattern]
        pairs += int(reps.sum())
        if limit is not None and pairs > limit:
            raise _BlockTooLarge
        left = np.repeat(np.arange(len(state)), reps)
        rank = np.arange(len(left)) - (np.cumsum(reps) - reps)[left]
        right = (np.cumsum(m_count) - m_count)[s_pattern[left]] + rank
        a, b = s_status[left], m_status[right]
        keep = (a == b) | (a == _EMPTY) | (b == _EMPTY)
        left, right = left[keep], right[keep]
        pattern = s_pattern[left]
        cells, out = _distinct(
            base[pattern] + np.minimum(a[keep], b[keep]) * size[pattern]
            + s_key[left] + m_key[right]
        )
        return cells, (left, right, out, len(cells))

    splits: list[int] = []
    edges: list[tuple] = []
    states = {}
    for child, child_slot, slot in _pruning_order(topology, -1, columns.shape[1], splits):
        if child.is_leaf():
            child_state = base + columns[:, child.leaf] * size
        else:
            child_state = states.pop(child_slot)
        message, dst = _distinct(np.concatenate([closed(child_state), child_state]))
        if slot in states:
            state, step = fold(states[slot], message)
        else:
            state, step = message, None
        states[slot] = state
        edges.append((child_slot, slot, dst, len(message), step, np.searchsorted(state, base)))
    state = states[-1]
    final, closing = _distinct(closed(state))
    pattern, _, key = decode(final)
    exponents = key[:, None] // unit[pattern, :N_SYMBOLS] % radix[pattern]
    return _Plan(
        splits=tuple(splits),
        first=first,
        pairs=pairs,
        edges=tuple(edges),
        leaf_state=np.ones(len(patterns)),
        closing=closing,
        starts=np.searchsorted(final, base),
        cell_pattern=pattern,
        exponents=exponents,
        log_moments=_log_moments(exponents, alpha),
    )


def _compile_blocks(tree: Tree, alignment: Alignment, alpha: tuple[float, ...]):
    """Compile the tree's topology for the alignment's patterns in
    consecutive blocks of at most `_BLOCK_PAIRS` pairs, yielding each plan
    as it is done.  A block that would examine more is retried with half
    as many patterns, and later blocks keep the smaller count; a single
    pattern is compiled whatever its size."""
    topology = tree_topology(tree)
    patterns = list(alignment.pattern_index)
    start, count = 0, len(patterns)
    while start < len(patterns):
        count = min(count, len(patterns) - start)
        block = patterns[start:start + count]
        try:
            plan = _compile(topology, block, start, alpha, _BLOCK_PAIRS if count > 1 else None)
        except _BlockTooLarge:
            count //= 2
            continue
        yield plan
        start += count


def _plans(tree: Tree, alignment: Alignment, alpha: tuple[float, ...]):
    """Yield the plans of the tree's topology for the alignment, one per
    block of patterns.  On a miss each block is compiled as the caller
    comes to it, and the blocks are kept, least recently used plans making
    room, if they examine at most `_CACHE_PAIRS` pairs together."""
    key = (frozenset(split.bits for split in tree.inner), alpha)
    cache = alignment.plans
    if key in cache:
        cache.move_to_end(key)
        yield from cache[key]
        return
    kept, pairs = [], 0
    for plan in _compile_blocks(tree, alignment, alpha):
        yield plan
        pairs += plan.pairs
        if pairs <= _CACHE_PAIRS:
            kept.append(plan)
        else:
            kept.clear()  # too large to keep: each block goes once it is used
    if pairs <= _CACHE_PAIRS:
        cache[key] = tuple(kept)
        while len(cache) > _PLAN_CAPACITY or sum(
            plan.pairs for plans in cache.values() for plan in plans
        ) > _CACHE_PAIRS:
            cache.popitem(last=False)


def _slot_lengths(tree: Tree, plan: _Plan) -> list[float]:
    """The tree's edge lengths in the plan's slot order."""
    inner = {split.bits: length for split, length in tree.inner.items()}
    return [*tree.leaf_lengths, *(inner[bits] for bits in plan.splits)]


def _rescale(state, starts, scale) -> float:
    """Multiply each pattern's cells by 2**-k, exactly, where its largest
    coefficient is nonzero and below the threshold, and add k to that
    pattern's scale; returns the smallest largest coefficient afterwards."""
    peak = np.maximum.reduceat(state, starts)
    exponent = np.where((peak > 0.0) & (peak < _RESCALE_BELOW), np.frexp(peak)[1], 0)
    state[:] = np.ldexp(state, np.repeat(-exponent, np.diff(starts, append=len(state))))
    scale += exponent
    return float(np.ldexp(peak, -exponent).min())


def _final_coefficients(plan: _Plan, lengths) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of the plan's final cells and each pattern's scale: the
    likelihood's coefficients are these times 2**scale.

    Coefficients are sums of products of probabilities, never
    differences.  Each state also carries a lower bound on every
    pattern's largest coefficient (`floor`): a message keeps at least
    half its child's largest coefficient, and folding it in keeps at
    least mut times both largest ones.
    """
    n_slots = len(lengths) + 1
    states = [plan.leaf_state] * n_slots
    floors = [1.0] * n_slots
    scale = np.zeros(len(plan.starts))
    for child, parent, dst, n_message, fold, starts in plan.edges:
        mut = mutation_prob(lengths[child])
        below = states[child]
        weights = np.concatenate((mut * below, (1.0 - mut) * below))
        message = np.bincount(dst, weights, n_message)
        floor = floors[child] * mut * 0.5
        if fold is None:
            state = message
        else:
            left, right, out, n_out = fold
            state = np.bincount(out, states[parent][left] * message[right], n_out)
            floor = floors[parent] * floor
        if floor < _RESCALE_BELOW:
            floor = _rescale(state, starts, scale)
        states[parent], floors[parent] = state, floor
    return np.bincount(plan.closing, states[-1], len(plan.cell_pattern)), scale


def _pattern_log_likelihoods(
    tree: Tree, alignment: Alignment, prior: DirichletPrior
) -> np.ndarray:
    """Log likelihood of each pattern, in the order of `pattern_index`."""
    values = []
    for plan in _plans(tree, alignment, prior.alpha):
        coefficients, scale = _final_coefficients(plan, _slot_lengths(tree, plan))
        with np.errstate(divide="ignore"):
            logs = np.log(coefficients) + plan.log_moments
        peak = np.maximum.reduceat(logs, plan.starts)
        if peak.min() == -math.inf:
            pattern = list(alignment.pattern_index)[plan.first + int(np.argmin(peak))]
            column = alignment.columns.index(pattern)
            raise ColumnLikelihoodError(column, "likelihood underflow to zero")
        sums = np.add.reduceat(np.exp(logs - peak[plan.cell_pattern]), plan.starts)
        values.append(peak + np.log(sums) + scale * _LOG2)
    return np.concatenate(values)


def log_likelihood(tree: Tree, alignment: Alignment, prior: DirichletPrior) -> float:
    """Log likelihood of the whole alignment, marginalized over stationaries."""
    if alignment.taxa != tree.taxa:
        raise ValueError("alignment and tree are over different taxa")
    if not alignment.pattern_index:
        return 0.0
    values = _pattern_log_likelihoods(tree, alignment, prior).tolist()
    # exactly rounded, so the column order cannot change the result
    return math.fsum(m * v for m, v in zip(alignment.pattern_index.values(), values))


def log_prior(tree: Tree, prior: GammaPrior) -> float:
    """Summed log gamma density over every leaf and inner edge."""
    total = 0.0
    for length in tree.leaf_lengths:
        total += prior.log_density(length)
    for length in tree.inner.values():
        total += prior.log_density(length)
    return total


def log_posterior(
    tree: Tree,
    alignment: Alignment,
    dirichlet: DirichletPrior,
    gamma: GammaPrior,
) -> float:
    """Unnormalized log posterior density of the tree given the alignment."""
    return log_likelihood(tree, alignment, dirichlet) + log_prior(tree, gamma)
