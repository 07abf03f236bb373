"""Independent brute-force oracles used to pin expected values.

Nothing here shares code paths with the implementations under test: the
distance oracle enumerates ordered split partitions directly, the cover
oracle enumerates vertex subsets, the likelihood oracles sum over inner
vertex states numerically, and the Euclidean estimators work on plain
length vectors.  The reference geodesic is the earlier refinement kept
verbatim (per-pair `compatible`, a max flow for every network and a
dict-of-dicts residual graph), so the fast path must reproduce it bit
for bit; `reference_point` is the earlier `GeodesicPath.point`, kept
verbatim, and the walked trees must equal its trees bit for bit.  The
random topology and the exhaustive enumeration grow an
explicit adjacency graph and read each split off by a search, where the
program keeps clade masks; the random one must pick the same edges and
return the same splits.  The reference dict pruning is the likelihood
as the program computed it before it compiled plans, kept verbatim (it
shares `mutation_prob` with the program); the plans must match it to
1e-12 relative.  The reference Newick reader is the character-level
recursive descent the program used before it tokenized each line, kept
verbatim; the tokenizing reader must return the same tree or raise the
same class of exception, except that it rejects text after the `;` and
raises `NewickError` for an edge above every leaf, where the reference
raises a bare `ValueError`.
The reference topology is the earlier two-search `tree_topology`, kept
verbatim; the one-pass version must build the same vertex structure.
The reference argument parser is the argparse `build_parser` the
command line used before it read its arguments from one table, kept
verbatim; the table's reader must give the same arguments and reject
what it rejects, except that it takes no abbreviated option names.
`median_objective` is the exception: it sums the
program's own distances, for tests that compare an estimate's objective
with an oracle's.  This module imports the package and nothing from the tests,
so that `perfbench/verify.py` can load it on its own.
"""

from __future__ import annotations

import argparse
import itertools
import math
from collections import deque

import numpy as np

from bhvphylo import __version__
from bhvphylo.cli import (
    cmd_compare,
    cmd_consensus,
    cmd_distance,
    cmd_interpolate,
    cmd_mean,
    cmd_median,
    cmd_sample,
    cmd_simulate,
    cmd_splits,
)
from bhvphylo.geodesic import FlowNetwork, GeodesicPath, SupportPair, distance
from bhvphylo.phylo_model import N_SYMBOLS, ColumnLikelihoodError, mutation_prob
from bhvphylo.summary import DEFAULT_BINS
from bhvphylo.treespace import (
    _NAME_STOP,
    InvalidTreeError,
    NewickError,
    Node,
    TaxonTable,
    Tree,
    _length_problems,
    _min_leaf,
    compatible,
    tree_topology,
)


# ---------------------------------------------------------------------------
# Geodesic distance by exhaustive support enumeration

def brute_force_distance(s: Tree, t: Tree) -> float:
    """Minimum closed-form length over all ordered split partitions.

    Shared splits, leaf edges, and splits compatible with every split of
    the other tree move as Euclidean coordinates (a split can only shrink
    or grow on its own if it never conflicts with anything it could meet
    along the way).  The conflicting remainder is partitioned into ordered
    pairs of nonempty blocks; splits not yet dropped must be compatible
    with splits already grown, and the shortest closed form wins.
    """
    shared = set(s.inner) & set(t.inner)
    base = sum((s.inner[c] - t.inner[c]) ** 2 for c in shared)
    base += sum((a - b) ** 2 for a, b in zip(s.leaf_lengths, t.leaf_lengths))
    a_all = sorted(set(s.inner) - shared)
    b_all = sorted(set(t.inner) - shared)
    a_splits = [a for a in a_all if not all(compatible(a, b) for b in b_all)]
    b_splits = [b for b in b_all if not all(compatible(a, b) for a in a_all)]
    base += sum(s.inner[a] ** 2 for a in a_all if a not in a_splits)
    base += sum(t.inner[b] ** 2 for b in b_all if b not in b_splits)
    na, nb = len(a_splits), len(b_splits)
    la = [s.inner[x] for x in a_splits]
    lb = [t.inner[x] for x in b_splits]
    comp = [
        [compatible(a_splits[i], b_splits[j]) for j in range(nb)] for i in range(na)
    ]

    def bits(mask, size):
        return [i for i in range(size) if mask >> i & 1]

    def norm_a(mask):
        return math.sqrt(sum(la[i] ** 2 for i in bits(mask, na)))

    def norm_b(mask):
        return math.sqrt(sum(lb[j] ** 2 for j in bits(mask, nb)))

    def ordered_partitions(items, blocks):
        """All ways to distribute items over `blocks` labeled nonempty blocks."""
        out = []
        for labels in itertools.product(range(blocks), repeat=len(items)):
            if set(labels) != set(range(blocks)):
                continue
            grouped = [[] for _ in range(blocks)]
            for item, label in zip(items, labels):
                grouped[label].append(item)
            out.append(grouped)
        return out

    def canonical_length(pairs):
        """Pool adjacent ratio violators, then sum the squared leg lengths.

        A block sequence whose shrink/grow ratios decrease somewhere does
        not describe separate crossings; the crossings coalesce, which is
        the same as merging the blocks.
        """
        stack = []
        for a2, b2 in pairs:
            stack.append((a2, b2))
            while len(stack) > 1:
                pa2, pb2 = stack[-2]
                ca2, cb2 = stack[-1]
                if pa2 * cb2 <= ca2 * pb2:  # ratio_prev <= ratio_cur
                    break
                stack[-2] = (pa2 + ca2, pb2 + cb2)
                stack.pop()
        return sum(
            (math.sqrt(a2) + math.sqrt(b2)) ** 2 for a2, b2 in stack
        )

    if na == 0 and nb == 0:
        return math.sqrt(base)
    best = math.inf
    for blocks in range(1, min(na, nb) + 1):
        for a_part in ordered_partitions(range(na), blocks):
            for b_part in ordered_partitions(range(nb), blocks):
                # a split still standing must tolerate every split already grown
                if all(
                    comp[i][j]
                    for later in range(1, blocks)
                    for i in a_part[later]
                    for earlier in range(later)
                    for j in b_part[earlier]
                ):
                    pairs = [
                        (
                            sum(la[i] ** 2 for i in a_part[k]),
                            sum(lb[j] ** 2 for j in b_part[k]),
                        )
                        for k in range(blocks)
                    ]
                    best = min(best, canonical_length(pairs))
    return math.sqrt(base + best)


# ---------------------------------------------------------------------------
# Reference geodesic: support refinement with a max flow on every network

_REFINE_TOL = 1e-12


def reference_max_flow(net: FlowNetwork):
    """(flow, cover_a, cover_b) by Edmonds-Karp on a dict-of-dicts residual,
    the covers as index masks; the edges are read row by row.
    """
    na, nb = len(net.a_weights), len(net.b_weights)
    # vertices: 0..na-1 first side, na..na+nb-1 second side, then source, sink
    source, sink = na + nb, na + nb + 1
    residual: list[dict[int, float]] = [{} for _ in range(na + nb + 2)]

    def add_arc(u: int, v: int, capacity: float) -> None:
        residual[u][v] = capacity
        residual[v].setdefault(u, 0.0)

    for i, w in enumerate(net.a_weights):
        add_arc(source, i, w)
    for i, row in enumerate(net.rows):
        for j in range(nb):
            if row >> j & 1:
                add_arc(i, na + j, math.inf)
    for j, w in enumerate(net.b_weights):
        add_arc(na + j, sink, w)

    flow = 0.0
    while True:
        parent = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v, capacity in residual[u].items():
                if capacity > 0.0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            break
        path = []
        v = sink
        while v != source:
            path.append((parent[v], v))
            v = parent[v]
        send = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= send
            residual[v][u] += send
        flow += send

    reaches = {sink}
    queue = deque([sink])
    while queue:
        v = queue.popleft()
        for u in residual[v]:
            if u not in reaches and residual[u][v] > 0.0:
                reaches.add(u)
                queue.append(u)

    cover_a = sum(1 << i for i in range(na) if i in reaches)
    cover_b = sum(1 << j for j in range(nb) if na + j not in reaches)
    return flow, cover_a, cover_b


def reference_refine(a_items, b_items, out) -> None:
    """Split (A, B) on minimum covers until none weighs less than one."""
    norm_a = math.hypot(*(l for _, l in a_items))
    norm_b = math.hypot(*(l for _, l in b_items))
    rows = [
        sum(1 << j for j, (b, _) in enumerate(b_items) if not compatible(a, b))
        for a, _ in a_items
    ]
    net = FlowNetwork(
        [(l / norm_a) * (l / norm_a) for _, l in a_items],
        [(l / norm_b) * (l / norm_b) for _, l in b_items],
        rows,
    )
    _, cover_a, cover_b = reference_max_flow(net)
    weight = sum(w for i, w in enumerate(net.a_weights) if cover_a >> i & 1) + sum(
        w for j, w in enumerate(net.b_weights) if cover_b >> j & 1
    )
    if weight < 1.0 - _REFINE_TOL:
        c1 = [a for i, a in enumerate(a_items) if cover_a >> i & 1]
        c2 = [a for i, a in enumerate(a_items) if not cover_a >> i & 1]
        d1 = [b for j, b in enumerate(b_items) if not cover_b >> j & 1]
        d2 = [b for j, b in enumerate(b_items) if cover_b >> j & 1]
        if c1 and c2 and d1 and d2:
            reference_refine(c1, d1, out)
            reference_refine(c2, d2, out)
            return
    out.append(
        SupportPair(
            frozenset(s for s, _ in a_items),
            frozenset(s for s, _ in b_items),
            norm_a,
            norm_b,
        )
    )


def reference_geodesic(s: Tree, t: Tree) -> GeodesicPath:
    """The geodesic path, as the fast path computed it before its rewrite."""
    if s.taxa != t.taxa:
        raise ValueError("trees are over different taxon tables")
    leaf_deltas = tuple(b - a for a, b in zip(s.leaf_lengths, t.leaf_lengths))

    s_only = sorted(set(s.inner) - set(t.inner))
    t_only = sorted(set(t.inner) - set(s.inner))
    shared = sorted(set(s.inner) & set(t.inner))

    absorbed_s = [a for a in s_only if all(compatible(a, b) for b in t_only)]
    absorbed_t = [b for b in t_only if all(compatible(a, b) for a in s_only)]
    common = [(c, s.inner[c], t.inner[c]) for c in shared]
    common += [(a, s.inner[a], 0.0) for a in absorbed_s]
    common += [(b, 0.0, t.inner[b]) for b in absorbed_t]
    common.sort(key=lambda entry: entry[0])

    a_rest = [a for a in s_only if a not in set(absorbed_s)]
    b_rest = [b for b in t_only if b not in set(absorbed_t)]

    cut_masks = sorted((c for c, _, _ in common), key=int.bit_count)

    def region(split: int) -> int:
        for mask in cut_masks:
            if split & mask == split and split != mask:
                return mask
        return -1

    regions: dict[int, tuple[list, list]] = {}
    for a in a_rest:
        regions.setdefault(region(a), ([], []))[0].append((a, s.inner[a]))
    for b in b_rest:
        regions.setdefault(region(b), ([], []))[1].append((b, t.inner[b]))

    supports: list[SupportPair] = []
    for key in sorted(regions):
        a_items, b_items = regions[key]
        if not a_items or not b_items:
            raise AssertionError("conflict component with an empty side")
        reference_refine(a_items, b_items, supports)
    supports.sort(key=lambda p: (p.ratio, sorted(p.a_side)))

    return GeodesicPath(
        source=s,
        target=t,
        common=tuple(common),
        supports=tuple(supports),
        leaf_deltas=leaf_deltas,
    )


def reference_point(path: GeodesicPath, lam: float) -> Tree:
    """The tree at parameter lam in [0,1]; endpoints are returned exactly."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda {lam} outside [0, 1]")
    if lam == 0.0:
        return path.source
    if lam == 1.0:
        return path.target
    source = path.source
    target = path.target
    leaf_lengths = tuple(
        (1.0 - lam) * a + lam * b
        for a, b in zip(source.leaf_lengths, target.leaf_lengths)
    )
    inner: dict[int, float] = {}
    for split, ls, lt in path.common:
        length = (1.0 - lam) * ls + lam * lt
        if length > 0.0:
            inner[split] = length
    for pair in path.supports:
        shrink = (1.0 - lam) * pair.a_norm - lam * pair.b_norm
        # snap float dust at the crossing to the orthant boundary
        if abs(shrink) <= 1e-13 * (pair.a_norm + pair.b_norm):
            continue
        if shrink > 0.0:
            scale = shrink / pair.a_norm
            for split in pair.a_side:
                inner[split] = source.inner[split] * scale
        else:
            scale = -shrink / pair.b_norm
            for split in pair.b_side:
                inner[split] = target.inner[split] * scale
    return Tree(source.taxa, leaf_lengths, inner)


# ---------------------------------------------------------------------------
# Minimum-weight vertex cover by subset enumeration

def covers(rows, a_mask: int, b_mask: int) -> bool:
    """Whether the masks cover every edge; bit j of rows[i] is edge (i, j)."""
    return all(a_mask >> i & 1 or not row & ~b_mask for i, row in enumerate(rows))


def brute_force_min_cover(a_weights, b_weights, rows):
    """(weight, (A mask, B mask)) of a minimum-weight vertex cover, by
    enumeration; bit j of rows[i] is set when A vertex i meets B vertex j.
    """
    na, nb = len(a_weights), len(b_weights)
    best_weight = math.inf
    best_cover = None
    for a_mask in range(1 << na):
        for b_mask in range(1 << nb):
            if covers(rows, a_mask, b_mask):
                weight = sum(a_weights[i] for i in range(na) if a_mask >> i & 1)
                weight += sum(b_weights[j] for j in range(nb) if b_mask >> j & 1)
                if weight < best_weight:
                    best_weight = weight
                    best_cover = (a_mask, b_mask)
    return best_weight, best_cover


# ---------------------------------------------------------------------------
# Column likelihood by summation over inner-vertex states

def evaluate_terms(terms: dict, theta) -> float:
    """Value of a polynomial {exponents: coefficient} at the vector theta."""
    total = 0.0
    for exps, coeff in terms.items():
        value = coeff
        for i, e in enumerate(exps):
            if e:
                value *= theta[i] ** e
        total += value
    return total


def _edge_prob(mut, theta, child_state, parent_state):
    prob = mut * theta[child_state]
    if child_state == parent_state:
        prob += 1.0 - mut
    return prob


def state_enumeration_likelihood(tree: Tree, column, theta) -> float:
    """Column likelihood at a fixed stationary vector, summing all inner states."""
    root = tree_topology(tree)
    inner_nodes = []

    def collect(node):
        if not node.is_leaf():
            if node is not root:
                inner_nodes.append(node)
            for child in node.children:
                collect(child)

    collect(root)
    total = 0.0
    n_states = len(theta)
    for assignment in itertools.product(range(n_states), repeat=len(inner_nodes) + 1):
        root_state = assignment[0]
        states = {id(root): root_state}
        for node, state in zip(inner_nodes, assignment[1:]):
            states[id(node)] = state
        prob = theta[root_state]

        def walk(node, parent_state):
            nonlocal prob
            for child in node.children:
                mut = -math.expm1(-child.length)
                if child.is_leaf():
                    child_state = column[child.leaf]
                else:
                    child_state = states[id(child)]
                prob *= _edge_prob(mut, theta, child_state, parent_state)
                if not child.is_leaf():
                    walk(child, child_state)

        walk(root, root_state)
        total += prob
    return total


def pruning_likelihood_vectorized(tree: Tree, column, thetas: np.ndarray) -> np.ndarray:
    """Column likelihood at many stationary vectors at once, by numeric pruning.

    thetas has shape (draws, 5); returns shape (draws,).  Independent of
    the polynomial machinery under test.
    """
    root = tree_topology(tree)
    n_states = thetas.shape[1]

    def upward(node) -> np.ndarray:
        """Message indexed by (draw, parent state)."""
        mut = -math.expm1(-node.length)
        if node.is_leaf():
            observed = column[node.leaf]
            message = np.tile(mut * thetas[:, observed : observed + 1], (1, n_states))
            message[:, observed] += 1.0 - mut
            return message
        below = np.ones_like(thetas)
        for child in node.children:
            below *= upward(child)
        mixed = (thetas * below).sum(axis=1, keepdims=True)
        return mut * mixed + (1.0 - mut) * below

    below_root = np.ones_like(thetas)
    for child in root.children:
        below_root *= upward(child)
    return (thetas * below_root).sum(axis=1)


def _raw_product(left: dict, right: dict) -> dict:
    out: dict = {}
    for ea, ca in left.items():
        for eb, cb in right.items():
            key = tuple(a + b for a, b in zip(ea, eb))
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def _raw_times_theta(accum: dict, terms: dict, symbol: int, factor: float) -> None:
    for exps, coeff in terms.items():
        key = tuple(e + (i == symbol) for i, e in enumerate(exps))
        accum[key] = accum.get(key, 0.0) + coeff * factor


def raw_theta_column_terms(tree: Tree, column) -> dict:
    """Column polynomial {exponents: coefficient} by pruning over raw symbols.

    Each vertex sends its parent one polynomial per parent state,
    mut * sum_x theta_x below(x) + stay * below(parent state), and the root
    state adds one stationary factor.  sum(theta) = 1 is never applied, so
    every leafless mutation component multiplies the term count: the
    polynomial is exact but only practical up to about 8 taxa.
    """
    n_states = 5
    one = (0,) * n_states

    def below(node) -> list:
        products = [{one: 1.0} for _ in range(n_states)]
        for child in node.children:
            mut = -math.expm1(-child.length)
            stay = 1.0 - mut
            if child.is_leaf():
                sub = [{} for _ in range(n_states)]
                sub[column[child.leaf]] = {one: 1.0}
            else:
                sub = below(child)
            mixed: dict = {}
            for x in range(n_states):
                _raw_times_theta(mixed, sub[x], x, mut)
            for p in range(n_states):
                message = dict(mixed)
                for exps, coeff in sub[p].items():
                    message[exps] = message.get(exps, 0.0) + coeff * stay
                products[p] = _raw_product(products[p], message)
        return products

    result: dict = {}
    for x, terms in enumerate(below(tree_topology(tree))):
        _raw_times_theta(result, terms, x, 1.0)
    return {exps: coeff for exps, coeff in result.items() if coeff != 0.0}


def raw_theta_log_likelihood(tree: Tree, columns, alpha) -> float:
    """Summed log column likelihood, each raw-symbol polynomial integrated
    monomial by monomial against Dirichlet(alpha)."""
    total_alpha = sum(alpha)
    total = 0.0
    for column in columns:
        value = 0.0
        for exps, coeff in raw_theta_column_terms(tree, column).items():
            log_moment = math.lgamma(total_alpha) - math.lgamma(total_alpha + sum(exps))
            for a, e in zip(alpha, exps):
                log_moment += math.lgamma(a + e) - math.lgamma(a)
            value += coeff * math.exp(log_moment)
        total += math.log(value)
    return total


# ---------------------------------------------------------------------------
# Reference dict pruning over component statuses
#
# The program's likelihood until it compiled pruning plans, kept verbatim:
# status polynomials as {packed exponents: coefficient} dicts, one column
# at a time, with the same power-of-two rescaling.  The batched plans must
# match it to 1e-12 relative.

def _reference_log_moment(counts: tuple[int, ...], alpha: tuple[float, ...]) -> float:
    total_alpha = sum(alpha)
    total = sum(counts)
    value = math.lgamma(total_alpha) - math.lgamma(total_alpha + total)
    for a, count in zip(alpha, counts):
        if count:
            value += math.lgamma(a + count) - math.lgamma(a)
    return value


# Polynomials are bare {exponents: coefficient} dicts.  Inside pruning a
# term's key packs its exponent vector into one int, `width` bits per
# symbol, so multiplying two monomials is one integer addition.  An
# exponent never exceeds the leaf count, so width = n_leaves.bit_length()
# leaves no carry between symbols.

# status polynomials are scaled by a power of two (exactly) once their
# largest coefficient falls below this
_RESCALE_BELOW = 2.0**-256
_LOG2 = math.log(2.0)


def _product(left: dict, right: dict) -> dict:
    if len(left) > len(right):
        left, right = right, left
    out: dict = {}
    for ka, ca in left.items():
        for kb, cb in right.items():
            key = ka + kb
            out[key] = out.get(key, 0.0) + ca * cb
    return out


def _add_into(accum: dict, terms: dict, factor: float = 1.0) -> None:
    for key, coeff in terms.items():
        accum[key] = accum.get(key, 0.0) + coeff * factor


def _closed(empty: dict, shows: dict, units) -> dict:
    """The open component closes: leafless adds 1, showing x adds theta_x."""
    out = dict(empty)
    for x, terms in shows.items():
        unit = units[x]
        for key, coeff in terms.items():
            out[key + unit] = out.get(key + unit, 0.0) + coeff
    return out


def _rescale(empty: dict, shows: dict) -> tuple[int, float]:
    """Multiply every status polynomial by 2**-k, exactly, when the largest
    coefficient nears underflow; returns k (0 when nothing was scaled) and
    the largest coefficient afterwards."""
    states = [empty, *shows.values()]
    peak = max((max(terms.values()) for terms in states if terms), default=0.0)
    if peak == 0.0 or peak >= _RESCALE_BELOW:
        return 0, peak
    exponent = math.frexp(peak)[1]
    factor = math.ldexp(1.0, -exponent)
    for terms in states:
        for key in terms:
            terms[key] *= factor
    return exponent, peak * factor


def reference_column_terms(root, column) -> tuple[dict, int]:
    """The column polynomial as ({exponents: coefficient}, scale); the
    likelihood's coefficients are these times 2**scale.

    Each vertex holds the status polynomials of the mutation-free
    component open at it: `empty` while that component has no leaf
    below, `shows[x]` once its leaves show symbol x.  Coefficients are
    sums of products of probabilities, never differences.
    """
    width = len(column).bit_length()
    units = [1 << (width * x) for x in range(N_SYMBOLS)]
    scale = 0

    def statuses(node) -> tuple[dict, dict, float]:
        """Status polynomials at `node` and a lower bound on their largest
        coefficient."""
        nonlocal scale
        if node.is_leaf():
            return {}, {column[node.leaf]: {0: 1.0}}, 1.0
        empty, shows, floor = {0: 1.0}, {}, 1.0
        for child in node.children:
            c_empty, c_shows, c_floor = statuses(child)
            mut = mutation_prob(child.length)
            stay = 1.0 - mut
            # a mutation on the edge closes the child's component
            m_empty = {k: c * mut for k, c in _closed(c_empty, c_shows, units).items()}
            _add_into(m_empty, c_empty, stay)
            m_shows = {
                x: {k: c * stay for k, c in terms.items()}
                for x, terms in c_shows.items()
            }
            folded = {}
            for x in sorted(shows.keys() | m_shows.keys()):
                terms: dict = {}
                if x in shows:
                    stays_x = m_empty
                    if x in m_shows:
                        stays_x = dict(m_empty)
                        _add_into(stays_x, m_shows[x])
                    _add_into(terms, _product(shows[x], stays_x))
                if x in m_shows:
                    _add_into(terms, _product(empty, m_shows[x]))
                folded[x] = terms
            empty, shows = _product(empty, m_empty), folded
            # a message keeps at least half its child's largest coefficient,
            # and folding it in keeps at least mut times both largest ones
            floor *= c_floor * mut * 0.5
            if floor < _RESCALE_BELOW:
                exponent, floor = _rescale(empty, shows)
                scale += exponent
        return empty, shows, floor

    empty, shows, _ = statuses(root)
    packed = _closed(empty, shows, units)
    mask = (1 << width) - 1
    terms = {
        tuple((key >> (width * x)) & mask for x in range(N_SYMBOLS)): coeff
        for key, coeff in packed.items()
        if coeff > 0.0
    }
    return terms, scale


def reference_log_likelihood(tree: Tree, alignment, prior) -> float:
    """Log likelihood of the whole alignment, marginalized over stationaries."""
    if alignment.taxa != tree.taxa:
        raise ValueError("alignment and tree are over different taxa")
    root = tree_topology(tree)
    alpha = prior.alpha
    total = 0.0
    for pattern, multiplicity in alignment.pattern_index.items():
        terms, scale = reference_column_terms(root, pattern)
        if not terms:
            column = alignment.columns.index(pattern)
            raise ColumnLikelihoodError(column, "likelihood underflow to zero")
        logs = [math.log(c) + _reference_log_moment(e, alpha) for e, c in terms.items()]
        peak = max(logs)
        value = peak + math.log(sum(math.exp(l - peak) for l in logs)) + scale * _LOG2
        total += multiplicity * value
    return total


# ---------------------------------------------------------------------------
# Estimator objectives and Euclidean estimators on single-orthant tree sets

def median_objective(trees, at: Tree) -> float:
    """The median objective (1/K) sum of distances, evaluated at `at`."""
    if not trees:
        raise ValueError("no input trees")
    return sum(distance(at, t) for t in trees) / len(trees)


def length_vector(tree: Tree, splits) -> np.ndarray:
    return np.array(
        list(tree.leaf_lengths) + [tree.inner[s] for s in splits], dtype=float
    )


def euclidean_mean_tree_vectors(trees) -> np.ndarray:
    splits = sorted(trees[0].inner)
    return np.mean([length_vector(t, splits) for t in trees], axis=0)


def weiszfeld_median(points: np.ndarray, steps: int = 2000) -> np.ndarray:
    """Euclidean geometric median of row vectors, by Weiszfeld iteration."""
    current = points.mean(axis=0)
    for _ in range(steps):
        dists = np.linalg.norm(points - current, axis=1)
        if np.any(dists < 1e-12):
            return current
        weights = 1.0 / dists
        new = (points * weights[:, None]).sum(axis=0) / weights.sum()
        if np.linalg.norm(new - current) < 1e-14:
            return new
        current = new
    return current


# ---------------------------------------------------------------------------
# Reference Newick reader: a character-level recursive descent
#
# The program's reader until it tokenized each line, kept verbatim.  It
# stops at the first ';' and ignores whatever follows; the program rejects
# anything but whitespace there.  Everything else -- the tree, or the
# class of the exception -- must agree.

class _ReferenceParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise NewickError(message, self.pos)

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            self.error("unexpected end of input")
        return self.text[self.pos]

    def take(self, char: str) -> None:
        if self.peek() != char:
            self.error(f"expected {char!r}")
        self.pos += 1

    def name(self) -> str:
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in _NAME_STOP:
            self.pos += 1
        name = self.text[start : self.pos].strip()
        if not name:
            self.pos = start
            self.error("expected a taxon name")
        return name

    def length(self) -> float:
        self.take(":")
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isdigit() or self.text[self.pos] in ".eE+-"
        ):
            self.pos += 1
        token = self.text[start : self.pos]
        try:
            value = float(token)
        except ValueError:
            self.pos = start
            self.error(f"bad branch length {token!r}")
        return value

    def node(self, is_root: bool):
        """Returns (name, children, length, offset); length None only at root."""
        offset = self.pos
        if self.peek() == "(":
            self.take("(")
            children = [self.node(False)]
            while self.peek() == ",":
                self.take(",")
                children.append(self.node(False))
            self.take(")")
            name = None
            if self.peek() not in _NAME_STOP:
                self.name()  # internal node label (e.g. support value), ignored
        else:
            name = self.name()
            children = []
        length = None
        if self.peek() == ":":
            length = self.length()
        if length is None and not is_root:
            self.error("missing branch length")
        return name, children, length, offset


def reference_parse_newick(
    text: str,
    *,
    taxa: TaxonTable | None = None,
    outgroup: str | None = None,
) -> Tree:
    """Parse one rooted Newick string into a Tree, character by character.

    Every edge must carry a branch length (a length on the root vertex is
    ignored).  The outgroup taxon becomes leaf 0; by default it is the
    first-listed taxon, unless an existing taxon table fixes the order.
    """
    parser = _ReferenceParser(text)
    try:
        root = parser.node(True)
    except RecursionError:
        # walking the parsed nodes below recurses no deeper than this
        raise NewickError("nested too deeply") from None
    if parser.peek() != ";":
        parser.error("expected ';'")
    parser.pos += 1

    names: list[str] = []

    def collect(node):
        name, children, _, offset = node
        if not children:
            if name in names:
                raise NewickError(f"duplicate taxon {name!r}", offset)
            names.append(name)
        for child in children:
            collect(child)

    collect(root)
    if len(names) < 4:
        raise NewickError(f"fewer than 4 leaves ({len(names)})")

    if taxa is not None:
        if set(names) != set(taxa.names):
            raise NewickError("taxon set does not match the given taxon table")
        if outgroup is not None and outgroup != taxa.names[0]:
            raise NewickError(f"outgroup {outgroup!r} is not leaf 0 of the taxon table")
    else:
        # canonical table: outgroup (or the first-listed taxon) first, the
        # rest sorted, so that serializations re-parse to the same table
        if outgroup is None:
            outgroup = names[0]
        elif outgroup not in names:
            raise NewickError(f"outgroup {outgroup!r} not among the taxa")
        taxa = TaxonTable((outgroup, *sorted(n for n in names if n != outgroup)))

    n_leaves = taxa.size
    full = (1 << n_leaves) - 1
    leaf_lengths = [0.0] * n_leaves
    inner: dict[int, float] = {}

    def walk(node, is_root: bool = False) -> int:
        name, children, length, offset = node
        if children:
            below = 0
            for child in children:
                below |= walk(child)
        else:
            below = 1 << taxa.names.index(name)
        if length is not None and not is_root:
            if not length > 0.0:
                raise NewickError(f"zero/negative branch length {length!r}", offset)
            side = below if not below & 1 else full ^ below
            count = side.bit_count()
            if count == 0:
                raise ValueError("inner edge above all leaves")
            if count == 1:
                leaf_lengths[_min_leaf(side)] += length
            elif count == n_leaves - 1:
                leaf_lengths[0] += length
            else:
                inner[side] = inner.get(side, 0.0) + length
        return below

    walk(root, is_root=True)
    tree = Tree(taxa, tuple(leaf_lengths), inner)
    # one parenthesization gives every leaf one length and laminar splits,
    # so only a length can break `validate`: one part, or a sum of parts,
    # that overflowed
    problems = _length_problems(tree)
    if problems:
        raise InvalidTreeError(problems)
    return tree


# ---------------------------------------------------------------------------
# Explicit topology with one parent search for splits and one for leaves

def reference_tree_topology(tree: Tree) -> Node:
    """The earlier `tree_topology`, kept verbatim: split vertices find
    their parents among the splits sorted by size, each leaf searches all
    splits for its smallest container, and a recursion sorts children."""
    n_leaves = tree.taxa.size
    full = (1 << n_leaves) - 1
    root = Node(None, full, None)
    nodes = [Node(None, s, length) for s, length in sorted(tree.inner.items())]
    # parent of a split node: the smallest strict superset among the others
    by_size = sorted(nodes, key=lambda v: v.mask.bit_count())
    for i, node in enumerate(by_size):
        parent = root
        for other in by_size[i + 1 :]:
            if node.mask & other.mask == node.mask and other.mask != node.mask:
                parent = other
                break
        parent.children.append(node)
    for leaf in range(n_leaves):
        leaf_node = Node(leaf, 1 << leaf, tree.leaf_lengths[leaf])
        parent = root
        best = None
        for node in nodes:
            if node.mask >> leaf & 1:
                if best is None or node.mask.bit_count() < best.mask.bit_count():
                    best = node
        if best is not None:
            parent = best
        parent.children.append(leaf_node)
    _sort_children(root)
    return root


def _sort_children(node: Node) -> None:
    # leaf 0 first, so that the first-listed taxon of the serialization is
    # the outgroup and a default re-parse rebuilds the same taxon table
    node.children.sort(key=lambda c: (c.mask != 1, _min_leaf(c.mask)))
    for child in node.children:
        _sort_children(child)


# ---------------------------------------------------------------------------
# Binary topologies on an explicit adjacency graph

def _splits_of_adjacency(adj: dict[int, set[int]], n_leaves: int) -> frozenset[int]:
    splits = set()
    inner = [v for v in adj if v >= n_leaves]
    for v in inner:
        for w in adj[v]:
            if w < n_leaves or w < v:
                continue
            # leaves on w's side of the edge v-w
            seen = {v, w}
            stack = [w]
            side = 0
            while stack:
                u = stack.pop()
                if u < n_leaves:
                    side |= 1 << u
                for x in adj[u]:
                    if x not in seen:
                        seen.add(x)
                        stack.append(x)
            if side & 1:
                side ^= (1 << n_leaves) - 1
            splits.add(side)
    return frozenset(splits)


def _edges_of(adj: dict[int, set[int]]) -> list[tuple[int, int]]:
    return sorted((v, w) for v in adj for w in adj[v] if v < w)


def reference_random_binary_splits(n_leaves: int, rng) -> frozenset[int]:
    """Random edge insertion on an adjacency graph, with the splits read off
    by a search per edge: the earlier `random_binary_splits`, kept
    verbatim.  Vertices 0..n-1 are leaves, n is the starting center and
    each insertion creates the next id; the inserted edge is drawn by
    index from the sorted (smaller, larger) vertex-id pairs."""
    if n_leaves < 4:
        raise ValueError("need at least 4 leaves")
    center = n_leaves
    adj = {0: {center}, 1: {center}, 2: {center}, center: {0, 1, 2}}
    next_vertex = n_leaves + 1
    for leaf in range(3, n_leaves):
        edges = _edges_of(adj)
        v, w = edges[rng.randrange(len(edges))]
        adj[v].discard(w)
        adj[w].discard(v)
        mid = next_vertex
        next_vertex += 1
        adj[mid] = {v, w, leaf}
        adj[v].add(mid)
        adj[w].add(mid)
        adj[leaf] = {mid}
    return _splits_of_adjacency(adj, n_leaves)


def enumerate_binary_topologies(n_leaves: int) -> set[frozenset[int]]:
    """All binary split sets on the leaf set, by exhaustive leaf insertion."""
    if n_leaves < 4:
        raise ValueError("need at least 4 leaves")
    center = n_leaves
    start = {0: {center}, 1: {center}, 2: {center}, center: {0, 1, 2}}
    partial = [(start, n_leaves + 1)]
    for leaf in range(3, n_leaves):
        grown = []
        for adj, next_vertex in partial:
            for v, w in _edges_of(adj):
                new = {u: set(nbrs) for u, nbrs in adj.items()}
                new[v].discard(w)
                new[w].discard(v)
                new[next_vertex] = {v, w, leaf}
                new[v].add(next_vertex)
                new[w].add(next_vertex)
                new[leaf] = {next_vertex}
                grown.append((new, next_vertex + 1))
        partial = grown
    return {_splits_of_adjacency(adj, n_leaves) for adj, _ in partial}


# ---------------------------------------------------------------------------
# Reference argument parser (argparse, as the command line had it)

def reference_parser() -> argparse.ArgumentParser:
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
