"""Geodesics, distances, and interpolation between metric n-trees.

The geodesic between two trees factors into three parts: a Euclidean
part over the leaf edges, a Euclidean part over "common" splits (splits
present in both trees, plus splits of one tree compatible with every
split of the other, which travel with partner length zero), and a
sequence of support pairs over the remaining conflicting splits.

The support sequence starts as the single pair (all source-unique
splits, all target-unique splits) inside each common-edge component and
is refined by solving a minimum-weight vertex cover on the bipartite
incompatibility graph, with weights given by squared lengths normalized
per side.  A pair is split whenever a cover of weight strictly below
one exists; at termination the ratio sequence is nondecreasing and the
path is the geodesic.  A pair is final without a cover in two cases.
With one split on either side it cannot be cut, because each half of a
split pair needs at least one split of each tree; a pair of one split
each is built directly, since math.hypot(x) is abs(x).  When every
source split conflicts with every target split, every cover holds a
whole side, so again no cover can cut it.  The trees are over one
taxon table, so conflicts are tested on the split masks directly: two
masks normalized away from leaf 0 conflict exactly when they meet and
neither contains the other.

A network is one bit row per source split (vertex a) over the target
splits (vertices b), and a cover is two index masks, whose weight adds
each side's weights in ascending index order.  When the smaller side
holds at most _ENUM_MAX vertices, the cover is found by enumerating its
subsets; larger networks go to max flow.  Both break exact ties towards
the fewest A vertices, so they agree wherever covers tie exactly or sum
float-exactly; a tie decided by float rounding may go either way.  A
smaller side of two splits has its four candidate covers written out.
The larger side's sums come from one table of every subset's sum when
that side holds at most two splits more than the smaller; the table
adds in ascending index order too, so its sums are bit for bit those of
a sum over each mask.

Max flow uses the standard encoding: source -> a with capacity w(a),
b -> sink with capacity w(b), and an uncapacitated arc a -> b for every
conflict, taken row by row, each row in index order.  Flow is augmented
along shortest residual paths (Edmonds-Karp) until none is left; the
flow equals the min cover weight, and the cover is read off the final
residual graph.  That graph is kept per side in lists: the residual
capacity of each source arc and each sink arc, the adjacency of each
vertex in that edge order, and a table of the flow on each a -> b arc,
which is the residual capacity of its reverse arc.  The source and the
sink are not vertices.  The breadth-first search goes one layer at a time
in the order a search over a dict-of-dicts residual graph with explicit
source and sink takes (source arcs in index order, a -> b and reverse
arcs in edge order) and stops at the first b with a residual sink arc.
It therefore finds the same augmenting paths as that version, which
tests/oracles.py keeps as the reference, and performs the same float
operations.  Float dust cannot break either part: an augmentation zeroes
its bottleneck arc exactly and leaves every other residual positive, so
the Edmonds-Karp bound on the number of augmentations holds as in exact
arithmetic; and an a -> b arc never saturates, so a vertex b that
reaches the sink takes every neighbour a with it and every edge is
covered.

A geodesic is computed in two passes.  The layout holds everything that
depends only on the two split sets: the common splits, the conflict
rows and the components.  A split and every split it conflicts with lie
in one region, under the smallest common split containing them, so the
layout looks a region up once per group of source splits whose rows
meet, not once per conflicting split.  `_layout` keeps the last
_LAYOUT_MEMO layouts in an `lru_cache`, keyed on the ordered pair
(source split set, target split set), since the layout from s to t is
not that from t to s.  A 5-taxon proximal walk meets few distinct pairs
and reuses nearly every layout; a 32-taxon one reuses about a third.
The length pass reads both trees' lengths through the layout, refines
each component and builds the path.  A layout holds no lengths and no
tree and is never changed after it is built.

Every norm and the path's length is one math.hypot, which scales by a
power of two itself, so tiny lengths neither underflow nor lose bits and
a power-of-two scale of all lengths scales the path exactly.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from typing import NamedTuple

from .treespace import Tree

_REFINE_TOL = 1e-12
# a network whose smaller side holds at most this many splits is enumerated
_ENUM_MAX = 7
# ordered pairs of split sets whose layouts are kept
_LAYOUT_MEMO = 64


class SupportPair(NamedTuple):
    """One leg boundary of the geodesic: source splits traded for target splits."""

    a_side: frozenset[int]
    b_side: frozenset[int]
    a_norm: float
    b_norm: float

    @property
    def ratio(self) -> float:
        return self.a_norm / self.b_norm


class _PathFields(NamedTuple):
    source: Tree
    target: Tree
    # (split, source length, target length), in split order
    common: tuple[tuple[int, float, float], ...]
    # in nondecreasing order of ratio
    supports: tuple[SupportPair, ...]
    leaf_deltas: tuple[float, ...]
    length: float


class GeodesicPath(_PathFields):
    """A geodesic of finite length; building one whose squared length
    overflows raises ArithmeticError, so no caller walks or measures it.

    The constructor takes the first five fields and works out `length`,
    the geodesic distance between the endpoints, from them.
    """

    __slots__ = ()

    def __new__(cls, source: Tree, target: Tree,
                common: tuple[tuple[int, float, float], ...],
                supports: tuple[SupportPair, ...], leaf_deltas: tuple[float, ...]):
        length = math.hypot(
            *[a + b for _, _, a, b in supports], *[ls - lt for _, ls, lt in common], *leaf_deltas
        )
        if not math.isfinite(length * length):
            raise ArithmeticError(f"the squared geodesic distance is {length * length}")
        return tuple.__new__(cls, (source, target, common, supports, leaf_deltas, length))

    def __getnewargs__(self):
        return self[:5]

    def point(self, lam: float) -> Tree:
        """The tree at parameter lam in [0,1]; endpoints are returned exactly."""
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lambda {lam} outside [0, 1]")
        source, target = self.source, self.target
        if lam == 0.0:
            return source
        if lam == 1.0:
            return target
        mu = 1.0 - lam
        leaf_lengths = tuple(
            [mu * a + lam * b for a, b in zip(source.leaf_lengths, target.leaf_lengths)]
        )
        inner: dict[int, float] = {}
        for split, ls, lt in self.common:
            length = mu * ls + lam * lt
            if length > 0.0:
                inner[split] = length
        for a_side, b_side, a_norm, b_norm in self.supports:
            shrink = mu * a_norm - lam * b_norm
            # snap float dust at the crossing to the orthant boundary
            if abs(shrink) <= 1e-13 * (a_norm + b_norm):
                continue
            if shrink > 0.0:
                scale = shrink / a_norm
                lengths = source.inner
                for split in a_side:
                    inner[split] = lengths[split] * scale
            else:
                scale = -shrink / b_norm
                lengths = target.inner
                for split in b_side:
                    inner[split] = lengths[split] * scale
        return Tree(source.taxa, leaf_lengths, inner)


def _conflict_rows(a_bits: list[int], b_bits: list[int]) -> list[int]:
    """Bit j of row i is set when mask a_bits[i] conflicts with b_bits[j]."""
    columns = list(zip(b_bits, [1 << j for j in range(len(b_bits))]))
    rows = []
    for x in a_bits:
        row = 0
        for y, bit in columns:
            meet = x & y
            if meet and meet != x and meet != y:
                row |= bit
        rows.append(row)
    return rows


class FlowNetwork(NamedTuple):
    """Vertex weights for the two sides and the incompatibility edges as
    rows: bit j of rows[i] is set when A vertex i conflicts with B vertex j.

    Weights must be nonnegative; nothing is checked or copied.
    """

    a_weights: list[float]
    b_weights: list[float]
    rows: list[int]


def max_flow(net: FlowNetwork) -> tuple[float, int, int]:
    """Max flow value and the minimum vertex cover it certifies.

    Returns (flow, cover_a, cover_b), the covers as index masks of the
    two weight sequences.  cover_a holds the first-side vertices that
    still reach the sink in the final residual graph and cover_b the
    second-side vertices that do not; this is the smallest sink side of
    any minimum cut, so ties break the same way for every max flow.
    """
    a_cap = list(net.a_weights)  # residual of source -> a
    b_cap = list(net.b_weights)  # residual of b -> sink
    na, nb = len(a_cap), len(b_cap)
    a_adj: list[list[int]] = [[] for _ in range(na)]
    b_adj: list[list[int]] = [[] for _ in range(nb)]
    for i, row in enumerate(net.rows):
        # the set bits of the row, lowest first: index order
        while row:
            low = row & -row
            j = low.bit_length() - 1
            a_adj[i].append(j)
            b_adj[j].append(i)
            row ^= low
    # back[j][i]: flow on a_i -> b_j, the residual capacity of b_j -> a_i
    back = [[0.0] * na for _ in range(nb)]

    flow = 0.0
    # the a vertices with a residual source arc, in index order; a source
    # arc only loses capacity, so one leaves the list when it saturates
    sources = [i for i in range(na) if a_cap[i] > 0.0]
    while True:
        # breadth-first, one layer of each side at a time; a_from[i] is
        # -1 for the source arc or the b reached before a_i
        a_from: list[int | None] = [None] * na
        for i in sources:
            a_from[i] = -1
        b_from: list[int | None] = [None] * nb
        last = _search(sources, a_adj, b_adj, a_from, b_from, b_cap, back)
        if last < 0:
            break
        # the path sink <- b_last <- a <- ... <- source; a -> b arcs are
        # uncapacitated, so the bottleneck is a source, sink or reverse arc
        send = b_cap[last]
        j = last
        while True:
            i = b_from[j]
            k = a_from[i]
            if k < 0:
                send = min(send, a_cap[i])
                break
            send = min(send, back[k][i])
            j = k
        b_cap[last] -= send
        j = last
        while True:
            i = b_from[j]
            back[j][i] += send
            k = a_from[i]
            if k < 0:
                a_cap[i] -= send
                if not a_cap[i] > 0.0:
                    sources.remove(i)
                break
            back[k][i] -= send
            j = k
        flow += send

    # vertices that still reach the sink: b with a residual sink arc, every
    # a adjacent to such a b, and b behind a reverse arc from such an a
    reach_a = [False] * na
    reach_b = [cap > 0.0 for cap in b_cap]
    stack = [j for j in range(nb) if reach_b[j]]
    while stack:
        j = stack.pop()
        for i in b_adj[j]:
            if not reach_a[i]:
                reach_a[i] = True
                for k in a_adj[i]:
                    if not reach_b[k] and back[k][i] > 0.0:
                        reach_b[k] = True
                        stack.append(k)

    cover_a = sum([1 << i for i in range(na) if reach_a[i]])
    cover_b = sum([1 << j for j in range(nb) if not reach_b[j]])
    return flow, cover_a, cover_b


def _search(layer, a_adj, b_adj, a_from, b_from, b_cap, back) -> int:
    """The first b with a residual sink arc, in breadth-first order from
    the a vertices of `layer`, or -1; fills a_from and b_from on the way.

    A b is tested for its sink arc as it is reached: every b reached
    before it has none, so it is the first such b in the reached order.
    """
    while layer:
        reached = []
        for i in layer:
            for j in a_adj[i]:
                if b_from[j] is None:
                    b_from[j] = i
                    if b_cap[j] > 0.0:
                        return j
                    reached.append(j)
        layer = []
        for j in reached:
            row = back[j]
            for i in b_adj[j]:
                if a_from[i] is None and row[i] > 0.0:
                    a_from[i] = j
                    layer.append(i)
    return -1


def _subset_sums(weights) -> list[float]:
    """The sum of weights over each index mask, added in ascending index order."""
    sums = [0.0]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


def _mask_sum(weights, mask: int) -> float:
    total = 0.0
    for j, w in enumerate(weights):
        if mask >> j & 1:
            total += w
    return total


def _min_cover(a_weights, b_weights, rows: list[int]) -> tuple[float, int, int]:
    """(weight, A mask, B mask) of a minimum-weight vertex cover, where
    rows[i] masks the B vertices conflicting with A vertex i.

    Enumeration tries each set U of the smaller side left uncovered, with
    the union N(U) of their conflicts covered on the other side.  An exact
    tie goes to the fewest A vertices: the largest U on A, the smallest U
    on B, and every zero-weight B vertex covered.
    """
    na, nb = len(a_weights), len(b_weights)
    if min(na, nb) > _ENUM_MAX:
        _, cover_a, cover_b = max_flow(FlowNetwork(a_weights, b_weights, rows))
        return _mask_sum(a_weights, cover_a) + _mask_sum(b_weights, cover_b), cover_a, cover_b
    small_is_a = na <= nb
    if small_is_a:
        small, large, conflicts = a_weights, b_weights, rows
        # zero-weight B vertices are covered whatever U is; most networks
        # have none, and the test skips the scan
        always = 0
        if 0.0 in b_weights:
            always = sum(1 << j for j, w in enumerate(b_weights) if w == 0.0)
    else:
        small, large, always = b_weights, a_weights, 0
        conflicts = [sum(1 << i for i, row in enumerate(rows) if row >> j & 1) for j in range(nb)]
    full = (1 << len(small)) - 1
    if full == 3:
        # a smaller side of two splits: its four U written out
        r0, r1 = conflicts
        reach = [always, always | r0, always | r1, always | r0 | r1]
    else:
        reach = [always]  # reach[u]: the other side's cover when u is uncovered
        for row in conflicts:
            reach += [r | row for r in reach]
    # large_sums[n]: the other side's weight over mask n; the _subset_sums
    # table adds exactly as _mask_sum does, and is cheaper while it is small
    if len(large) - len(small) <= 2:
        large_sums = _subset_sums(large)
    else:
        large_sums = {n: _mask_sum(large, n) for n in set(reach)}
    # weights[u]; the covered part of the small side is full ^ u == full - u
    if full == 3:
        # the sums of _subset_sums(small), reversed, written out
        w0, w1 = small
        weights = [w0 + w1 + large_sums[always], w1 + large_sums[reach[1]],
                   w0 + large_sums[reach[2]], large_sums[reach[3]]]
    else:
        weights = [c + large_sums[n] for c, n in zip(reversed(_subset_sums(small)), reach)]
    best = min(weights)
    # in exact arithmetic the lightest U form a lattice, so the largest U
    # is the last lightest index and the smallest U the first
    if small_is_a:
        u = full - weights[::-1].index(best)
        return best, full ^ u, reach[u]
    u = weights.index(best)
    return best, reach[u], full ^ u


def _refine(a_side, b_side, s_len: dict, t_len: dict, out: list[SupportPair]) -> None:
    """Split (A, B) on minimum covers until none weighs less than one.

    A holds (split, conflict row) pairs and B (split, bit) pairs, as the
    layout gives them; a row holds the bits of the B splits it conflicts
    with.  Lengths are read from s_len and t_len.
    """
    na, nb = len(a_side), len(b_side)
    if na == 1 == nb:
        # built directly: math.hypot(x) is abs(x)
        (a, _), (b, _) = a_side[0], b_side[0]
        out.append(SupportPair(frozenset((a,)), frozenset((b,)), abs(s_len[a]), abs(t_len[b])))
        return
    a_lengths = [s_len[a] for a, _ in a_side]
    b_lengths = [t_len[b] for b, _ in b_side]
    norm_a = math.hypot(*a_lengths)
    norm_b = math.hypot(*b_lengths)
    # a cut must leave splits of both trees in both halves, so a side
    # holding one split ends the refinement without a cover
    if na > 1 and nb > 1:
        rows = []  # the rows over this network's B indices
        for _, row in a_side:
            local = 0
            for j, (_, bit) in enumerate(b_side):
                if row & bit:
                    local |= 1 << j
            rows.append(local)
        full_a, full_b = (1 << na) - 1, (1 << nb) - 1
        # every cover of a complete network holds a whole side, so it cannot
        # cut the pair either
        if rows.count(full_b) < na:
            weight, cover_a, cover_b = _min_cover(
                [(l / norm_a) * (l / norm_a) for l in a_lengths],
                [(l / norm_b) * (l / norm_b) for l in b_lengths],
                rows,
            )
            if weight < 1.0 - _REFINE_TOL and 0 < cover_a < full_a and 0 < cover_b < full_b:
                c1, c2, d1, d2 = [], [], [], []
                for item in a_side:
                    (c1 if cover_a & 1 else c2).append(item)
                    cover_a >>= 1
                for item in b_side:
                    (d2 if cover_b & 1 else d1).append(item)
                    cover_b >>= 1
                _refine(c1, d1, s_len, t_len, out)
                _refine(c2, d2, s_len, t_len, out)
                return
    out.append(
        SupportPair(
            frozenset([a for a, _ in a_side]), frozenset([b for b, _ in b_side]), norm_a, norm_b
        )
    )


@functools.lru_cache(maxsize=_LAYOUT_MEMO)
def _layout(s_splits: frozenset[int], t_splits: frozenset[int]) -> tuple[tuple, tuple]:
    """The part of the geodesic from split set s_splits to t_splits that
    holds no lengths: (common, components).

    `common` lists the common splits in sorted order.  Each component is
    (A, B): the source splits with their conflict rows and the target
    splits with their bits, components in order of the common split that
    cuts them out.
    """
    s_only = sorted(s_splits - t_splits)
    t_only = sorted(t_splits - s_splits)

    # Splits of one tree compatible with everything on the other side do
    # not interact with the conflict: they travel as common edges whose
    # partner length is zero.
    rows = _conflict_rows(s_only, t_only)
    t_hit = 0
    for row in rows:
        t_hit |= row
    common = list(s_splits & t_splits)
    # most splits conflict: the tests skip scans that would find none
    if 0 in rows:
        common += [a for a, row in zip(s_only, rows) if not row]
    if t_hit != (1 << len(t_only)) - 1:
        common += [b for j, b in enumerate(t_only) if not t_hit >> j & 1]
    common.sort()

    # The common splits form a laminar family that cuts the conflict into
    # independent components; every incompatibility stays inside one
    # component, so refinement runs per component.  A region is keyed by
    # the smallest common split strictly containing it, -1 if none does;
    # one lookup serves a conflict group (see the module docstring).
    cut_masks = sorted(common, key=int.bit_count)
    cut_sizes = list(map(int.bit_count, cut_masks))
    a_sides: dict[int, list] = {}
    b_masks: dict[int, int] = {}  # the target splits of each region
    for a, row in zip(s_only, rows):
        if row:
            for key, hit in b_masks.items():
                if row & hit:
                    break
            else:
                # smaller or equal sizes cannot contain a
                for key in cut_masks[bisect_right(cut_sizes, a.bit_count()) :]:
                    if a & key == a:
                        break
                else:
                    key = -1
            a_sides.setdefault(key, []).append((a, row))
            b_masks[key] = b_masks.get(key, 0) | row
    components = []
    for key in sorted(a_sides):
        # a region's target splits are those its rows hit, in index order
        b_side = []
        hit = b_masks[key]
        while hit:
            bit = hit & -hit
            b_side.append((t_only[bit.bit_length() - 1], bit))
            hit ^= bit
        components.append((tuple(a_sides[key]), tuple(b_side)))
    return tuple(common), tuple(components)


def geodesic(s: Tree, t: Tree) -> GeodesicPath:
    """Compute the geodesic path between two trees over the same taxa."""
    if s.taxa is not t.taxa and s.taxa != t.taxa:
        raise ValueError("trees are over different taxon tables")
    s_len, t_len = s.inner, t.inner
    common, components = _layout(frozenset(s_len), frozenset(t_len))

    supports: list[SupportPair] = []
    for a_side, b_side in components:
        _refine(a_side, b_side, s_len, t_len, supports)
    if len(supports) > 1:
        # A sides of distinct supports are disjoint, so their smallest masks
        # break ratio ties as the sorted lists of all their masks would
        supports.sort(key=lambda p: (p.ratio, min(p.a_side)))

    s_get, t_get = s_len.get, t_len.get
    # by position: a class called with keywords builds a dict for them
    return GeodesicPath(
        s,
        t,
        # a split absent from one tree has length zero there
        tuple([(c, s_get(c, 0.0), t_get(c, 0.0)) for c in common]),
        tuple(supports),
        tuple([b - a for a, b in zip(s.leaf_lengths, t.leaf_lengths)]),
    )


def distance(s: Tree, t: Tree) -> float:
    """BHV geodesic distance between two trees over the same taxa."""
    return geodesic(s, t).length


def interpolate(s: Tree, t: Tree, lam: float) -> Tree:
    """The convex combination (1-lam)*s + lam*t along the geodesic."""
    return geodesic(s, t).point(lam)
