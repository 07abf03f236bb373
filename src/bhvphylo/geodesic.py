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
path is the geodesic.  A pair with one split on either side is final
without a cut, because each half of a split pair needs at least one
split of each tree; no cover is sought for it.  The trees are over one
taxon table, so conflicts are tested on the split masks directly: two
masks normalized away from leaf 0 conflict exactly when they meet and
neither contains the other.

A network is one bit row per source split (vertex a) over the target
splits (vertices b), and a cover is two index masks, whose weight adds
each side's weights in ascending index order.  When the smaller side
holds at most _ENUM_MAX vertices, the cover is found by enumerating its
subsets; larger networks go to max flow.  Both break exact ties towards
the fewest A vertices, so they agree wherever covers tie exactly or sum
float-exactly; a tie decided by float rounding may go either way.

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
rows and the components.  `_layout` keeps the last _LAYOUT_MEMO layouts
in an `lru_cache`, keyed on the ordered pair (source split set, target
split set), since the layout from s to t is not that from t to s; a
proximal walk meets few distinct pairs, so most of its steps reuse one.
The length pass reads both trees' lengths through the layout, refines
each component and builds the path.  A layout holds no lengths and no
tree and is never changed after it is built.

Norms and the path's length sum squares taken as x * x, which is
correctly rounded and so commutes with a power-of-two scale, where libm's
pow(x, 2) may not; a sum below _SQUARE_FLOOR is redone after the exact
power-of-two scale that puts the largest value in [0.5, 1), then
unscaled, so tiny lengths neither underflow nor lose bits.
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
# sums of squares below this are taken at a power-of-two scale (module docstring)
_SQUARE_FLOOR = 1e-250


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
        total = sum([(a + b) * (a + b) for _, _, a, b in supports])
        total += sum([(ls - lt) * (ls - lt) for _, ls, lt in common])
        total += sum([d * d for d in leaf_deltas])
        if not math.isfinite(total):
            raise ArithmeticError(f"the squared geodesic distance is {total}")
        length = math.sqrt(total)
        if total < _SQUARE_FLOOR:
            sums, deltas = [a + b for _, _, a, b in supports], [ls - lt for _, ls, lt in common]
            length = _scaled_squares(sums, deltas, leaf_deltas)[2]
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
        for j in range(nb):
            if row >> j & 1:
                a_adj[i].append(j)
                b_adj[j].append(i)
    # back[j][i]: flow on a_i -> b_j, the residual capacity of b_j -> a_i
    back = [[0.0] * na for _ in range(nb)]

    flow = 0.0
    while True:
        # breadth-first, one layer of each side at a time; a_from[i] is
        # -1 for the source arc or the b reached before a_i
        a_from: list[int | None] = [None] * na
        b_from: list[int | None] = [None] * nb
        layer = [i for i in range(na) if a_cap[i] > 0.0]
        for i in layer:
            a_from[i] = -1
        last = -1
        while layer and last < 0:
            reached = []
            for i in layer:
                for j in a_adj[i]:
                    if b_from[j] is None:
                        b_from[j] = i
                        reached.append(j)
            layer = []
            for j in reached:
                if b_cap[j] > 0.0:
                    last = j
                    break
                row = back[j]
                for i in b_adj[j]:
                    if a_from[i] is None and row[i] > 0.0:
                        a_from[i] = j
                        layer.append(i)
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
        # zero-weight B vertices are covered whatever U is
        always = sum(1 << j for j, w in enumerate(b_weights) if w == 0.0)
    else:
        small, large, always = b_weights, a_weights, 0
        conflicts = [sum(1 << i for i, row in enumerate(rows) if row >> j & 1) for j in range(nb)]
    full = (1 << len(small)) - 1
    reach = [always]  # reach[u]: the other side's cover when u is uncovered
    for row in conflicts:
        reach += [r | row for r in reach]
    large_sums = {n: _mask_sum(large, n) for n in set(reach)}
    # weights[u]; the covered part of the small side is full ^ u == full - u
    weights = [c + large_sums[n] for c, n in zip(reversed(_subset_sums(small)), reach)]
    best = min(weights)
    # in exact arithmetic the lightest U form a lattice, so the largest U
    # is the last lightest index and the smallest U the first
    if small_is_a:
        u = full - weights[::-1].index(best)
        return best, full ^ u, reach[u]
    u = weights.index(best)
    return best, reach[u], full ^ u


def _squares(items: list[tuple]) -> tuple[list[float], float, float]:
    """(squared lengths, their sum, norm) of a side; see _SQUARE_FLOOR."""
    squares = [l * l for _, l, _ in items]
    total = sum(squares)
    if total >= _SQUARE_FLOOR:
        return squares, total, math.sqrt(total)
    return _scaled_squares([l for _, l, _ in items])


def _scaled_squares(*parts) -> tuple[list[float], float, float]:
    """(squares, their sum, norm) of `parts` at _SQUARE_FLOOR's scale, summed part by part."""
    shift = -math.frexp(max([abs(x) for part in parts for x in part]))[1]
    squares = [[y * y for y in [math.ldexp(x, shift) for x in part]] for part in parts]
    total = sum([sum(part) for part in squares])
    return sum(squares, []), total, math.ldexp(math.sqrt(total), -shift)


def _refine(a_items: list[tuple], b_items: list[tuple], out: list[SupportPair]) -> None:
    """Split (A, B) on minimum covers until none weighs less than one.

    Items are (split, length, conflict row) on side A and (split, length,
    bit) on side B; a row holds the bits of the B splits it conflicts with.
    """
    squares_a, norm_a2, norm_a = _squares(a_items)
    squares_b, norm_b2, norm_b = _squares(b_items)
    # a cut must leave splits of both trees in both halves, so a side
    # holding one split ends the refinement without a cover
    if len(a_items) > 1 and len(b_items) > 1:
        rows = []  # the rows over this network's B indices
        for _, _, row in a_items:
            local = 0
            for j, (_, _, bit) in enumerate(b_items):
                if row & bit:
                    local |= 1 << j
            rows.append(local)
        weight, cover_a, cover_b = _min_cover(
            [q / norm_a2 for q in squares_a],
            [q / norm_b2 for q in squares_b],
            rows,
        )
        if weight < 1.0 - _REFINE_TOL:
            c1 = [item for i, item in enumerate(a_items) if cover_a >> i & 1]
            c2 = [item for i, item in enumerate(a_items) if not cover_a >> i & 1]
            d1 = [item for j, item in enumerate(b_items) if not cover_b >> j & 1]
            d2 = [item for j, item in enumerate(b_items) if cover_b >> j & 1]
            if c1 and c2 and d1 and d2:
                _refine(c1, d1, out)
                _refine(c2, d2, out)
                return
    out.append(
        SupportPair(
            frozenset([s for s, _, _ in a_items]),
            frozenset([s for s, _, _ in b_items]),
            norm_a,
            norm_b,
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
    common += [a for a, row in zip(s_only, rows) if not row]
    common += [b for j, b in enumerate(t_only) if not t_hit >> j & 1]
    common.sort()

    # The common splits form a laminar family that cuts the conflict into
    # independent components; every incompatibility stays inside one
    # component, so refinement runs per component.
    cut_masks = sorted(common, key=int.bit_count)
    cut_sizes = [mask.bit_count() for mask in cut_masks]

    def region(x: int) -> int:
        # the smallest common split strictly containing x; smaller or
        # equal sizes cannot contain it
        for mask in cut_masks[bisect_right(cut_sizes, x.bit_count()) :]:
            if x & mask == x:
                return mask
        return -1

    regions: dict[int, tuple[list, list]] = {}
    for a, row in zip(s_only, rows):
        if row:
            regions.setdefault(region(a), ([], []))[0].append((a, row))
    for j, b in enumerate(t_only):
        if t_hit >> j & 1:
            regions.setdefault(region(b), ([], []))[1].append((b, 1 << j))
    components = []
    for key in sorted(regions):
        a_side, b_side = regions[key]
        if not a_side or not b_side:
            raise AssertionError("conflict component with an empty side")
        components.append((tuple(a_side), tuple(b_side)))
    return tuple(common), tuple(components)


def geodesic(s: Tree, t: Tree) -> GeodesicPath:
    """Compute the geodesic path between two trees over the same taxa."""
    if s.taxa is not t.taxa and s.taxa != t.taxa:
        raise ValueError("trees are over different taxon tables")
    s_len, t_len = s.inner, t.inner
    common, components = _layout(frozenset(s_len), frozenset(t_len))

    supports: list[SupportPair] = []
    for a_side, b_side in components:
        _refine(
            [(a, s_len[a], row) for a, row in a_side],
            [(b, t_len[b], bit) for b, bit in b_side],
            supports,
        )
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
