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
split of each tree; no cover is sought for it.  When the smaller side
holds at most _ENUM_MAX splits, the cover is found by enumerating the
subsets of that side; max flow runs only on larger networks.  The two
pick the same cover where covers tie exactly or their sums are
float-exact; a tie decided by float rounding may go either way.  A
cover's weight adds each side's weights in ascending index order, not
in the order of max flow's cover sets, which differs from it once a
side holds 9 or more splits.

Both trees are over one taxon table, so conflicts are tested on the
split masks directly: two masks normalized away from leaf 0 conflict
exactly when they meet and neither contains the other.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .maxflow import FlowNetwork, max_flow
from .treespace import Split, Tree

_REFINE_TOL = 1e-12
# networks whose smaller side holds at most this many splits are solved by
# enumeration; max flow runs only on larger ones
_ENUM_MAX = 7


@dataclass(frozen=True)
class SupportPair:
    """One leg boundary of the geodesic: source splits traded for target splits."""

    a_side: frozenset[Split]
    b_side: frozenset[Split]
    a_norm: float
    b_norm: float

    @property
    def ratio(self) -> float:
        return self.a_norm / self.b_norm


@dataclass(frozen=True)
class GeodesicPath:
    source: Tree
    target: Tree
    common: tuple[tuple[Split, float, float], ...]
    supports: tuple[SupportPair, ...]
    leaf_deltas: tuple[float, ...]

    def distance(self) -> float:
        total = sum((p.a_norm + p.b_norm) ** 2 for p in self.supports)
        total += sum((ls - lt) ** 2 for _, ls, lt in self.common)
        total += sum(d * d for d in self.leaf_deltas)
        return math.sqrt(total)

    def point(self, lam: float) -> Tree:
        """The tree at parameter lam in [0,1]; endpoints are returned exactly."""
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lambda {lam} outside [0, 1]")
        if lam == 0.0:
            return self.source
        if lam == 1.0:
            return self.target
        source = self.source
        target = self.target
        leaf_lengths = tuple(
            (1.0 - lam) * a + lam * b
            for a, b in zip(source.leaf_lengths, target.leaf_lengths)
        )
        inner: dict[Split, float] = {}
        for split, ls, lt in self.common:
            length = (1.0 - lam) * ls + lam * lt
            if length > 0.0:
                inner[split] = length
        for pair in self.supports:
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

    When the smaller side holds at most _ENUM_MAX vertices, each set U of
    them left uncovered is tried, with the union N(U) of their conflicts
    covered on the other side; larger networks go to max_flow.  Either
    way, each side's weights are added in ascending index order.  Exact
    ties go as max_flow breaks them, to the cover with the fewest A
    vertices: the largest U on A, the smallest U on B, and every
    zero-weight B vertex covered.  A tie that float rounding decides may
    go either way.
    """
    na, nb = len(a_weights), len(b_weights)
    if min(na, nb) > _ENUM_MAX:
        edges = tuple((i, j) for i, row in enumerate(rows) for j in range(nb) if row >> j & 1)
        _, (cover_a, cover_b) = max_flow(FlowNetwork(a_weights, b_weights, edges))
        mask_a = sum(1 << i for i in cover_a)
        mask_b = sum(1 << j for j in cover_b)
        return _mask_sum(a_weights, mask_a) + _mask_sum(b_weights, mask_b), mask_a, mask_b
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


def _refine(a_items: list[tuple], b_items: list[tuple], out: list[SupportPair]) -> None:
    """Split (A, B) on minimum covers until none weighs less than one.

    Items are (split, length, conflict row) on side A and (split, length,
    bit) on side B; a row holds the bits of the B splits it conflicts with.
    """
    norm_a2 = sum(l * l for _, l, _ in a_items)
    norm_b2 = sum(l * l for _, l, _ in b_items)
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
            [l * l / norm_a2 for _, l, _ in a_items],
            [l * l / norm_b2 for _, l, _ in b_items],
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
            frozenset(s for s, _, _ in a_items),
            frozenset(s for s, _, _ in b_items),
            math.sqrt(norm_a2),
            math.sqrt(norm_b2),
        )
    )


def geodesic(s: Tree, t: Tree) -> GeodesicPath:
    """Compute the geodesic path between two trees over the same taxa."""
    if s.taxa != t.taxa:
        raise ValueError("trees are over different taxon tables")
    leaf_deltas = tuple(b - a for a, b in zip(s.leaf_lengths, t.leaf_lengths))

    s_splits, t_splits = set(s.inner), set(t.inner)
    # a split is the tuple (bits, n_leaves), so these sort by mask
    s_only = sorted(s_splits - t_splits)
    t_only = sorted(t_splits - s_splits)
    shared = sorted(s_splits & t_splits)

    # Splits of one tree compatible with everything on the other side do
    # not interact with the conflict: they travel as common edges whose
    # partner length is zero.
    rows = _conflict_rows([a.bits for a in s_only], [b.bits for b in t_only])
    t_hit = 0
    for row in rows:
        t_hit |= row
    common = [(c, s.inner[c], t.inner[c]) for c in shared]
    common += [(a, s.inner[a], 0.0) for a, row in zip(s_only, rows) if not row]
    common += [(b, 0.0, t.inner[b]) for j, b in enumerate(t_only) if not t_hit >> j & 1]
    common.sort()

    # The common splits form a laminar family that cuts the conflict into
    # independent components; every incompatibility stays inside one
    # component, so refinement runs per component.
    cut_masks = sorted((c.bits for c, _, _ in common), key=int.bit_count)
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
            regions.setdefault(region(a.bits), ([], []))[0].append((a, s.inner[a], row))
    for j, b in enumerate(t_only):
        if t_hit >> j & 1:
            regions.setdefault(region(b.bits), ([], []))[1].append((b, t.inner[b], 1 << j))

    supports: list[SupportPair] = []
    for key in sorted(regions):
        a_items, b_items = regions[key]
        if not a_items or not b_items:
            raise AssertionError("conflict component with an empty side")
        _refine(a_items, b_items, supports)
    supports.sort(key=lambda p: (p.ratio, sorted(sp.bits for sp in p.a_side)))

    return GeodesicPath(
        source=s,
        target=t,
        common=tuple(common),
        supports=tuple(supports),
        leaf_deltas=leaf_deltas,
    )


def distance(s: Tree, t: Tree) -> float:
    """BHV geodesic distance between two trees over the same taxa."""
    return geodesic(s, t).distance()


def interpolate(s: Tree, t: Tree, lam: float) -> Tree:
    """The convex combination (1-lam)*s + lam*t along the geodesic."""
    return geodesic(s, t).point(lam)
