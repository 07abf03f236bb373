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
split of each tree; no max flow is run for it.

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


def _refine(a_items: list[tuple], b_items: list[tuple], out: list[SupportPair]) -> None:
    """Split (A, B) on minimum covers until none weighs less than one.

    Items are (split, length, conflict row) on side A and (split, length,
    bit) on side B; the networks join each row to the bits it holds.
    """
    norm_a2 = sum(l * l for _, l, _ in a_items)
    norm_b2 = sum(l * l for _, l, _ in b_items)
    # a cut must leave splits of both trees in both halves, so a side
    # holding one split ends the refinement without a max flow
    if len(a_items) > 1 and len(b_items) > 1:
        net = FlowNetwork(
            tuple(l * l / norm_a2 for _, l, _ in a_items),
            tuple(l * l / norm_b2 for _, l, _ in b_items),
            tuple(
                (i, j)
                for i, (_, _, row) in enumerate(a_items)
                for j, (_, _, bit) in enumerate(b_items)
                if row & bit
            ),
        )
        _, (cover_a, cover_b) = max_flow(net)
        weight = sum(net.a_weights[i] for i in cover_a) + sum(
            net.b_weights[j] for j in cover_b
        )
        if weight < 1.0 - _REFINE_TOL:
            c1 = [a_items[i] for i in range(len(a_items)) if i in cover_a]
            c2 = [a_items[i] for i in range(len(a_items)) if i not in cover_a]
            d1 = [b_items[j] for j in range(len(b_items)) if j not in cover_b]
            d2 = [b_items[j] for j in range(len(b_items)) if j in cover_b]
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
