import functools
import itertools
import math
import sys

import numpy as np
import pytest

import bhvphylo
from bhvphylo import frechet
from bhvphylo import geodesic as geodesic_module
from bhvphylo.frechet import EstimatorConfig
from bhvphylo.geodesic import (
    _ENUM_MAX,
    _conflict_rows,
    _min_cover,
    _refine,
    distance,
    geodesic,
    interpolate,
)
from bhvphylo.maxflow import FlowNetwork, max_flow
from bhvphylo.mcmc import nni_neighbors
from bhvphylo.treespace import Tree, validate

from conftest import assert_same_path, make_taxa, random_tree, spider_tree, split_of
from oracles import (
    brute_force_distance,
    brute_force_min_cover,
    reference_geodesic,
    reference_refine,
)


def t3_pair(length_a=0.3, length_b=0.4):
    taxa = make_taxa(4)
    s = Tree(taxa, (0.1,) * 4, {split_of({1, 2}, 4): length_a})
    t = Tree(taxa, (0.1,) * 4, {split_of({1, 3}, 4): length_b})
    return s, t


def test_package_attribute_is_the_module():
    # the package exports the module's names, not the function over it
    assert bhvphylo.geodesic is sys.modules["bhvphylo.geodesic"]
    assert bhvphylo.geodesic.geodesic is geodesic
    assert "geodesic" not in bhvphylo.__all__


class TestDistance:
    def test_identity(self, rng):
        tree = random_tree(make_taxa(6), rng)
        assert distance(tree, tree) == 0.0
        assert geodesic(tree, tree).supports == ()

    def test_cone_path(self):
        s, t = t3_pair()
        assert distance(s, t) == pytest.approx(0.7, abs=1e-12)

    def test_single_orthant_one_edge(self):
        taxa = make_taxa(4)
        split = split_of({1, 2}, 4)
        s = Tree(taxa, (0.1,) * 4, {split: 0.3})
        t = Tree(taxa, (0.1,) * 4, {split: 0.55})
        assert distance(s, t) == pytest.approx(0.25, abs=1e-12)

    def test_leaf_lengths_are_euclidean(self):
        taxa = make_taxa(4)
        split = split_of({1, 2}, 4)
        s = Tree(taxa, (0.1, 0.2, 0.3, 0.4), {split: 0.3})
        t = Tree(taxa, (0.2, 0.4, 0.1, 0.4), {split: 0.3})
        want = math.sqrt(0.01 + 0.04 + 0.04)
        assert distance(s, t) == pytest.approx(want, abs=1e-12)

    def test_taxa_mismatch(self, rng):
        s = random_tree(make_taxa(5), rng)
        taxa = make_taxa(5)
        other = Tree(
            taxa.__class__(("X",) + taxa.names[1:]), s.leaf_lengths, s.inner
        )
        with pytest.raises(ValueError, match="different taxon tables"):
            distance(s, other)

    def test_matches_oracle_on_random_pairs(self, rng):
        for _ in range(150):
            taxa = make_taxa(int(rng.integers(4, 7)))
            s = random_tree(taxa, rng, drop_probability=0.25)
            t = random_tree(taxa, rng, drop_probability=0.25)
            assert distance(s, t) == pytest.approx(
                brute_force_distance(s, t), abs=1e-9
            )

    def test_matches_oracle_with_up_to_four_unique_splits(self, rng):
        for _ in range(25):
            taxa = make_taxa(7)
            s = random_tree(taxa, rng, drop_probability=0.15)
            t = random_tree(taxa, rng, drop_probability=0.15)
            assert distance(s, t) == pytest.approx(
                brute_force_distance(s, t), abs=1e-9
            )

    def test_metric_axioms(self, rng):
        for _ in range(40):
            taxa = make_taxa(int(rng.integers(4, 8)))
            x = random_tree(taxa, rng, drop_probability=0.2)
            y = random_tree(taxa, rng, drop_probability=0.2)
            z = random_tree(taxa, rng, drop_probability=0.2)
            assert distance(x, y) >= 0.0
            assert abs(distance(x, y) - distance(y, x)) <= 1e-12
            assert distance(x, y) <= distance(x, z) + distance(z, y) + 1e-9

    def test_bounds(self, rng):
        for _ in range(60):
            taxa = make_taxa(int(rng.integers(4, 8)))
            s = random_tree(taxa, rng, drop_probability=0.2)
            t = random_tree(taxa, rng, drop_probability=0.2)
            shared = set(s.inner) & set(t.inner)
            lower = sum((s.inner[c] - t.inner[c]) ** 2 for c in shared)
            lower += sum(s.inner[u] ** 2 for u in set(s.inner) - shared)
            lower += sum(t.inner[u] ** 2 for u in set(t.inner) - shared)
            lower += sum((a - b) ** 2 for a, b in zip(s.leaf_lengths, t.leaf_lengths))
            cone = sum((s.inner[c] - t.inner[c]) ** 2 for c in shared)
            cone += (
                math.sqrt(sum(s.inner[u] ** 2 for u in set(s.inner) - shared))
                + math.sqrt(sum(t.inner[u] ** 2 for u in set(t.inner) - shared))
            ) ** 2
            cone += sum((a - b) ** 2 for a, b in zip(s.leaf_lengths, t.leaf_lengths))
            d = distance(s, t)
            assert math.sqrt(lower) - 1e-12 <= d <= math.sqrt(cone) + 1e-12

    def test_cat0_midpoint_inequality(self, rng):
        for _ in range(80):
            taxa = make_taxa(int(rng.integers(4, 7)))
            x = random_tree(taxa, rng, drop_probability=0.2)
            y = random_tree(taxa, rng, drop_probability=0.2)
            z = random_tree(taxa, rng, drop_probability=0.2)
            mid = interpolate(x, y, 0.5)
            lhs = distance(mid, z) ** 2
            rhs = (
                0.5 * distance(x, z) ** 2
                + 0.5 * distance(y, z) ** 2
                - 0.25 * distance(x, y) ** 2
            )
            assert lhs <= rhs + 1e-9


class TestGeodesicStructure:
    def test_ratios_nondecreasing_and_support_partitions(self, rng):
        for _ in range(60):
            taxa = make_taxa(int(rng.integers(5, 8)))
            s = random_tree(taxa, rng, drop_probability=0.2)
            t = random_tree(taxa, rng, drop_probability=0.2)
            path = geodesic(s, t)
            ratios = [p.ratio for p in path.supports]
            assert ratios == sorted(ratios)
            claimed = set()
            for split, _, _ in path.common:
                claimed.add(split)
            for pair in path.supports:
                assert pair.a_norm > 0 and pair.b_norm > 0
                claimed |= pair.a_side | pair.b_side
            assert claimed == set(s.inner) | set(t.inner)

    def test_support_sides_come_from_the_right_trees(self, rng):
        taxa = make_taxa(6)
        s = random_tree(taxa, rng)
        t = random_tree(taxa, rng)
        path = geodesic(s, t)
        for pair in path.supports:
            assert pair.a_side <= set(s.inner)
            assert pair.b_side <= set(t.inner)


class TestInterpolate:
    def test_endpoints_exact(self, rng):
        taxa = make_taxa(6)
        s = random_tree(taxa, rng)
        t = random_tree(taxa, rng)
        assert interpolate(s, t, 0.0) == s
        assert interpolate(s, t, 1.0) == t

    def test_cone_crossing_is_the_star_tree(self):
        s, t = t3_pair(0.3, 0.4)
        star = interpolate(s, t, 3.0 / 7.0)
        assert star.inner == {}

    def test_same_orthant_midpoint_is_coordinatewise(self, rng):
        taxa = make_taxa(6)
        s = random_tree(taxa, rng)
        t = Tree(
            taxa,
            tuple(l + 0.3 for l in s.leaf_lengths),
            {split: length * 2.0 for split, length in s.inner.items()},
        )
        mid = interpolate(s, t, 0.5)
        for i in range(taxa.size):
            assert mid.leaf_lengths[i] == pytest.approx(
                (s.leaf_lengths[i] + t.leaf_lengths[i]) / 2, abs=1e-12
            )
        for split in s.inner:
            assert mid.inner[split] == pytest.approx(
                (s.inner[split] + t.inner[split]) / 2, abs=1e-12
            )

    def test_distance_contract(self, rng):
        for _ in range(40):
            taxa = make_taxa(int(rng.integers(4, 7)))
            s = random_tree(taxa, rng, drop_probability=0.2)
            t = random_tree(taxa, rng, drop_probability=0.2)
            d = distance(s, t)
            for lam in (0.1, 0.3, 0.5, 0.7, 0.9):
                r = interpolate(s, t, lam)
                assert validate(r) == []
                assert distance(s, r) == pytest.approx(lam * d, abs=1e-9)
                assert distance(r, t) == pytest.approx((1 - lam) * d, abs=1e-9)

    def test_reparametrization(self, rng):
        for _ in range(20):
            taxa = make_taxa(int(rng.integers(4, 7)))
            s = random_tree(taxa, rng, drop_probability=0.2)
            t = random_tree(taxa, rng, drop_probability=0.2)
            d = distance(s, t)
            path = geodesic(s, t)
            for lam1, lam2 in ((0.2, 0.7), (0.1, 0.9), (0.45, 0.55)):
                between = distance(path.point(lam1), path.point(lam2))
                assert between == pytest.approx(abs(lam1 - lam2) * d, abs=1e-9)

    def test_lambda_out_of_range(self):
        s, t = t3_pair()
        with pytest.raises(ValueError):
            interpolate(s, t, 1.5)

    def test_spider_geometry(self):
        # one ray against the origin: straight segment in the orthant
        ray = spider_tree({1, 2}, 0.8)
        origin = spider_tree(set(), 0.0)
        assert distance(ray, origin) == pytest.approx(0.8, abs=1e-12)
        halfway = interpolate(ray, origin, 0.5)
        assert halfway.inner[split_of({1, 2}, 4)] == pytest.approx(0.4, abs=1e-12)


# ---------------------------------------------------------------------------
# The bitmask refinement against the reference kept in oracles.py


def jittered(tree, rng, spread=0.25):
    return Tree(
        tree.taxa,
        tuple(l * float(np.exp(rng.normal(0.0, spread))) for l in tree.leaf_lengths),
        {s: l * float(np.exp(rng.normal(0.0, spread))) for s, l in tree.inner.items()},
    )


def nni_walk(tree, moves, rng):
    for _ in range(moves):
        edges = sorted(tree.inner)
        edge = edges[int(rng.integers(len(edges)))]
        tree = nni_neighbors(tree, edge)[int(rng.integers(2))]
    return tree


def equal_lengths(tree, length=0.1):
    return Tree(tree.taxa, tree.leaf_lengths, {s: length for s in tree.inner})


def posterior_like_set(taxa, rng, trees=12):
    """A few dominant topologies and NNI neighbours of them, lengths jittered."""
    backbone = random_tree(taxa, rng)
    dominants = [backbone] + [nni_walk(backbone, 20, rng) for _ in range(3)]
    out = []
    for k in range(trees):
        base = dominants[k % len(dominants)]
        out.append(jittered(nni_walk(base, int(rng.integers(0, 4)), rng), rng))
    return out


def reference_pairs(rng):
    """Pairs at 8, 16 and 32 taxa: random, NNI neighbours, equal lengths."""
    pairs = []
    for n in (8, 16, 32):
        taxa = make_taxa(n)
        for _ in range(35):
            pairs.append(
                (
                    random_tree(taxa, rng, drop_probability=0.2),
                    random_tree(taxa, rng, drop_probability=0.2),
                )
            )
        trees = posterior_like_set(taxa, rng)
        pairs += list(itertools.combinations(trees, 2))[:45]
        for s, t in pairs[-30:]:
            pairs.append((equal_lengths(s), equal_lengths(t, 0.2)))
    return pairs


class TestMatchesReference:
    def test_identical_paths_on_random_and_posterior_like_pairs(self, rng):
        pairs = reference_pairs(rng)
        assert len(pairs) >= 300
        for s, t in pairs:
            assert_same_path(geodesic(s, t), reference_geodesic(s, t))

    @staticmethod
    def estimator_pairs(trees, monkeypatch):
        """The pairs a proximal walk meets: iterates on orthant faces and
        with shrunken splits, against the input trees."""
        seen = []
        real = frechet.geodesic

        def recording(s, t):
            seen.append((s, t))
            return real(s, t)

        monkeypatch.setattr(frechet, "geodesic", recording)
        frechet.mean(trees, EstimatorConfig(iterations=40, seed=3))
        frechet.median(trees, EstimatorConfig(iterations=40, seed=4))
        assert len(seen) == 80
        return seen

    def test_identical_paths_on_estimator_iterates(self, rng, monkeypatch):
        trees = posterior_like_set(make_taxa(16), rng)
        for s, t in self.estimator_pairs(trees, monkeypatch):
            assert_same_path(geodesic(s, t), reference_geodesic(s, t))

    def test_identical_paths_on_estimator_iterates_at_32_taxa(self, rng, monkeypatch):
        # the scale of the summary benchmark: 30 posterior-like trees
        trees = posterior_like_set(make_taxa(32), rng, trees=30)
        for s, t in self.estimator_pairs(trees, monkeypatch):
            assert_same_path(geodesic(s, t), reference_geodesic(s, t))


class TestOneSplitSide:
    def test_no_max_flow_when_a_side_holds_one_split(self, rng, monkeypatch):
        # recorded at the cover step, which max flow sits behind
        sizes = []
        real = geodesic_module._min_cover

        def counting(a_weights, b_weights, rows):
            sizes.append((len(a_weights), len(b_weights)))
            return real(a_weights, b_weights, rows)

        monkeypatch.setattr(geodesic_module, "_min_cover", counting)
        s, t = t3_pair()
        path = geodesic(s, t)
        assert sizes == []
        assert [(p.a_side, p.b_side) for p in path.supports] == [
            (frozenset(s.inner), frozenset(t.inner))
        ]
        for n in (5, 8, 16):
            taxa = make_taxa(n)
            for _ in range(30):
                s = random_tree(taxa, rng, drop_probability=0.2)
                t = random_tree(taxa, rng, drop_probability=0.2)
                assert_same_path(geodesic(s, t), reference_geodesic(s, t))
        assert sizes, "no network with two splits on both sides was drawn"
        assert all(na > 1 and nb > 1 for na, nb in sizes)

    def test_one_by_k_pairs_are_emitted_unsplit(self, rng, monkeypatch):
        def no_cover(*network):
            raise AssertionError("minimum cover sought for a one-split side")

        monkeypatch.setattr(geodesic_module, "_min_cover", no_cover)
        taxa = make_taxa(16)
        for trial in range(40):
            splits = sorted(random_tree(taxa, rng).inner)
            k = int(rng.integers(1, 6))
            pairs = [(sp, float(rng.uniform(0.05, 1.0))) for sp in splits[: k + 1]]
            one, many = pairs[:1], pairs[1:]
            a_pairs, b_pairs = (one, many) if trial % 2 else (many, one)
            rows = _conflict_rows([a.bits for a, _ in a_pairs], [b.bits for b, _ in b_pairs])
            a_items = [(a, l, row) for (a, l), row in zip(a_pairs, rows)]
            b_items = [(b, l, 1 << j) for j, (b, l) in enumerate(b_pairs)]
            got, want = [], []
            _refine(a_items, b_items, got)
            reference_refine(a_pairs, b_pairs, want)
            assert got == want
            assert len(got) == 1

    def test_no_minimum_cover_of_a_one_by_k_network_splits_it(self, rng):
        # a pair splits only on a minimum cover whose four parts -- A in
        # and out of the cover, B out of and in it -- are all nonempty
        for trial in range(60):
            k = int(rng.integers(1, 6))
            lengths = rng.uniform(0.05, 1.0, k)
            many = tuple(float(l * l / (lengths**2).sum()) for l in lengths)
            edges = [(0, j) for j in range(k) if trial % 3 == 0 or rng.uniform() < 0.6]
            if trial % 2:
                a_weights, b_weights = (1.0,), many
            else:
                a_weights, b_weights = many, (1.0,)
                edges = [(j, i) for i, j in edges]
            best, _ = brute_force_min_cover(a_weights, b_weights, edges)
            na, nb = len(a_weights), len(b_weights)
            for a_mask in range(1 << na):
                for b_mask in range(1 << nb):
                    if not all(a_mask >> i & 1 or b_mask >> j & 1 for i, j in edges):
                        continue
                    weight = sum(a_weights[i] for i in range(na) if a_mask >> i & 1)
                    weight += sum(b_weights[j] for j in range(nb) if b_mask >> j & 1)
                    if weight > best + 1e-12:
                        continue
                    parts = (a_mask, ~a_mask & ((1 << na) - 1),
                             ~b_mask & ((1 << nb) - 1), b_mask)
                    assert not all(parts), (a_weights, b_weights, edges)


def max_flow_cover(a_weights, b_weights, rows):
    """(weight, A mask, B mask) of max_flow's cover, weighed in index order."""
    nb = len(b_weights)
    edges = [(i, j) for i, row in enumerate(rows) for j in range(nb) if row >> j & 1]
    _, (cover_a, cover_b) = max_flow(FlowNetwork(a_weights, b_weights, edges))
    weight = sum((a_weights[i] for i in sorted(cover_a)), 0.0)
    weight += sum((b_weights[j] for j in sorted(cover_b)), 0.0)
    return weight, sum(1 << i for i in cover_a), sum(1 << j for j in cover_b)


def cover_networks(rng, trials):
    """Networks whose smaller side holds 1.._ENUM_MAX vertices, on either
    side, so that _min_cover enumerates every one.

    Weights are continuous, dyadic eighths (float-exact sums, so exact
    ties between covers), one value repeated, or continuous with zeros.
    Some vertices are made isolated.  Yields (kind, a_weights, b_weights,
    rows).
    """
    kinds = ("continuous", "dyadic", "equal", "zeros")
    for trial in range(trials):
        small = 1 + trial // 8 % _ENUM_MAX
        large = small + int(rng.integers(0, 4))
        na, nb = (small, large) if trial % 2 else (large, small)
        kind = kinds[trial // 2 % 4]

        def draw(count):
            if kind == "dyadic":
                return [float(x) for x in rng.integers(0, 5, count) / 8]
            if kind == "equal":
                return [float(rng.uniform(0.01, 1.0))] * count
            weights = [float(x) for x in rng.uniform(0.01, 1.0, count)]
            if kind == "zeros":
                weights = [0.0 if rng.uniform() < 0.3 else w for w in weights]
            return weights

        density = rng.uniform(0.2, 0.9)
        rows = [sum(1 << j for j in range(nb) if rng.uniform() < density) for _ in range(na)]
        if rng.uniform() < 0.3:
            rows[int(rng.integers(na))] = 0
        if rng.uniform() < 0.3:
            rows = [row & ~(1 << int(rng.integers(nb))) for row in rows]
        yield kind, draw(na), draw(nb), rows


class TestEnumeratedCover:
    def test_same_cover_and_weight_bits_as_max_flow(self, rng):
        seen = set()
        for kind, a_weights, b_weights, rows in cover_networks(rng, 3000):
            got = _min_cover(a_weights, b_weights, rows)
            want = max_flow_cover(a_weights, b_weights, rows)
            assert got[1:] == want[1:], (a_weights, b_weights, rows)
            assert got[0].hex() == want[0].hex(), (a_weights, b_weights, rows)
            na, nb = len(a_weights), len(b_weights)
            seen.add((kind, na <= nb, na == nb))
            seen.add((na <= nb, min(na, nb)))
            if 0.0 in a_weights or 0.0 in b_weights:
                seen.add("zero")
            if 0 in rows or (1 << nb) - 1 & ~functools.reduce(int.__or__, rows):
                seen.add("isolated")
        assert {"zero", "isolated"} <= seen
        for side in range(1, _ENUM_MAX + 1):
            assert {(True, side), (False, side)} <= seen
        for kind in ("continuous", "dyadic", "equal", "zeros"):
            assert {(kind, True, True), (kind, True, False), (kind, False, False)} <= seen

    def test_weight_matches_brute_force(self, rng):
        for _, a_weights, b_weights, rows in cover_networks(rng, 600):
            na, nb = len(a_weights), len(b_weights)
            if na + nb > 10:
                continue
            edges = [(i, j) for i, row in enumerate(rows) for j in range(nb) if row >> j & 1]
            weight, cover_a, cover_b = _min_cover(a_weights, b_weights, rows)
            assert all(cover_a >> i & 1 or cover_b >> j & 1 for i, j in edges)
            best, _ = brute_force_min_cover(a_weights, b_weights, edges)
            assert weight == pytest.approx(best, abs=1e-12)

    def test_ties_go_to_the_cover_with_fewest_a_vertices(self):
        # a 2x2 complete network: both one-sided covers weigh 0.5, and a
        # mixed cover needs three vertices
        weights = [0.25, 0.25]
        assert _min_cover(weights, weights, [3, 3]) == (0.5, 0, 3)
        # isolated: an A vertex stays out, a zero-weight B vertex goes in
        assert _min_cover([0.5, 0.0], [0.5, 0.0, 0.25], [1, 0]) == (0.5, 0, 3)
        assert _min_cover([0.5, 0.0, 0.25], [0.5, 0.0], [1, 0, 0]) == (0.5, 0, 3)
        # a zero-weight A vertex is covered when a neighbour stays uncovered
        assert _min_cover([0.0, 0.5], [0.25, 0.5], [1, 2]) == (0.5, 1, 2)


def complete_conflict_pair(n, a_length, b_length, leaf_length=0.1):
    """Two caterpillars whose n-3 inner splits all conflict pairwise.

    The first tree holds the prefixes {1..k}; the second the nested sets
    that hold leaves 1 and n-1 but not leaf 2.  Every pair meets in leaf 1
    and neither contains the other, so the network is complete.
    """
    taxa = make_taxa(n)
    a_splits = [split_of(range(1, k + 1), n) for k in range(2, n - 1)]
    b_splits = [
        split_of([1] + list(range(n - k + 1, n)), n) for k in range(2, n - 1)
    ]
    s = Tree(taxa, (leaf_length,) * n, {sp: a_length for sp in a_splits})
    t = Tree(taxa, (leaf_length,) * n, {sp: b_length for sp in b_splits})
    return s, t


def matching_pair(a_lengths, b_lengths):
    """Trees whose conflict network is a perfect matching: a_i meets only b_i.

    Split i of the first tree is {3i+1, 3i+2} and of the second
    {3i+2, 3i+3}; splits of different i are disjoint.  Nothing is shared,
    so all of them form one component.
    """
    n = 3 * len(a_lengths) + 1
    taxa = make_taxa(n)
    s = Tree(
        taxa,
        (0.1,) * n,
        {split_of({3 * i + 1, 3 * i + 2}, n): l for i, l in enumerate(a_lengths)},
    )
    t = Tree(
        taxa,
        (0.1,) * n,
        {split_of({3 * i + 2, 3 * i + 3}, n): l for i, l in enumerate(b_lengths)},
    )
    return s, t


TIE_LENGTHS = (0.01, 0.1, 0.2, 0.3, 0.7, 1.0 / 3.0)


def proportional_matchings(rng):
    """Matching pairs with b_i = c * a_i: every pair has the same ratio, so
    the minimum cover weighs exactly 1.0 and the geodesic is one pair."""
    pairs = []
    for k in range(2, 7):
        for _ in range(12):
            a_lengths = [float(l) for l in rng.choice(TIE_LENGTHS, k)]
            c = float(rng.choice((0.1, 1.0 / 3.0, 1.0, 3.0, 7.0)))
            pairs.append(matching_pair(a_lengths, [c * l for l in a_lengths]))
    return pairs


def permuted(tree, rng):
    items = list(tree.inner.items())
    order = rng.permutation(len(items))
    return Tree(tree.taxa, tree.leaf_lengths, dict(items[i] for i in order))


def cone_distance(s, t):
    """Length through the star tree, when nothing is shared and leaves agree."""
    return math.sqrt(sum(l * l for l in s.inner.values())) + math.sqrt(
        sum(l * l for l in t.inner.values())
    )


class TestRefineThresholdTies:
    """Networks whose minimum cover weighs 1.0, give or take float dust."""

    def test_complete_conflict_at_equal_lengths_is_one_pair(self):
        for n in (5, 6, 7, 8, 13):
            for a_length, b_length in ((0.1, 0.1), (0.1, 0.3), (0.7, 0.2)):
                s, t = complete_conflict_pair(n, a_length, b_length)
                assert all(
                    not (a.bits & b.bits in (0, a.bits, b.bits))
                    for a in s.inner
                    for b in t.inner
                )
                path = geodesic(s, t)
                assert len(path.supports) == 1
                assert path.supports[0].a_side == frozenset(s.inner)
                assert path.supports[0].b_side == frozenset(t.inner)
                assert path.distance() == pytest.approx(cone_distance(s, t), abs=1e-12)
                if n <= 8:
                    assert path.distance() == pytest.approx(
                        brute_force_distance(s, t), abs=1e-12
                    )

    def test_proportional_matchings_are_one_pair(self, rng, monkeypatch):
        covers = []
        real = geodesic_module._min_cover

        def recording(a_weights, b_weights, rows):
            weight, cover_a, cover_b = real(a_weights, b_weights, rows)
            covers.append((0 < cover_a.bit_count() < len(a_weights), weight))
            return weight, cover_a, cover_b

        monkeypatch.setattr(geodesic_module, "_min_cover", recording)
        for s, t in proportional_matchings(rng):
            path = geodesic(s, t)
            assert [(p.a_side, p.b_side) for p in path.supports] == [
                (frozenset(s.inner), frozenset(t.inner))
            ]
            assert path.distance() == pytest.approx(cone_distance(s, t), abs=1e-12)
            if len(s.inner) <= 4:
                assert path.distance() == pytest.approx(
                    brute_force_distance(s, t), abs=1e-12
                )
        assert all(weight == pytest.approx(1.0, abs=1e-12) for _, weight in covers)
        # float dust made a cover inside a pair lighter than 1.0
        assert any(mixed and weight < 1.0 for mixed, weight in covers)

    def test_insertion_order_of_inner_does_not_change_the_path(self, rng):
        pairs = [complete_conflict_pair(n, 0.1, 0.1) for n in (6, 8, 10)]
        pairs += proportional_matchings(rng)
        for n in (6, 8, 12, 16):
            taxa = make_taxa(n)
            for _ in range(10):
                s = random_tree(taxa, rng, drop_probability=0.15)
                t = random_tree(taxa, rng, drop_probability=0.15)
                pairs.append((equal_lengths(s), equal_lengths(t)))
                pairs.append((equal_lengths(s, 0.3), equal_lengths(t, 0.1)))
        for s, t in pairs:
            want = geodesic(s, t)
            for _ in range(4):
                path = geodesic(permuted(s, rng), permuted(t, rng))
                assert path == want
                assert_same_path(path, want)
