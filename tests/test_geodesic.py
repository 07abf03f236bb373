import math
import sys

import pytest

import bhvphylo
from bhvphylo.geodesic import distance, geodesic, interpolate
from bhvphylo.treespace import Split, Tree, validate

from conftest import make_taxa, random_tree, spider_tree
from oracles import brute_force_distance


def t3_pair(length_a=0.3, length_b=0.4):
    taxa = make_taxa(4)
    s = Tree(taxa, (0.1,) * 4, {Split.of({1, 2}, 4): length_a})
    t = Tree(taxa, (0.1,) * 4, {Split.of({1, 3}, 4): length_b})
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
        split = Split.of({1, 2}, 4)
        s = Tree(taxa, (0.1,) * 4, {split: 0.3})
        t = Tree(taxa, (0.1,) * 4, {split: 0.55})
        assert distance(s, t) == pytest.approx(0.25, abs=1e-12)

    def test_leaf_lengths_are_euclidean(self):
        taxa = make_taxa(4)
        split = Split.of({1, 2}, 4)
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
        assert halfway.inner[Split.of({1, 2}, 4)] == pytest.approx(0.4, abs=1e-12)
