import functools
import itertools
import math
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bhvphylo
from bhvphylo import frechet
from bhvphylo import geodesic as geodesic_module
from bhvphylo.frechet import EstimatorConfig
from bhvphylo.geodesic import (
    _ENUM_MAX,
    FlowNetwork,
    GeodesicPath,
    SupportPair,
    _conflict_rows,
    _min_cover,
    _refine,
    distance,
    geodesic,
    interpolate,
    max_flow,
)
from bhvphylo.mcmc import nni_neighbors
from bhvphylo.treespace import (
    Tree,
    parse_newick,
    random_binary_splits,
    serialize_newick,
    validate,
)

from conftest import assert_same_path, make_taxa, random_tree, spider_tree, split_of
from oracles import (
    brute_force_distance,
    brute_force_min_cover,
    covers,
    reference_geodesic,
    reference_point,
    reference_refine,
)


def t3_pair(length_a=0.3, length_b=0.4):
    taxa = make_taxa(4)
    s = Tree(taxa, (0.1,) * 4, {split_of({1, 2}, 4): length_a})
    t = Tree(taxa, (0.1,) * 4, {split_of({1, 3}, 4): length_b})
    return s, t


def tree_bits(tree):
    """A tree's taxa, leaf lengths and inner items in order, floats as hex."""
    return (
        tree.taxa,
        [x.hex() for x in tree.leaf_lengths],
        [(split, x.hex()) for split, x in tree.inner.items()],
    )


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
            taxa = make_taxa(rng.randrange(4, 7))
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

    def test_conflicting_lengths_whose_squares_underflow(self):
        # every conflicting split of the second tree is below 1.5e-162, so
        # its side's squared norm is 0.0 unless the side is rescaled
        s = parse_newick("(((A:0.1,B:0.1):3e-100,C:0.1):1e-170,D:0.1,O:0.1);", outgroup="O")
        t = parse_newick("(((A:0.1,D:0.1):1e-170,C:0.1):2e-170,B:0.1,O:0.1);", taxa=s.taxa)
        assert brute_force_distance(s, t) == 3e-100
        assert distance(s, t) == pytest.approx(3e-100, rel=1e-15, abs=0.0)
        assert distance(t, s) == pytest.approx(3e-100, rel=1e-15, abs=0.0)

    def test_lengths_scaled_by_a_power_of_two_scale_the_supports_and_length(self, rng):
        # 2**-600 squares to below the smallest double
        def tiny(tree):
            leaf_lengths = tuple([math.ldexp(length, -600) for length in tree.leaf_lengths])
            inner = {split: math.ldexp(length, -600) for split, length in tree.inner.items()}
            return Tree(tree.taxa, leaf_lengths, inner)

        # squares taken with pow(x, 2) break this in about 1 pair in 1000
        for _ in range(3000):
            taxa = make_taxa(rng.randrange(5, 9))
            s = random_tree(taxa, rng, drop_probability=0.2)
            t = random_tree(taxa, rng, drop_probability=0.2)
            want, got = geodesic(s, t), geodesic(tiny(s), tiny(t))
            assert [(p.a_side, p.b_side) for p in got.supports] == [
                (p.a_side, p.b_side) for p in want.supports
            ]
            assert [(p.a_norm, p.b_norm) for p in got.supports] == [
                (math.ldexp(p.a_norm, -600), math.ldexp(p.b_norm, -600)) for p in want.supports
            ]
            assert got.length == math.ldexp(want.length, -600)

    def test_metric_axioms(self, rng):
        for _ in range(40):
            taxa = make_taxa(rng.randrange(4, 8))
            x = random_tree(taxa, rng, drop_probability=0.2)
            y = random_tree(taxa, rng, drop_probability=0.2)
            z = random_tree(taxa, rng, drop_probability=0.2)
            assert distance(x, y) >= 0.0
            assert abs(distance(x, y) - distance(y, x)) <= 1e-12
            assert distance(x, y) <= distance(x, z) + distance(z, y) + 1e-9

    def test_bounds(self, rng):
        for _ in range(60):
            taxa = make_taxa(rng.randrange(4, 8))
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
            taxa = make_taxa(rng.randrange(4, 7))
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
            taxa = make_taxa(rng.randrange(5, 8))
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
        path = geodesic(s, t)
        assert path.point(0.0) is s is reference_point(path, 0.0)
        assert path.point(1.0) is t is reference_point(path, 1.0)

    def test_cone_crossing_is_the_star_tree(self):
        s, t = t3_pair(0.3, 0.4)
        star = interpolate(s, t, 3.0 / 7.0)
        assert star.inner == {}
        assert tree_bits(star) == tree_bits(reference_point(geodesic(s, t), 3.0 / 7.0))

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
            taxa = make_taxa(rng.randrange(4, 7))
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
            taxa = make_taxa(rng.randrange(4, 7))
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
        tuple(l * math.exp(rng.gauss(0.0, spread)) for l in tree.leaf_lengths),
        {s: l * math.exp(rng.gauss(0.0, spread)) for s, l in tree.inner.items()},
    )


def nni_walk(tree, moves, rng):
    for _ in range(moves):
        edges = sorted(tree.inner)
        edge = edges[rng.randrange(len(edges))]
        tree = nni_neighbors(tree, edge)[rng.randrange(2)]
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
        out.append(jittered(nni_walk(base, rng.randrange(4), rng), rng))
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


class TestPointMatchesReference:
    def test_bit_equal_points_on_random_and_posterior_like_pairs(self, rng):
        for s, t in reference_pairs(rng):
            path = geodesic(s, t)
            for lam in (1e-9, 0.1, 0.5, 0.9, 1.0 - 1e-9, rng.random()):
                assert tree_bits(path.point(lam)) == tree_bits(reference_point(path, lam))

    def test_bit_equal_points_at_and_beside_each_crossing(self, rng):
        # at lam = a / (a + b) a support's shrink is float dust that both
        # snap to the orthant boundary; one ulp either side it may not be
        crossings = 0
        for s, t in reference_pairs(rng):
            path = geodesic(s, t)
            for pair in path.supports:
                at = pair.a_norm / (pair.a_norm + pair.b_norm)
                for lam in (math.nextafter(at, 0.0), at, math.nextafter(at, 1.0)):
                    got = path.point(lam)
                    assert tree_bits(got) == tree_bits(reference_point(path, lam))
                crossings += 1
        assert crossings > 300

    def test_a_point_holds_new_lengths(self, rng):
        taxa = make_taxa(8)
        s = random_tree(taxa, rng)
        t = Tree(taxa, s.leaf_lengths, s.inner)  # same lengths: every point equals s
        path = geodesic(s, t)
        for lam in (0.25, 0.5):
            point = path.point(lam)
            assert point == s
            assert point.inner is not s.inner and point.inner is not t.inner
            assert point.leaf_lengths is not s.leaf_lengths
            assert point.leaf_lengths is not t.leaf_lengths

    def test_walking_leaves_the_input_trees_unchanged(self, rng):
        trees = posterior_like_set(make_taxa(8), rng)
        before = [tree_bits(tree) for tree in trees]
        estimates = [
            frechet.mean(trees, EstimatorConfig(iterations=200, seed=1)),
            frechet.median(trees, EstimatorConfig(iterations=200, seed=2)),
        ]
        assert [tree_bits(tree) for tree in trees] == before
        for estimate in estimates:
            for tree in trees:
                assert estimate.inner is not tree.inner


class TestPathTypes:
    def test_geodesic_path_fields_are_read_only(self, rng):
        path = geodesic(*t3_pair())
        for name in ("source", "target", "common", "supports", "leaf_deltas", "x"):
            with pytest.raises(AttributeError):
                setattr(path, name, None)
        with pytest.raises(AttributeError):
            del path.supports

    def test_geodesic_path_equality_keywords_and_pickle(self, rng):
        taxa = make_taxa(7)
        s = random_tree(taxa, rng, drop_probability=0.2)
        t = random_tree(taxa, rng, drop_probability=0.2)
        path = geodesic(s, t)
        again = GeodesicPath(
            source=path.source,
            target=path.target,
            common=path.common,
            supports=path.supports,
            leaf_deltas=path.leaf_deltas,
        )
        assert again == path and again is not path
        assert again.length == path.length
        assert path != geodesic(t, s)
        copied = pickle.loads(pickle.dumps(path))
        assert copied == path
        assert_same_path(copied, path)

    def test_support_pair_is_a_named_tuple(self):
        (pair,) = geodesic(*t3_pair(0.3, 0.4)).supports
        assert isinstance(pair, tuple)
        assert pair == SupportPair(pair.a_side, pair.b_side, 0.3, 0.4)
        a_side, b_side, a_norm, b_norm = pair
        assert (a_norm, b_norm) == (0.3, 0.4)
        assert pair.ratio == 0.3 / 0.4


class TestMatchesReference:
    def test_identical_paths_on_random_and_posterior_like_pairs(self, rng):
        pairs = reference_pairs(rng)
        assert len(pairs) >= 300
        for s, t in pairs:
            assert_same_path(geodesic(s, t), reference_geodesic(s, t))

    def test_equal_ratio_supports_in_two_regions(self):
        # regions are refined root-first, so the {5,6} support is found
        # first; the tie on ratio 1.0 must still put {1,2} first
        taxa = make_taxa(10)
        clade = split_of({1, 2, 3, 4}, 10)
        s_only = {split_of({1, 2}, 10): 0.3, split_of({5, 6}, 10): 0.3}
        t_only = {split_of({2, 3}, 10): 0.3, split_of({6, 7}, 10): 0.3}
        s = Tree(taxa, (0.1,) * 10, {clade: 0.2, **s_only})
        t = Tree(taxa, (0.1,) * 10, {clade: 0.2, **t_only})
        path = geodesic(s, t)
        assert [p.ratio for p in path.supports] == [1.0, 1.0]
        assert [p.a_side for p in path.supports] == [
            frozenset({split_of({1, 2}, 10)}),
            frozenset({split_of({5, 6}, 10)}),
        ]
        assert_same_path(path, reference_geodesic(s, t))

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
            k = rng.randrange(1, 6)
            pairs = [(sp, rng.uniform(0.05, 1.0)) for sp in splits[: k + 1]]
            one, many = pairs[:1], pairs[1:]
            a_pairs, b_pairs = (one, many) if trial % 2 else (many, one)
            rows = _conflict_rows([a for a, _ in a_pairs], [b for b, _ in b_pairs])
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
            k = rng.randrange(1, 6)
            lengths = [rng.uniform(0.05, 1.0) for _ in range(k)]
            many = tuple(l * l / sum(x * x for x in lengths) for l in lengths)
            hit = [j for j in range(k) if trial % 3 == 0 or rng.random() < 0.6]
            if trial % 2:
                a_weights, b_weights = (1.0,), many
                rows = [sum(1 << j for j in hit)]
            else:
                a_weights, b_weights = many, (1.0,)
                rows = [int(j in hit) for j in range(k)]
            best, _ = brute_force_min_cover(a_weights, b_weights, rows)
            na, nb = len(a_weights), len(b_weights)
            for a_mask in range(1 << na):
                for b_mask in range(1 << nb):
                    if not covers(rows, a_mask, b_mask):
                        continue
                    weight = sum(a_weights[i] for i in range(na) if a_mask >> i & 1)
                    weight += sum(b_weights[j] for j in range(nb) if b_mask >> j & 1)
                    if weight > best + 1e-12:
                        continue
                    parts = (a_mask, ~a_mask & ((1 << na) - 1),
                             ~b_mask & ((1 << nb) - 1), b_mask)
                    assert not all(parts), (a_weights, b_weights, rows)


def max_flow_cover(a_weights, b_weights, rows):
    """(weight, A mask, B mask) of max_flow's cover, weighed in index order."""
    _, cover_a, cover_b = max_flow(FlowNetwork(a_weights, b_weights, rows))
    weight = sum([w for i, w in enumerate(a_weights) if cover_a >> i & 1], 0.0)
    weight += sum([w for j, w in enumerate(b_weights) if cover_b >> j & 1], 0.0)
    return weight, cover_a, cover_b


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
        large = small + rng.randrange(4)
        na, nb = (small, large) if trial % 2 else (large, small)
        kind = kinds[trial // 2 % 4]

        def draw(count):
            if kind == "dyadic":
                return [rng.randrange(5) / 8 for _ in range(count)]
            if kind == "equal":
                return [rng.uniform(0.01, 1.0)] * count
            weights = [rng.uniform(0.01, 1.0) for _ in range(count)]
            if kind == "zeros":
                weights = [0.0 if rng.random() < 0.3 else w for w in weights]
            return weights

        density = rng.uniform(0.2, 0.9)
        rows = [sum(1 << j for j in range(nb) if rng.random() < density) for _ in range(na)]
        if rng.random() < 0.3:
            rows[rng.randrange(na)] = 0
        if rng.random() < 0.3:
            rows = [row & ~(1 << rng.randrange(nb)) for row in rows]
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
            weight, cover_a, cover_b = _min_cover(a_weights, b_weights, rows)
            assert covers(rows, cover_a, cover_b)
            best, _ = brute_force_min_cover(a_weights, b_weights, rows)
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
            a_lengths = rng.choices(TIE_LENGTHS, k=k)
            c = rng.choice((0.1, 1.0 / 3.0, 1.0, 3.0, 7.0))
            pairs.append(matching_pair(a_lengths, [c * l for l in a_lengths]))
    return pairs


def permuted(tree, rng):
    items = list(tree.inner.items())
    order = rng.sample(range(len(items)), len(items))
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
                    not (a & b in (0, a, b))
                    for a in s.inner
                    for b in t.inner
                )
                path = geodesic(s, t)
                assert len(path.supports) == 1
                assert path.supports[0].a_side == frozenset(s.inner)
                assert path.supports[0].b_side == frozenset(t.inner)
                assert path.length == pytest.approx(cone_distance(s, t), abs=1e-12)
                if n <= 8:
                    assert path.length == pytest.approx(
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
            assert path.length == pytest.approx(cone_distance(s, t), abs=1e-12)
            if len(s.inner) <= 4:
                assert path.length == pytest.approx(
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


# ---------------------------------------------------------------------------
# The layout memo: topology kept per ordered pair of split sets, lengths not

MEMO_LENGTHS = st.one_of(
    st.sampled_from((0.1, 0.2, 0.3, 0.6)),
    st.floats(0.01, 1.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def split_set_pairs(draw):
    """(taxa, source splits, target splits, complete) on 8-12 leaves:
    random binary topologies with some splits contracted, or the two
    caterpillars of complete_conflict_pair, whose one component needs a
    cover."""
    n = draw(st.integers(8, 12))
    if draw(st.booleans()):
        s, t = complete_conflict_pair(n, 0.1, 0.1)
        return s.taxa, sorted(s.inner), sorted(t.inner), True
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    sides = []
    for _ in range(2):
        splits = sorted(random_binary_splits(n, rng))
        kept = draw(st.lists(st.sampled_from((True, True, True, False)),
                             min_size=len(splits), max_size=len(splits)))
        sides.append([split for split, keep in zip(splits, kept) if keep])
    return make_taxa(n), sides[0], sides[1], False


class TestLayoutMemo:
    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(split_set_pairs(), st.data())
    def test_memo_hit_matches_reference(self, pair, data):
        taxa, s_splits, t_splits, complete = pair

        def drawn(splits):
            leaves = tuple(data.draw(MEMO_LENGTHS) for _ in range(taxa.size))
            return Tree(taxa, leaves, {split: data.draw(MEMO_LENGTHS) for split in splits})

        layout = geodesic_module._layout
        for first, second in ((s_splits, t_splits), (t_splits, s_splits)):
            layout.cache_clear()
            s, t = drawn(first), drawn(second)
            assert_same_path(geodesic(s, t), reference_geodesic(s, t))
            assert layout.cache_info()[:2] == (0, 1)
            # the same split sets with new lengths take the stored layout
            s, t = drawn(first), drawn(second)
            assert_same_path(geodesic(s, t), reference_geodesic(s, t))
            assert layout.cache_info()[:2] == (1, 1)
            if complete:
                _, components = layout(frozenset(s.inner), frozenset(t.inner))
                assert any(len(a) > 1 and len(b) > 1 for a, b in components)

    def test_warm_and_cold_memo_give_the_same_estimates(self, rng):
        taxa = make_taxa(8)
        trees = posterior_like_set(taxa, rng)
        # the same topologies with other lengths, and other topologies
        others = [jittered(tree, rng) for tree in trees] + posterior_like_set(taxa, rng)
        assert len({frozenset(tree.inner) for tree in trees}) > 1
        layout = geodesic_module._layout
        results, hits = [], []
        for warm in (False, True):
            layout.cache_clear()
            if warm:
                frechet.mean(others, EstimatorConfig(iterations=300, seed=5))
                frechet.median(others, EstimatorConfig(iterations=300, seed=6))
            before = layout.cache_info().hits
            results.append([
                serialize_newick(frechet.mean(trees, EstimatorConfig(iterations=300, seed=1))),
                serialize_newick(frechet.median(trees, EstimatorConfig(iterations=300, seed=2))),
            ])
            hits.append(layout.cache_info().hits - before)
        assert results[0] == results[1]
        # some layouts stored for the other set served this one
        assert hits[1] > hits[0] > 0
