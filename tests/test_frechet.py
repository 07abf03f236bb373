import math
import random

import numpy as np
import pytest

from bhvphylo.frechet import (
    EstimatorConfig,
    _iterates,
    mean,
    median,
    variance,
)
from bhvphylo.geodesic import GeodesicPath, distance, interpolate
from bhvphylo.treespace import Tree

from conftest import make_taxa, random_tree, spider_tree, split_of
from oracles import (
    euclidean_mean_tree_vectors,
    length_vector,
    median_objective,
    weiszfeld_median,
)


def single_orthant_set(rng, count=30, low=0.05, high=0.3):
    taxa = make_taxa(6)
    splits = sorted(random_tree(taxa, rng).inner)
    trees = []
    for _ in range(count):
        leaf = tuple(rng.uniform(low, high) for _ in range(taxa.size))
        inner = {s: rng.uniform(low, high) for s in splits}
        trees.append(Tree(taxa, leaf, inner))
    return trees, splits


class TestConfig:
    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            EstimatorConfig(order="sideways")

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError):
            EstimatorConfig(iterations=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_tolerance(self, value):
        with pytest.raises(ValueError, match="tolerance must be finite"):
            EstimatorConfig(tolerance=value)

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError):
            EstimatorConfig(tolerance=-1.0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3"])
    def test_rejects_a_seed_that_is_not_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match=f"seed must be a nonnegative integer, got {seed!r}"):
            EstimatorConfig(seed=seed)


class TestMedian:
    def test_fixed_point(self, rng):
        tree = random_tree(make_taxa(5), rng)
        result = median([tree] * 4, EstimatorConfig(iterations=50))
        assert result == tree

    def test_three_unit_rays_converge_to_origin(self):
        rays = [
            spider_tree({1, 2}, 1.0),
            spider_tree({1, 3}, 1.0),
            spider_tree({2, 3}, 1.0),
        ]
        result = median(rays, EstimatorConfig(seed=2))
        assert sum(result.inner.values()) <= 1e-2

    def test_two_trees_lands_on_their_geodesic(self, rng):
        taxa = make_taxa(5)
        a = random_tree(taxa, rng)
        b = random_tree(taxa, rng)
        result = median([a, b], EstimatorConfig(seed=3))
        total = distance(a, result) + distance(result, b)
        assert total == pytest.approx(distance(a, b), abs=1e-6)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            median([], EstimatorConfig())

    def test_taxa_mismatch(self, rng):
        a = random_tree(make_taxa(5), rng)
        b = random_tree(make_taxa(6), rng)
        with pytest.raises(ValueError):
            median([a, b], EstimatorConfig())

    def test_objective_close_to_euclidean_median(self, rng):
        trees, splits = single_orthant_set(rng, count=25)
        result = median(trees, EstimatorConfig(seed=5))
        points = np.array([length_vector(t, splits) for t in trees])
        oracle_point = weiszfeld_median(points)
        oracle_objective = float(
            np.linalg.norm(points - oracle_point, axis=1).mean()
        )
        assert median_objective(trees, result) == pytest.approx(
            oracle_objective, abs=1e-3
        )


class TestMean:
    def test_fixed_point(self, rng):
        tree = random_tree(make_taxa(5), rng)
        result = mean([tree] * 3, EstimatorConfig(iterations=50))
        assert result == tree

    def test_single_orthant_matches_euclidean_mean(self, rng):
        trees, splits = single_orthant_set(rng)
        want = euclidean_mean_tree_vectors(trees)
        for order in ("random", "cyclic"):
            result = mean(trees, EstimatorConfig(order=order, seed=4))
            got = length_vector(result, splits)
            assert np.abs(got - want).max() < 1e-3

    def test_cyclic_order_is_permutation_stable(self, rng):
        trees, splits = single_orthant_set(rng, count=12)
        want = euclidean_mean_tree_vectors(trees)
        shuffled = list(trees)
        rng.shuffle(shuffled)
        for ordering in (trees, shuffled):
            result = mean(ordering, EstimatorConfig(order="cyclic"))
            assert np.abs(length_vector(result, splits) - want).max() < 1e-3

    def test_two_ray_spider_closed_form(self):
        a = spider_tree({1, 2}, 0.8)
        b = spider_tree({1, 3}, 0.2)
        # the cyclic walk misses the closed form by O(1/steps), 3e-4 here;
        # a random order adds a sampling error of about 0.011 at 2000 steps
        result = mean([a, b], EstimatorConfig(order="cyclic", seed=1))
        split = split_of({1, 2}, 4)
        assert set(result.inner) == {split}
        assert result.inner[split] == pytest.approx(0.3, abs=1e-2)

    def test_spider_matches_one_dimensional_oracle(self, rng):
        # random two-ray configurations, solved in closed form on the line
        for _ in range(5):
            la = rng.uniform(0.3, 1.0)
            lb = rng.uniform(0.05, la - 0.2)
            a = spider_tree({1, 2}, la)
            b = spider_tree({1, 3}, lb)
            result = mean([a, b], EstimatorConfig(order="cyclic", seed=6))
            want = (la - lb) / 2
            assert result.inner[split_of({1, 2}, 4)] == pytest.approx(want, abs=1e-2)

    def test_objective_nonincreasing_over_tail(self, rng):
        trees, _ = single_orthant_set(rng, count=10, low=0.05, high=0.2)
        count = len(trees)
        for order in ("random", "cyclic"):
            walk = _iterates(
                trees, EstimatorConfig(order=order, seed=7), lambda i, d: 1.0 / (i + 2)
            )
            objectives = []
            current = None
            for i in range(1000 * count):
                current = next(walk)
                if (i + 1) % count == 0:
                    objectives.append(variance(trees, current))
            tail = objectives[len(objectives) // 2 :]
            for early, late in zip(tail, tail[1:]):
                assert late <= early + 1e-6

    def test_step_sizes_in_unit_interval(self, monkeypatch):
        # every step the walk takes lies in (0, 1]; driven on a
        # mixed-orthant input to exercise both estimators' schedules
        steps = []
        real_point = GeodesicPath.point

        def recording(path, lam):
            steps.append(lam)
            return real_point(path, lam)

        monkeypatch.setattr(GeodesicPath, "point", recording)
        trees = [
            spider_tree({1, 2}, 0.5),
            spider_tree({1, 3}, 0.25),
            spider_tree({2, 3}, 0.8),
        ]
        mean(trees, EstimatorConfig(iterations=500, seed=8))
        median(trees, EstimatorConfig(iterations=500, seed=8))
        assert len(steps) > 500
        assert all(0.0 < lam <= 1.0 for lam in steps)

    @pytest.mark.parametrize("estimator", [mean, median])
    def test_overflowing_distance_is_arithmetic_error(self, estimator):
        # the lengths are finite, the squared distance between the
        # conflicting splits is not
        trees = [spider_tree({1, 2}, 1e200), spider_tree({1, 3}, 1e200)]
        with pytest.raises(ArithmeticError, match="squared geodesic distance is inf"):
            estimator(trees, EstimatorConfig(iterations=10, seed=1))

    def test_early_stop_tolerance(self, rng):
        trees, _ = single_orthant_set(rng, count=5)
        fast = mean(trees, EstimatorConfig(seed=9, tolerance=1e-9))
        full = mean(trees, EstimatorConfig(seed=9))
        assert distance(fast, full) < 1e-2


class TestTolerance:
    """The early stop compares the iterate after each pass over the trees
    with the one a pass before."""

    @pytest.mark.parametrize("estimator", [mean, median])
    def test_a_huge_tolerance_stops_after_the_first_pass(self, estimator, rng):
        trees = [random_tree(make_taxa(6), rng) for _ in range(5)]
        one_pass = estimator(trees, EstimatorConfig(iterations=5, seed=3))
        stopped = estimator(trees, EstimatorConfig(iterations=50, seed=3, tolerance=1e9))
        assert stopped == one_pass
        assert stopped != estimator(trees, EstimatorConfig(iterations=50, seed=3))

    @pytest.mark.parametrize("estimator", [mean, median])
    def test_a_tiny_tolerance_never_stops(self, estimator, rng):
        trees = [random_tree(make_taxa(6), rng) for _ in range(5)]
        tiny = estimator(trees, EstimatorConfig(iterations=200, seed=3, tolerance=1e-300))
        assert tiny == estimator(trees, EstimatorConfig(iterations=200, seed=3))


class TestVariance:
    def test_zero_spread(self, rng):
        tree = random_tree(make_taxa(5), rng)
        assert variance([tree, tree, tree], tree) == 0.0

    def test_midpoint_of_two(self, rng):
        taxa = make_taxa(5)
        a = random_tree(taxa, rng)
        b = random_tree(taxa, rng)
        midpoint = interpolate(a, b, 0.5)
        d = distance(a, b)
        assert variance([a, b], midpoint) == pytest.approx(d * d / 4, abs=1e-9)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            variance([], spider_tree({1, 2}, 0.1))
