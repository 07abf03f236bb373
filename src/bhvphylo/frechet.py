"""Geometric medians, Fréchet means, and variance of finite tree sets.

Both estimators run the same proximal iteration: walk from the current
iterate toward one input tree along the connecting geodesic, with a step
size that shrinks over time.  For the median the step is
min(1, 1/((i+1) d)); for the mean it is 1/(i+2), which reproduces the
running arithmetic mean whenever all inputs share one orthant.  Input
trees are visited in random order by default, or cyclically.

The random order draws `random.Random(seed).randrange(n)` once per
step, the package's one generator.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, NamedTuple

from .geodesic import distance, geodesic
from .treespace import Tree, common_taxa

_CLEANUP_EPS = 1e-12


class _EstimatorFields(NamedTuple):
    order: str = "random"
    iterations: int | None = None  # None means 1000 * len(trees)
    seed: int = 0
    tolerance: float = 0.0  # early stop on displacement; 0 disables


class EstimatorConfig(_EstimatorFields):
    """Iteration controls shared by mean and median."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.order not in ("random", "cyclic"):
            raise ValueError(f"order must be 'random' or 'cyclic', got {self.order!r}")
        if self.iterations is not None and self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if not 0.0 <= self.tolerance < math.inf:
            raise ValueError("tolerance must be finite and nonnegative")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        return self


def _drop_tiny_splits(tree: Tree) -> Tree:
    # the cutoff is relative to the longest edge, so that scaling every
    # input by a power of two scales the estimate exactly
    floor = _CLEANUP_EPS * max([*tree.leaf_lengths, *tree.inner.values()])
    inner = {s: l for s, l in tree.inner.items() if l >= floor}
    if len(inner) == len(tree.inner):
        return tree
    return Tree(tree.taxa, tree.leaf_lengths, inner)


def _iterates(trees, cfg: EstimatorConfig, step_size) -> Iterator[Tree]:
    """Yield the iterates of the proximal walk; shared by both estimators."""
    count = len(trees)
    rng = random.Random(cfg.seed)
    current = trees[0]
    i = 0
    while True:
        if cfg.order == "random":
            pick = rng.randrange(count)
        else:
            pick = i % count
        target = trees[pick]
        path = geodesic(current, target)
        dist = path.length
        if dist > 0.0:
            current = path.point(step_size(i, dist))
        yield current
        i += 1


def _run(trees, cfg: EstimatorConfig, step_size) -> Tree:
    common_taxa(trees)
    iterations = cfg.iterations or 1000 * len(trees)
    count = len(trees)
    checkpoint = trees[0]
    walk = _iterates(trees, cfg, step_size)
    for i in range(iterations):
        current = next(walk)
        if cfg.tolerance > 0.0 and (i + 1) % count == 0:
            moved = distance(checkpoint, current)
            if moved < cfg.tolerance:
                break
            checkpoint = current
    return _drop_tiny_splits(current)


def median(trees, cfg: EstimatorConfig = EstimatorConfig()) -> Tree:
    """Approximate the geometric median (minimizer of the summed distance).

    The result may be non-unique when the inputs lie on one geodesic; the
    iteration then converges to some point of the median set.
    """
    return _run(trees, cfg, lambda i, d: min(1.0, 1.0 / ((i + 1) * d)))


def mean(trees, cfg: EstimatorConfig = EstimatorConfig()) -> Tree:
    """Approximate the Fréchet mean (minimizer of the summed squared distance)."""
    return _run(trees, cfg, lambda i, d: 1.0 / (i + 2))


def variance(trees, at: Tree) -> float:
    """Mean squared distance from `at` to the trees; Var(T) when `at` is the mean.

    Raises ArithmeticError when the squared distances sum past the largest float.
    """
    common_taxa(trees)
    total = sum([d * d for d in [distance(at, t) for t in trees]])
    if total == math.inf:
        raise ArithmeticError("the variance overflows: its squared distances sum to inf")
    return total / len(trees)

