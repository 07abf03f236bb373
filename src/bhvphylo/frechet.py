"""Geometric medians, Fréchet means, and variance of finite tree sets.

Both estimators run the same proximal iteration: walk from the current
iterate toward one input tree along the connecting geodesic, with a step
size that shrinks over time.  For the median the step is
min(1, 1/((i+1) d)); for the mean it is 1/(i+2), which reproduces the
running arithmetic mean whenever all inputs share one orthant.  Input
trees are visited in random order by default, or cyclically.

The random order is numpy's: `np.random.default_rng(seed).integers(n)`,
drawn once per step.  The module reproduces that integer stream itself
(SeedSequence seeding, the PCG64 generator and Lemire's bounded draw),
so an estimator neither imports `numpy.random` nor changes its visiting
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .geodesic import distance, geodesic
from .treespace import Tree, common_taxa

_CLEANUP_EPS = 1e-12

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix starting from `const`: each call hashes one
    32-bit word and moves the constant on by `mult`."""

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _mix(x: int, y: int) -> int:
    result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return result ^ result >> 16


def _seed_state(seed: int) -> list[int]:
    """`np.random.SeedSequence(seed).generate_state(4, np.uint64)`: the
    seed's 32-bit words, low first, mixed into a pool of four words."""
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # eight 32-bit halves of the four 64-bit words, low half first
    generate = _hasher(0x8B51F9DD, 0x58F38DED)
    halves = [generate(pool[i % 4]) for i in range(8)]
    return [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)]


def _uint32_stream(seed: int) -> Iterator[int]:
    """numpy's PCG64 (XSL-RR) seeded with `seed`, as 32-bit words: each
    64-bit output gives its low half, then its high half."""
    s0, s1, i0, i1 = _seed_state(seed)
    inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
    # pcg64_set_seed: from state 0 step (giving inc), add the seed, step
    state = ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128
    while True:
        state = (state * _PCG_MULT + inc) & _MASK128
        folded = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        out = (folded >> rot | folded << (64 - rot)) & _MASK64
        yield out & _MASK32
        yield out >> 32


def _draw(words: Iterator[int], n: int) -> int:
    """The next `Generator.integers(n)` value for 1 <= n <= 2**32: Lemire's
    bounded draw on 32-bit words, which n == 1 does not consume."""
    if n == 1:
        return 0
    if n == 1 << 32:
        return next(words)
    product = next(words) * n
    if product & _MASK32 < n:
        threshold = ((1 << 32) - n) % n
        while product & _MASK32 < threshold:
            product = next(words) * n
    return product >> 32


@dataclass(frozen=True)
class EstimatorConfig:
    """Iteration controls shared by mean and median."""

    order: str = "random"
    iterations: int | None = None  # None means 1000 * len(trees)
    seed: int = 0
    tolerance: float = 0.0  # early stop on displacement; 0 disables

    def __post_init__(self):
        if self.order not in ("random", "cyclic"):
            raise ValueError(f"order must be 'random' or 'cyclic', got {self.order!r}")
        if self.iterations is not None and self.iterations < 1:
            raise ValueError("iterations must be at least 1")
        if not 0.0 <= self.tolerance < math.inf:
            raise ValueError("tolerance must be finite and nonnegative")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")


def _drop_tiny_splits(tree: Tree) -> Tree:
    inner = {s: l for s, l in tree.inner.items() if l >= _CLEANUP_EPS}
    if len(inner) == len(tree.inner):
        return tree
    return Tree(tree.taxa, tree.leaf_lengths, inner)


def _iterates(trees, cfg: EstimatorConfig, step_size) -> Iterator[Tree]:
    """Yield the iterates of the proximal walk; shared by both estimators."""
    count = len(trees)
    words = _uint32_stream(cfg.seed)
    current = trees[0]
    i = 0
    while True:
        if cfg.order == "random":
            pick = _draw(words, count)
        else:
            pick = i % count
        target = trees[pick]
        path = geodesic(current, target)
        dist = path.distance()
        if not math.isfinite(dist):
            raise ArithmeticError(f"step {i}: distance to input tree {pick} is {dist}")
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
    """Mean squared distance from `at` to the trees; Var(T) when `at` is the mean."""
    common_taxa(trees)
    return sum(distance(at, t) ** 2 for t in trees) / len(trees)

