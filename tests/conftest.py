"""Test fixtures, tree builders, and thin hooks into program internals.

The hooks expose what the pipeline computes without a public entry
point (one column's polynomial, one Dirichlet moment) so that tests can
check it against the oracles in oracles.py.
"""

import math
import random

import numpy as np
import pytest

from bhvphylo import phylo_model
from bhvphylo.phylo_model import Alignment, DirichletPrior
from bhvphylo.treespace import TaxonTable, Tree, random_binary_splits


def split_of(leaves, n_leaves: int) -> int:
    """The split with `leaves` on either side of its bipartition: the mask
    of the side without leaf 0."""
    bits = 0
    for i in leaves:
        if i < 0 or i >= n_leaves:
            raise ValueError(f"leaf index {i} out of range")
        bits |= 1 << i
    if bits & 1:
        bits = ((1 << n_leaves) - 1) ^ bits
    return bits


def make_taxa(n_leaves: int) -> TaxonTable:
    return TaxonTable(tuple(["O"] + [f"t{i:02d}" for i in range(1, n_leaves)]))


def random_tree(
    taxa: TaxonTable,
    rng: random.Random,
    drop_probability: float = 0.0,
    low: float = 0.05,
    high: float = 1.0,
) -> Tree:
    """Random topology with uniform lengths; drops splits to hit orthant faces."""
    splits = sorted(random_binary_splits(taxa.size, rng))
    inner = {}
    for split in splits:
        if drop_probability == 0.0 or rng.random() >= drop_probability:
            inner[split] = rng.uniform(low, high)
    leaf_lengths = tuple(rng.uniform(low, high) for _ in range(taxa.size))
    return Tree(taxa, leaf_lengths, inner)


def dirichlet_draws(rng: random.Random, alpha, size=None):
    """numpy's vectorized Dirichlet draws, from a generator seeded by `rng`."""
    return np.random.default_rng(rng.getrandbits(64)).dirichlet(alpha, size)


@pytest.fixture
def rng():
    return random.Random(20240811)


def spider_tree(ray: set, length: float, n_leaves: int = 4, leaf_length: float = 0.1):
    """A 4-leaf tree on one ray of the three-orthant spider (or its origin)."""
    taxa = make_taxa(n_leaves)
    inner = {split_of(ray, n_leaves): length} if ray else {}
    return Tree(taxa, (leaf_length,) * n_leaves, inner)


def assert_same_path(path, want):
    """Same common splits, support sides and leaf deltas, with bit-equal floats."""
    assert path.source == want.source and path.target == want.target
    assert [(c, ls.hex(), lt.hex()) for c, ls, lt in path.common] == [
        (c, ls.hex(), lt.hex()) for c, ls, lt in want.common
    ]
    assert [
        (p.a_side, p.b_side, p.a_norm.hex(), p.b_norm.hex()) for p in path.supports
    ] == [(p.a_side, p.b_side, p.a_norm.hex(), p.b_norm.hex()) for p in want.supports]
    assert [d.hex() for d in path.leaf_deltas] == [d.hex() for d in want.leaf_deltas]
    assert path.length.hex() == want.length.hex()


def trees_close(a: Tree, b: Tree, tol: float = 1e-12) -> bool:
    """Same taxa and splits, all lengths within tol."""
    if a.taxa != b.taxa or set(a.inner) != set(b.inner):
        return False
    if any(abs(x - y) > tol for x, y in zip(a.leaf_lengths, b.leaf_lengths)):
        return False
    return all(abs(a.inner[s] - b.inner[s]) <= tol for s in a.inner)


def column_poly(tree: Tree, column) -> dict:
    """The column likelihood as a polynomial in the stationary distribution,
    {exponents: coefficient} with one exponent per symbol, as the plan that
    `log_likelihood` compiles for a one-pattern alignment computes it (its
    power-of-two scale applied)."""
    alignment = Alignment.from_columns(tree.taxa, [tuple(column)])
    # a plan keeps only each monomial's log moment, so the monomials are
    # taken from the compile as it hands them to `_log_moments`
    monomials = []
    log_moments = phylo_model._log_moments

    def keeping(exponents, alpha):
        monomials.append(exponents)
        return log_moments(exponents, alpha)

    phylo_model._log_moments = keeping
    try:
        (plan,) = phylo_model._plans(tree, alignment, DirichletPrior().alpha)
    finally:
        phylo_model._log_moments = log_moments
    lengths = phylo_model._slot_lengths(tree, plan)
    coefficients, scale = phylo_model._final_coefficients(plan, lengths)
    (exponents,) = monomials
    scaled = {
        tuple(int(e) for e in row): math.ldexp(float(c), int(scale[0]))
        for row, c in zip(exponents, coefficients)
    }
    return {e: c for e, c in scaled.items() if c != 0.0}


def dirichlet_moment(counts, prior: DirichletPrior) -> float:
    """The simplex integral of one monomial against the Dirichlet prior,
    from the log moments `log_likelihood` integrates each term with."""
    if any(c < 0 or c != int(c) for c in counts):
        raise ValueError("counts must be nonnegative integers")
    exponents = np.array([[int(c) for c in counts]])
    return math.exp(phylo_model._log_moments(exponents, prior.alpha)[0])
