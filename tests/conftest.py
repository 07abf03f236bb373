import numpy as np
import pytest

from bhvphylo.treespace import Split, TaxonTable, Tree, random_binary_splits


def make_taxa(n_leaves: int) -> TaxonTable:
    return TaxonTable(tuple(["O"] + [f"t{i:02d}" for i in range(1, n_leaves)]))


def random_tree(
    taxa: TaxonTable,
    rng: np.random.Generator,
    drop_probability: float = 0.0,
    low: float = 0.05,
    high: float = 1.0,
) -> Tree:
    """Random topology with uniform lengths; drops splits to hit orthant faces."""
    splits = sorted(random_binary_splits(taxa.size, rng))
    inner = {}
    for split in splits:
        if drop_probability == 0.0 or rng.uniform() >= drop_probability:
            inner[split] = float(rng.uniform(low, high))
    leaf_lengths = tuple(float(x) for x in rng.uniform(low, high, taxa.size))
    return Tree(taxa, leaf_lengths, inner)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def spider_tree(ray: set, length: float, n_leaves: int = 4, leaf_length: float = 0.1):
    """A 4-leaf tree on one ray of the three-orthant spider (or its origin)."""
    taxa = make_taxa(n_leaves)
    inner = {Split.of(ray, n_leaves): length} if ray else {}
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
    assert path.distance().hex() == want.distance().hex()
