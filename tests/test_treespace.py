import itertools
import math
import sys

import numpy as np
import pytest

from bhvphylo.treespace import (
    InvalidTreeError,
    NewickError,
    Split,
    TaxonTable,
    Tree,
    check,
    compatible,
    load_samples,
    parse_newick,
    random_binary_splits,
    serialize_newick,
    tree_topology,
    validate,
)

from conftest import make_taxa, random_tree, split_of, trees_close
from oracles import enumerate_binary_topologies, reference_random_binary_splits

# a 7-leaf example tree grouping {1,2,3}, {4,5,6} and {5,6}; it is
# non-binary (a 7-leaf binary tree would have four inner edges)
EXAMPLE_TREE_SPLITS = frozenset(
    split_of(side, 7) for side in ({1, 2, 3}, {4, 5, 6}, {5, 6})
)


def random_newick(rng, n_leaves: int) -> str:
    """Random rooted Newick text over taxa t00.. with polytomies, unary
    vertices and a root of degree 2 to 4."""

    def length() -> str:
        return repr(float(rng.uniform(0.01, 1.0)))

    parts = [f"t{i:02d}" for i in rng.permutation(n_leaves)]
    root_degree = int(rng.integers(2, 5))
    while len(parts) > root_degree:
        k = int(rng.integers(2, min(4, len(parts) - root_degree + 1) + 1))
        chosen = sorted(rng.choice(len(parts), k, replace=False), reverse=True)
        group = [parts.pop(i) for i in chosen]
        clade = "(" + ",".join(f"{g}:{length()}" for g in group) + ")"
        if rng.uniform() < 0.2:
            clade = f"({clade}:{length()})"
        parts.append(clade)
    return "(" + ",".join(f"{p}:{length()}" for p in parts) + ");"


def four_intersections_compatible(a: Split, b: Split) -> bool:
    """Oracle: enumerate the four side intersections of the bipartitions."""
    universe = set(range(a.n_leaves))
    a1, a2 = set(a.indices()), universe - set(a.indices())
    b1, b2 = set(b.indices()), universe - set(b.indices())
    return any(not (x & y) for x in (a1, a2) for y in (b1, b2))


class TestSplit:
    def test_normalizes_away_from_leaf_zero(self):
        assert split_of({0, 3}, 5) == split_of({1, 2, 4}, 5)

    def test_indices(self):
        assert split_of({2, 1}, 5).indices() == (1, 2)

    def test_contains(self):
        split = split_of({1, 2}, 5)
        assert 1 in split and 3 not in split

    def test_rejects_leaf_zero_in_mask(self):
        with pytest.raises(ValueError):
            Split(0b00011, 5)

    def test_rejects_tiny_and_huge_sides(self):
        with pytest.raises(ValueError):
            split_of({1}, 5)
        with pytest.raises(ValueError):
            split_of({1, 2, 3, 4}, 5)  # complement would contain only leaf 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            split_of({1, 7}, 5)


class TestCompatible:
    def test_subset_case(self):
        assert compatible(split_of({1, 2}, 5), split_of({1, 2, 3}, 5))

    def test_overlapping_case(self):
        a, b = split_of({1, 2}, 5), split_of({2, 3}, 5)
        assert not compatible(a, b)
        assert not four_intersections_compatible(a, b)

    def test_disjoint_case(self):
        assert compatible(split_of({1, 2}, 6), split_of({3, 4}, 6))

    def test_matches_four_intersection_oracle(self, rng):
        n_leaves = 7
        sides = [
            set(c)
            for size in (2, 3, 4, 5)
            for c in itertools.combinations(range(1, n_leaves), size)
        ]
        splits = [split_of(side, n_leaves) for side in sides]
        for _ in range(300):
            a, b = rng.choice(len(splits), size=2)
            x, y = splits[int(a)], splits[int(b)]
            assert compatible(x, y) == four_intersections_compatible(x, y)
            assert compatible(x, y) == compatible(y, x)

    def test_mismatched_leaf_counts(self):
        with pytest.raises(ValueError, match="incomparable"):
            compatible(split_of({1, 2}, 5), split_of({1, 2}, 6))


class TestExampleSplits:
    def test_expected_splits(self):
        want = {split_of({1, 2, 3}, 7), split_of({4, 5, 6}, 7), split_of({5, 6}, 7)}
        assert EXAMPLE_TREE_SPLITS == want

    def test_pairwise_compatible(self):
        splits = sorted(EXAMPLE_TREE_SPLITS)
        for a, b in itertools.combinations(splits, 2):
            assert compatible(a, b)

    def test_non_binary_cardinality(self):
        # n = 6 leaves 0..6; a binary tree would have n - 2 = 4 inner edges
        splits = EXAMPLE_TREE_SPLITS
        assert len(splits) == 3 <= 6 - 2


class TestValidate:
    def test_minimal_valid_tree(self):
        taxa = make_taxa(4)
        tree = Tree(taxa, (0.1,) * 4, {split_of({1, 2}, 4): 0.1})
        assert validate(tree) == []

    def test_zero_inner_length(self):
        taxa = make_taxa(4)
        tree = Tree(taxa, (0.1,) * 4, {split_of({1, 2}, 4): 0.0})
        assert any("non-positive or non-finite length" in p for p in validate(tree))

    def test_incompatible_splits(self):
        taxa = make_taxa(6)
        a, b = split_of({1, 2}, 6), split_of({2, 3}, 6)
        assert not four_intersections_compatible(a, b)
        tree = Tree(taxa, (0.1,) * 6, {a: 0.1, b: 0.1})
        assert any("incompatible" in p for p in validate(tree))

    def test_too_many_splits(self):
        taxa = make_taxa(4)
        tree = Tree(
            taxa, (0.1,) * 4, {split_of({1, 2}, 4): 0.1, split_of({1, 3}, 4): 0.1}
        )
        problems = validate(tree)
        assert any("exceeds maximum" in p for p in problems)

    def test_infinite_lengths(self):
        taxa = make_taxa(4)
        split = split_of({1, 2}, 4)
        leaf = Tree(taxa, (0.1, math.inf, 0.1, 0.1), {split: 0.1})
        assert validate(leaf) == ["non-positive or non-finite length on leaf edge 1"]
        inner = Tree(taxa, (0.1,) * 4, {split: math.inf})
        assert validate(inner) == [f"non-positive or non-finite length on inner edge {split}"]
        with pytest.raises(InvalidTreeError, match="non-finite"):
            parse_newick("((A:0.1,B:0.2):1e999,C:0.3,O:0.1);")

    def test_check_raises(self):
        taxa = make_taxa(4)
        with pytest.raises(InvalidTreeError):
            check(Tree(taxa, (0.1,) * 4, {split_of({1, 2}, 4): -1.0}))

    def test_all_tree_split_pairs_compatible(self, rng):
        for _ in range(50):
            tree = random_tree(make_taxa(int(rng.integers(4, 8))), rng)
            splits = sorted(tree.inner)
            for a, b in itertools.combinations(splits, 2):
                assert compatible(a, b)


class TestTaxonTable:
    def test_too_few(self):
        with pytest.raises(ValueError):
            TaxonTable(("A", "B", "C"))

    def test_duplicates(self):
        with pytest.raises(ValueError):
            TaxonTable(("A", "B", "B", "C"))

    @pytest.mark.parametrize("label", ["A:1", "A(", "A)", "A,B", "A;", " A", "A\t"])
    def test_rejects_labels_that_do_not_read_back_from_newick(self, label):
        with pytest.raises(ValueError, match="taxon label"):
            TaxonTable(("O", label, "B", "C"))

    def test_index(self):
        taxa = TaxonTable(("O", "A", "B", "C"))
        assert taxa.index("B") == 2
        with pytest.raises(KeyError):
            taxa.index("Z")


class TestParseNewick:
    def test_single_cherry(self):
        tree = parse_newick("((A:0.1,B:0.2):0.05,C:0.3,O:0.1);", outgroup="O")
        assert tree.taxa.names == ("O", "A", "B", "C")
        assert tree.inner == {split_of({1, 2}, 4): 0.05}
        assert tree.leaf_lengths == (0.1, 0.1, 0.2, 0.3)

    def test_two_cherries_compatible(self):
        tree = parse_newick(
            "((A:0.1,B:0.2):0.05,(C:0.3,D:0.1):0.07,O:0.1);", outgroup="O"
        )
        splits = sorted(tree.inner)
        assert len(splits) == 2
        assert compatible(splits[0], splits[1])
        assert tree.inner[split_of({1, 2}, 5)] == 0.05
        assert tree.inner[split_of({3, 4}, 5)] == 0.07

    def test_default_outgroup_is_first_listed(self):
        tree = parse_newick("((A:0.1,B:0.2):0.05,C:0.3,O:0.1);")
        assert tree.taxa.names[0] == "A"

    def test_too_few_leaves(self):
        with pytest.raises(NewickError, match="fewer than 4"):
            parse_newick("(A:0.1,B:0.2);")

    def test_missing_branch_length(self):
        with pytest.raises(NewickError, match="missing branch length"):
            parse_newick("((A:0.1,B),C:0.3,O:0.1);")

    def test_duplicate_taxon(self):
        with pytest.raises(NewickError, match="duplicate taxon"):
            parse_newick("((A:0.1,A:0.2):0.05,C:0.3,O:0.1);")

    def test_zero_length(self):
        with pytest.raises(NewickError, match="zero/negative"):
            parse_newick("((A:0.1,B:0.2):0.0,C:0.3,O:0.1);")

    def test_syntax_error_carries_offset(self):
        with pytest.raises(NewickError, match="offset"):
            parse_newick("((A:0.1,:0.2):0.05,C:0.3,O:0.1);")

    def test_degree_two_root_merges_series_edges(self):
        tree = parse_newick("((A:0.1,B:0.2):0.05,(C:0.3,D:0.1):0.07);")
        assert tree.taxa.names == ("A", "B", "C", "D")
        # both root edges describe the same bipartition; lengths add
        assert tree.inner == {split_of({2, 3}, 4): pytest.approx(0.12)}

    def test_taxon_table_mismatch(self):
        taxa = TaxonTable(("O", "A", "B", "C"))
        with pytest.raises(NewickError, match="does not match"):
            parse_newick("((A:0.1,B:0.2):0.05,C:0.3,X:0.1);", taxa=taxa)

    def test_deep_nesting_is_a_newick_error(self):
        # a caterpillar nested deeper than the interpreter's recursion limit
        depth = sys.getrecursionlimit() + 100
        text = "(" * depth + "t0:1"
        text += "".join(f",t{i}:1):1" for i in range(1, depth + 1)) + ";"
        with pytest.raises(NewickError, match="nested too deeply"):
            parse_newick(text)

    def test_random_newick_parses_to_valid_trees(self, rng):
        # parse_newick checks only lengths: one parenthesization gives every
        # leaf one length and splits that are pairwise compatible
        for _ in range(300):
            n_leaves = int(rng.integers(4, 40))
            text = random_newick(rng, n_leaves)
            outgroup = f"t{int(rng.integers(n_leaves)):02d}"
            assert validate(parse_newick(text, outgroup=outgroup)) == []

    def test_overflowing_sums_of_lengths_rejected(self):
        # a unary vertex above leaf A, and two root edges of one split
        with pytest.raises(InvalidTreeError, match="non-finite length on leaf edge"):
            parse_newick("((A:1e308):1e308,B:0.1,C:0.1,O:0.1);", outgroup="O")
        with pytest.raises(InvalidTreeError, match="non-finite length on inner edge"):
            parse_newick("((A:0.1,B:0.2):1e308,(C:0.3,D:0.1):1e308);")

    def test_internal_labels_ignored(self):
        tree = parse_newick("((A:0.1,B:0.2)97:0.05,C:0.3,O:0.1);", outgroup="O")
        assert tree.inner == {split_of({1, 2}, 4): 0.05}


class TestSerializeNewick:
    def test_round_trip_fixture(self):
        tree = parse_newick("((A:0.1,B:0.2):0.05,C:0.3,O:0.1);", outgroup="O")
        again = parse_newick(serialize_newick(tree))
        assert again == tree

    def test_round_trip_random_trees(self, rng):
        for _ in range(100):
            tree = random_tree(
                make_taxa(int(rng.integers(4, 9))), rng, drop_probability=0.3
            )
            again = parse_newick(serialize_newick(tree))
            assert again.taxa == tree.taxa
            assert trees_close(again, tree, tol=1e-12)

    def test_deep_caterpillar_round_trips(self):
        # rendering takes one frame per level, no more than parsing does
        depth = 600
        text = "(" * depth + "t0:1"
        text += "".join(f",t{i}:1):1" for i in range(1, depth + 1)) + ";"
        tree = parse_newick(text)
        assert parse_newick(serialize_newick(tree)) == tree

    def test_polytomy_rendered(self):
        taxa = make_taxa(5)
        tree = Tree(taxa, (0.1,) * 5, {split_of({1, 2}, 5): 0.3})
        root = tree_topology(parse_newick(serialize_newick(tree)))
        degrees = []

        def walk(node):
            if not node.is_leaf():
                degrees.append(len(node.children))
                for child in node.children:
                    walk(child)

        walk(root)
        assert max(degrees) >= 3

    def test_lengths_have_full_precision(self):
        taxa = make_taxa(4)
        length = 0.1234567890123456
        tree = Tree(taxa, (length,) * 4, {split_of({1, 2}, 4): length})
        text = serialize_newick(tree)
        again = parse_newick(text)
        assert abs(again.inner[split_of({1, 2}, 4)] - length) < 1e-12
        digits = text.split(":")[1].split(",")[0]
        assert len(digits.replace(".", "").lstrip("0")) >= 12


class TestTopologyCounts:
    @pytest.mark.parametrize(
        "n_leaves,count", [(4, 3), (5, 15), (6, 105)]
    )
    def test_double_factorial(self, n_leaves, count):
        # (2n-3)!! binary topologies for n+1 leaves
        assert len(enumerate_binary_topologies(n_leaves)) == count

    def test_random_topologies_are_valid_and_binary(self, rng):
        for _ in range(50):
            n_leaves = int(rng.integers(4, 9))
            splits = random_binary_splits(n_leaves, rng)
            assert len(splits) == n_leaves - 3
            for a, b in itertools.combinations(sorted(splits), 2):
                assert compatible(a, b)

    def test_random_topology_deterministic(self):
        one = random_binary_splits(7, np.random.default_rng(5))
        two = random_binary_splits(7, np.random.default_rng(5))
        assert one == two


@pytest.mark.parametrize("n_leaves", [*range(4, 21), 32, 64])
def test_random_binary_splits_matches_reference(n_leaves):
    # the same splits from the same edge picks: the generator is left in
    # the same state, so the next draw agrees too
    for seed in range(50 if n_leaves > 20 else 60):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        splits = random_binary_splits(n_leaves, rng)
        assert splits == reference_random_binary_splits(n_leaves, ref)
        assert rng.integers(1 << 62) == ref.integers(1 << 62)


class TestSamplesFile:
    def test_load_skips_comments(self, tmp_path):
        path = tmp_path / "trees.nwk"
        path.write_text(
            "# a comment\n"
            "((A:0.1,B:0.2):0.05,C:0.3,O:0.1);\n"
            "\n"
            "((A:0.2,C:0.2):0.04,B:0.3,O:0.1);\n"
        )
        trees = load_samples(path, outgroup="O")
        assert len(trees) == 2
        assert trees[0].taxa == trees[1].taxa

    def test_load_rejects_mixed_taxa(self, tmp_path):
        path = tmp_path / "trees.nwk"
        path.write_text(
            "((A:0.1,B:0.2):0.05,C:0.3,O:0.1);\n"
            "((A:0.1,B:0.2):0.05,X:0.3,O:0.1);\n"
        )
        with pytest.raises(NewickError, match="line 2"):
            load_samples(path, outgroup="O")
