import itertools
import math
import random
import re
import sys

import pytest

from bhvphylo.treespace import (
    InvalidTreeError,
    NewickError,
    TaxonTable,
    Tree,
    check,
    compatible,
    load_samples,
    parse_newick,
    random_binary_splits,
    serialize_newick,
    split_name,
    tree_topology,
    validate,
)

from conftest import make_taxa, random_tree, split_of, trees_close
from oracles import (
    enumerate_binary_topologies,
    reference_parse_newick,
    reference_random_binary_splits,
    reference_tree_topology,
)

# a 7-leaf example tree grouping {1,2,3}, {4,5,6} and {5,6}; it is
# non-binary (a 7-leaf binary tree would have four inner edges)
EXAMPLE_TREE_SPLITS = frozenset(
    split_of(side, 7) for side in ({1, 2, 3}, {4, 5, 6}, {5, 6})
)


def random_newick(rng, n_leaves: int) -> str:
    """Random rooted Newick text over taxa t00.. with polytomies, unary
    vertices and a root of degree 2 to 4."""

    def length() -> str:
        return repr(rng.uniform(0.01, 1.0))

    parts = [f"t{i:02d}" for i in rng.sample(range(n_leaves), n_leaves)]
    root_degree = rng.randrange(2, 5)
    while len(parts) > root_degree:
        k = rng.randrange(2, min(4, len(parts) - root_degree + 1) + 1)
        chosen = sorted(rng.sample(range(len(parts)), k), reverse=True)
        group = [parts.pop(i) for i in chosen]
        clade = "(" + ",".join(f"{g}:{length()}" for g in group) + ")"
        if rng.random() < 0.2:
            clade = f"({clade}:{length()})"
        parts.append(clade)
    return "(" + ",".join(f"{p}:{length()}" for p in parts) + ");"


def four_intersections_compatible(a: int, b: int, n_leaves: int) -> bool:
    """Oracle: enumerate the four side intersections of the bipartitions."""
    universe = set(range(n_leaves))
    a1 = {i for i in universe if a >> i & 1}
    b1 = {i for i in universe if b >> i & 1}
    a2, b2 = universe - a1, universe - b1
    return any(not (x & y) for x in (a1, a2) for y in (b1, b2))


class TestSplit:
    def test_normalizes_away_from_leaf_zero(self):
        assert split_of({0, 3}, 5) == split_of({1, 2, 4}, 5) == 0b10110

    def test_indices(self):
        # named by its taxa; here each taxon's label is its leaf index
        digits = TaxonTable(tuple("01234"))
        assert split_name(split_of({2, 1}, 5), digits) == "1|2"
        assert split_name(split_of({2, 1}, 5), make_taxa(5)) == "t01|t02"


class TestCompatible:
    def test_subset_case(self):
        assert compatible(split_of({1, 2}, 5), split_of({1, 2, 3}, 5))

    def test_overlapping_case(self):
        a, b = split_of({1, 2}, 5), split_of({2, 3}, 5)
        assert not compatible(a, b)
        assert not four_intersections_compatible(a, b, 5)

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
            a, b = rng.choices(range(len(splits)), k=2)
            x, y = splits[int(a)], splits[int(b)]
            assert compatible(x, y) == four_intersections_compatible(x, y, n_leaves)
            assert compatible(x, y) == compatible(y, x)


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
        assert not four_intersections_compatible(a, b, 6)
        tree = Tree(taxa, (0.1,) * 6, {a: 0.1, b: 0.1})
        assert validate(tree) == ["incompatible splits t01|t02 and t02|t03"]

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
        assert validate(inner) == ["non-positive or non-finite length on inner edge t01|t02"]
        with pytest.raises(InvalidTreeError, match="non-finite"):
            parse_newick("((A:0.1,B:0.2):1e999,C:0.3,O:0.1);")

    def test_rejects_leaf_zero_in_mask(self):
        tree = Tree(make_taxa(5), (0.1,) * 5, {0b00011: 0.1})
        assert validate(tree) == ["split O|t01: mask must not contain leaf 0"]

    def test_rejects_tiny_and_huge_sides(self):
        taxa = make_taxa(5)
        # {1, 2, 3, 4}: its complement would hold only leaf 0
        for side, size in (({1}, 1), ({1, 2, 3, 4}, 4)):
            tree = Tree(taxa, (0.1,) * 5, {sum(1 << i for i in side): 0.1})
            assert len(validate(tree)) == 1
            assert validate(tree)[0].endswith(f"a side must have 2..3 leaves, got {size}")

    def test_rejects_out_of_range(self):
        tree = Tree(make_taxa(5), (0.1,) * 5, {1 << 7 | 1 << 1: 0.1})
        assert validate(tree) == ["split 0x82: mask outside leaf range 0..4"]

    def test_validation_messages(self):
        # one problem per mask that is not a split of the table, in mask
        # order, and none of them meets the compatibility pass
        taxa = make_taxa(6)
        inner = {0b111110: 0.1, 0b100: 0.1, 1 << 6 | 0b110: 0.1, 0b111: 0.1, 0b1100: 0.1}
        assert validate(Tree(taxa, (0.1,) * 6, inner)) == [
            "5 inner splits exceeds maximum 3",
            "split t02: a side must have 2..4 leaves, got 1",
            "split O|t01|t02: mask must not contain leaf 0",
            "split t01|t02|t03|t04|t05: a side must have 2..4 leaves, got 5",
            "split 0x46: mask outside leaf range 0..5",
        ]

    def test_check_raises(self):
        taxa = make_taxa(4)
        with pytest.raises(InvalidTreeError):
            check(Tree(taxa, (0.1,) * 4, {split_of({1, 2}, 4): -1.0}))

    def test_all_tree_split_pairs_compatible(self, rng):
        for _ in range(50):
            tree = random_tree(make_taxa(rng.randrange(4, 8)), rng)
            splits = sorted(tree.inner)
            for a, b in itertools.combinations(splits, 2):
                assert compatible(a, b)


class TestTreeConstruction:
    def test_holds_the_very_tuple_and_dict_it_is_built_with(self):
        taxa, leaf_lengths = make_taxa(5), (0.1,) * 5
        inner = {split_of({1, 2}, 5): 0.2}
        tree = Tree(taxa, leaf_lengths, inner)
        assert tree.taxa is taxa
        assert tree.leaf_lengths is leaf_lengths
        assert tree.inner is inner
        assert tuple(tree) == (taxa, leaf_lengths, inner)
        assert tree.with_leaf_length(0, 0.3).inner is inner

    def test_edits_return_new_trees_and_leave_the_original_unchanged(self):
        cherry, other = split_of({1, 2}, 5), split_of({1, 3}, 5)
        tree = Tree(make_taxa(5), (0.1,) * 5, {cherry: 0.2})
        longer_leaf = tree.with_leaf_length(2, 0.7)
        longer_edge = tree.with_inner_length(cherry, 0.9)
        moved = tree.with_split_replaced(cherry, other)
        assert tree.leaf_lengths == (0.1,) * 5 and tree.inner == {cherry: 0.2}
        assert longer_leaf.leaf_lengths == (0.1, 0.1, 0.7, 0.1, 0.1)
        assert longer_leaf.inner == {cherry: 0.2}
        assert longer_edge.inner == {cherry: 0.9} and longer_edge.inner is not tree.inner
        assert moved.inner == {other: 0.2} and moved.inner is not tree.inner
        assert validate(moved) == []


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

    @pytest.mark.parametrize(
        "text,leaf",
        [
            ("((A:0,B:0.2):0.05,C:0.3,O:0.1);", "A"),
            ("((A:0.1,B:0.0):0.05,C:0.3,O:0.1);", "B"),
            ("((A:0.1,B:0.2):0.05,C:0.3,O:-0.0);", "O"),
        ],
    )
    def test_zero_leaf_length_is_an_error_at_the_leaf(self, text, leaf):
        with pytest.raises(NewickError, match="zero/negative branch length") as info:
            parse_newick(text)
        assert info.value.offset == text.index(leaf)

    def test_syntax_error_carries_offset(self):
        with pytest.raises(NewickError, match="offset"):
            parse_newick("((A:0.1,:0.2):0.05,C:0.3,O:0.1);")

    def test_degree_two_root_merges_series_edges(self):
        tree = parse_newick("((A:0.1,B:0.2):0.05,(C:0.3,D:0.1):0.07);")
        assert tree.taxa.names == ("A", "B", "C", "D")
        # both root edges describe the same bipartition; lengths add
        assert tree.inner == {split_of({2, 3}, 4): pytest.approx(0.12)}

    def test_edge_above_all_leaves_is_a_newick_error(self):
        # the root's only child holds every leaf, so its edge has no split;
        # the error is at the child, the innermost one first
        for text, offset in (
            ("((A:1,B:1,C:1,D:1):1);", 1),
            ("(((A:1,B:1,C:1,D:1):1):2);", 2),
            ("((A:1,(B:1,C:1):1,D:1,O:1):1);", 1),
        ):
            with pytest.raises(NewickError, match="inner edge above all leaves") as info:
                parse_newick(text)
            assert info.value.offset == offset, text

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
            n_leaves = rng.randrange(4, 40)
            text = random_newick(rng, n_leaves)
            outgroup = f"t{rng.randrange(n_leaves):02d}"
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


    def test_text_after_the_terminator_rejected(self):
        tree = "((A:0.1,B:0.2):0.05,C:0.3,O:0.1);"
        assert parse_newick(tree + " \t\n") == parse_newick(tree)
        for tail in (tree, "x", ";", " (", "[comment]"):
            with pytest.raises(NewickError, match="unexpected text after ';'"):
                parse_newick(tree + tail)


def newick_variant(rng, text: str, kind: int) -> str:
    """One of six rewrites of well-formed Newick text, by kind: as is,
    padded with whitespace, with internal labels, with exponent lengths,
    truncated, or with a few characters inserted, deleted or replaced."""
    if kind == 1:
        pads = [" ", "  ", "\t", "\n", " \n "]
        return re.sub(
            r"[(),:;]",
            lambda m: pads[rng.randrange(5)] + m.group() + pads[rng.randrange(5)],
            text,
        )
    if kind == 2:
        labels = ["97", "0.5", "node 3", "[&x=1]", "e5"]
        return re.sub(r"\)", lambda m: ")" + labels[rng.randrange(5)], text)
    if kind == 3:
        forms = [".3e", ".17E", ".0e"]
        return re.sub(
            r":([0-9.]+)",
            lambda m: ":" + format(float(m.group(1)) * 10.0 ** rng.randrange(-3, 4),
                                    forms[rng.randrange(3)]),
            text,
        )
    if kind == 4:
        return text[: rng.randrange(len(text))]
    if kind == 5:
        chars = list(text)
        alphabet = "(),:;. \t\n0123456789eE+-tAx[]"
        for _ in range(rng.randrange(1, 4)):
            at = rng.randrange(len(chars))
            char = alphabet[rng.randrange(len(alphabet))]
            action = rng.randrange(3)
            if action == 0:
                chars.insert(at, char)
            elif action == 1:
                del chars[at]
            else:
                chars[at] = char
        return "".join(chars)
    return text


def read_outcome(parse, text, **kwargs):
    """The parsed tree, or the class of the exception the reader raised."""
    try:
        return parse(text, **kwargs)
    except (NewickError, InvalidTreeError) as exc:
        return type(exc)


class TestAgainstReferenceReader:
    def test_random_variants_give_the_same_tree_or_error_class(self, rng):
        taxa = None
        for trial in range(900):
            n_leaves = rng.randrange(4, 40)
            text = newick_variant(rng, random_newick(rng, n_leaves), trial % 6)
            kwargs = {}
            if trial % 4 == 1:
                kwargs["outgroup"] = f"t{rng.randrange(n_leaves):02d}"
            elif trial % 4 == 2 and taxa is not None:
                kwargs["taxa"] = taxa
            want = read_outcome(reference_parse_newick, text, **kwargs)
            got = read_outcome(parse_newick, text, **kwargs)
            if ";" in text and text[text.index(";") + 1 :].strip():
                # the one deliberate difference: text after the terminator
                assert got is NewickError, text
                continue
            if isinstance(want, Tree):
                assert isinstance(got, Tree), (text, got)
                assert got == want
                assert list(got.inner) == list(want.inner)
                assert [x.hex() for x in got.leaf_lengths] == [
                    x.hex() for x in want.leaf_lengths
                ]
                taxa = got.taxa
            else:
                assert got is want, (text, got, want)

    def test_error_messages_and_offsets_agree(self):
        for text in (
            "",
            "  ",
            "((A:0.1,B:0.2):0.05,C:0.3,O:0.1)",
            "((A:0.1,B:0.2):0.05,C:0.3,O:0.1) x",
            "((A:0.1,B:0.2):0.05,C:0.3,O:",
            "((A:0.1,B:0.2):0.05,C:0.3,O: ",
            "((A:0.1,B:0.2):0.05,C:x,O:0.1);",
            "((A:0.1,B:0.2):0.05,C:1e,O:0.1);",
            "((A:0.1,:0.2):0.05,C:0.3,O:0.1);",
            "((A:0.1,B:0.2) :0.05,C:0.3 ,O);",
            "((A:0.1,B:0.2):0.05 C:0.3,O:0.1);",
            "((A:0.1, A:0.2):0.05,C:0.3,O:0.1);",
            "((A:0.1,B:0.2): -1,C:0.3,O:0.1);",
            "(A:0.1,B:0.2,(C:0.3,O:0.1);",
            "(A:0.1,B:0.2);",
        ):
            with pytest.raises(NewickError) as want:
                reference_parse_newick(text)
            with pytest.raises(NewickError) as got:
                parse_newick(text)
            assert str(got.value) == str(want.value), text
            assert got.value.offset == want.value.offset, text


class TestSerializeNewick:
    def test_round_trip_fixture(self):
        tree = parse_newick("((A:0.1,B:0.2):0.05,C:0.3,O:0.1);", outgroup="O")
        again = parse_newick(serialize_newick(tree))
        assert again == tree

    def test_round_trip_random_trees(self, rng):
        for _ in range(100):
            tree = random_tree(
                make_taxa(rng.randrange(4, 9)), rng, drop_probability=0.3
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


def vertex_structure(root) -> list[tuple]:
    """(leaf, mask, length, child masks) of every vertex, in preorder."""
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        out.append((node.leaf, node.mask, node.length, [c.mask for c in node.children]))
        stack.extend(reversed(node.children))
    return out


class TestTopologyAgainstReference:
    def test_random_binary_and_non_binary_trees(self, rng):
        for trial in range(300):
            taxa = make_taxa(rng.randrange(4, 65))
            tree = random_tree(taxa, rng, drop_probability=0.4 * (trial % 2))
            assert vertex_structure(tree_topology(tree)) == vertex_structure(
                reference_tree_topology(tree)
            )

    def test_deep_caterpillar(self):
        depth = 600
        text = "(" * depth + "t0:1"
        text += "".join(f",t{i}:{i}):{i + 0.5}" for i in range(1, depth + 1)) + ";"
        tree = parse_newick(text)
        assert len(tree.inner) == depth - 2
        assert vertex_structure(tree_topology(tree)) == vertex_structure(
            reference_tree_topology(tree)
        )


class TestTopologyCounts:
    @pytest.mark.parametrize(
        "n_leaves,count", [(4, 3), (5, 15), (6, 105)]
    )
    def test_double_factorial(self, n_leaves, count):
        # (2n-3)!! binary topologies for n+1 leaves
        assert len(enumerate_binary_topologies(n_leaves)) == count

    def test_random_topologies_are_valid_and_binary(self, rng):
        for _ in range(50):
            n_leaves = rng.randrange(4, 9)
            splits = random_binary_splits(n_leaves, rng)
            assert len(splits) == n_leaves - 3
            for a, b in itertools.combinations(sorted(splits), 2):
                assert compatible(a, b)

    def test_random_topology_deterministic(self):
        one = random_binary_splits(7, random.Random(5))
        two = random_binary_splits(7, random.Random(5))
        assert one == two


@pytest.mark.parametrize("n_leaves", [*range(4, 21), 32, 64])
def test_random_binary_splits_matches_reference(n_leaves):
    # the same splits from the same edge picks: the generator is left in
    # the same state, so the next draw agrees too
    for seed in range(50 if n_leaves > 20 else 60):
        rng, ref = random.Random(seed), random.Random(seed)
        splits = random_binary_splits(n_leaves, rng)
        assert splits == reference_random_binary_splits(n_leaves, ref)
        assert rng.randrange(1 << 62) == ref.randrange(1 << 62)


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
