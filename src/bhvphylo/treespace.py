"""Metric n-trees, splits, compatibility, and Newick serialization.

A tree over leaves 0..n is stored as a taxon table (index 0 is the
outgroup leaf), a dense vector of n+1 leaf edge lengths, and a map from
inner-edge splits to positive lengths.  A split is its bitmask, a plain
int: bit i is set when leaf i lies on the side of the bipartition that
does not contain leaf 0.  Within one taxon table the mask is the whole
split, so compatibility reduces to three mask tests and split lookups
hash and compare ints; `validate` checks that every mask is a split of
the tree's table, and `split_name` names one by its taxa.  Inner edges
of length zero are represented by absence from the map; trees with
fewer than n-2 inner edges are valid non-binary trees.

`TaxonTable` and `Tree` are named tuples, equal field by field.  A tree
keeps the tuple and dict it is built with, and one made from another
shares what it does not change; no code changes them afterwards, so
trees are safe to share across threads.  A `Node` is the vertex of the
explicit topology that `tree_topology` builds by mutation, afresh.
"""

from __future__ import annotations

import itertools
import math
import re
from typing import NamedTuple


class NewickError(ValueError):
    """Malformed Newick text; carries a character offset when known."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


class InvalidTreeError(ValueError):
    """A tree value violating the structural invariants."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


# characters that end a taxon label in Newick
_NAME_STOP = frozenset("(),:;")


class _TaxonFields(NamedTuple):
    names: tuple[str, ...]


class TaxonTable(_TaxonFields):
    """Ordered, distinct taxon labels; index 0 is the outgroup leaf."""

    __slots__ = ()

    def __new__(cls, names):
        names = tuple(names)
        if len(names) < 4:
            raise ValueError(f"need at least 4 taxa, got {len(names)}")
        if len(set(names)) != len(names):
            raise ValueError("duplicate taxon label")
        for name in names:
            # a label must read back from Newick as itself
            if not name or name != name.strip() or not _NAME_STOP.isdisjoint(name):
                raise ValueError(f"taxon label {name!r} is empty, padded or holds one of (),:;")
        return tuple.__new__(cls, (names,))

    @property
    def size(self) -> int:
        return len(self.names)


def canonical_taxa(names, outgroup: str | None) -> TaxonTable:
    """The table serializations re-parse to: the outgroup (by default the
    first name) as leaf 0, the rest sorted.  The caller checks that the
    outgroup is one of the names."""
    if outgroup is None:
        outgroup = names[0]
    return TaxonTable((outgroup, *sorted(n for n in names if n != outgroup)))


def split_name(split: int, taxa: TaxonTable) -> str:
    """The split named by the taxa on its side, as ``A|B``."""
    return "|".join([name for i, name in enumerate(taxa.names) if split >> i & 1])


def compatible(a: int, b: int) -> bool:
    """True iff the two splits can coexist in one tree: with masks normalized
    away from leaf 0, when one mask contains the other or they are disjoint."""
    meet = a & b
    return meet == 0 or meet == a or meet == b


class Tree(NamedTuple):
    """A metric n-tree: taxa, leaf edge lengths, and inner splits with lengths.
    It keeps what it is built with: a list stays a list, a dict changed later changes it."""

    taxa: TaxonTable
    leaf_lengths: tuple[float, ...]
    inner: dict[int, float]

    def with_leaf_length(self, leaf: int, length: float) -> "Tree":
        lengths = list(self.leaf_lengths)
        lengths[leaf] = length
        return Tree(self.taxa, tuple(lengths), self.inner)

    def with_inner_length(self, split: int, length: float) -> "Tree":
        if split not in self.inner:
            raise KeyError(f"{split_name(split, self.taxa)} not in tree")
        return Tree(self.taxa, self.leaf_lengths, {**self.inner, split: length})

    def with_split_replaced(self, old: int, new: int) -> "Tree":
        inner = dict(self.inner)
        inner[new] = inner.pop(old)
        return Tree(self.taxa, self.leaf_lengths, inner)


def _length_problems(tree: Tree) -> list[str]:
    """Edge lengths that are not positive and finite (NaN fails both tests)."""
    problems = [
        f"non-positive or non-finite length on leaf edge {i}"
        for i, length in enumerate(tree.leaf_lengths)
        if not 0.0 < length < math.inf
    ]
    problems += [
        f"non-positive or non-finite length on inner edge {split_name(split, tree.taxa)}"
        for split, length in tree.inner.items()
        if not 0.0 < length < math.inf
    ]
    return problems


def validate(tree: Tree) -> list[str]:
    """Return all violated tree invariants (empty list when valid)."""
    problems = []
    n_leaves = tree.taxa.size
    if len(tree.leaf_lengths) != n_leaves:
        problems.append(
            f"leaf length vector has {len(tree.leaf_lengths)} entries, "
            f"expected {n_leaves}"
        )
    problems += _length_problems(tree)
    if len(tree.inner) > n_leaves - 3:
        problems.append(
            f"{len(tree.inner)} inner splits exceeds maximum {n_leaves - 3}"
        )
    named = []  # the splits of the table; any other mask is one problem
    for split in sorted(tree.inner):
        name, size = split_name(split, tree.taxa), split.bit_count()
        if split & 1:
            problems.append(f"split {name}: mask must not contain leaf 0")
        elif split >> n_leaves:
            problems.append(f"split {split:#x}: mask outside leaf range 0..{n_leaves - 1}")
        elif not 2 <= size <= n_leaves - 2:
            problems.append(f"split {name}: a side must have 2..{n_leaves - 2} leaves, got {size}")
        else:
            named.append((split, name))
    for i, (a, a_name) in enumerate(named):
        for b, b_name in named[i + 1 :]:
            if not compatible(a, b):
                problems.append(f"incompatible splits {a_name} and {b_name}")
    return problems


def check(tree: Tree) -> Tree:
    """Validate and return the tree, raising InvalidTreeError on problems."""
    problems = validate(tree)
    if problems:
        raise InvalidTreeError(problems)
    return tree


def common_taxa(trees) -> TaxonTable:
    """The taxon table every tree of a nonempty collection is over."""
    if not trees:
        raise ValueError("no trees")
    taxa = trees[0].taxa
    if any(tree.taxa != taxa for tree in trees):
        raise ValueError("trees are over different taxon tables")
    return taxa


# ---------------------------------------------------------------------------
# Explicit topology (used for serialization, pruning, and NNI moves)

class Node:
    """A vertex of the rooted topology; the root is the vertex next to leaf 0."""

    __slots__ = ("leaf", "mask", "length", "children")

    def __init__(self, leaf, mask, length):
        self.leaf = leaf          # leaf index or None for internal vertices
        self.mask = mask          # bitmask of leaves below this vertex
        self.length = length      # edge length toward the parent; None at root
        self.children = []

    def is_leaf(self) -> bool:
        return self.leaf is not None


def _min_leaf(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def tree_topology(tree: Tree) -> Node:
    """Build the explicit vertex structure, rooted at leaf 0's neighbor.

    Children are ordered by smallest contained leaf, with leaf 0 first,
    so the layout is deterministic for a given tree.
    """
    root = Node(None, (1 << tree.taxa.size) - 1, None)
    nodes = [Node(leaf, 1 << leaf, length) for leaf, length in enumerate(tree.leaf_lengths)]
    nodes += [Node(None, split, length) for split, length in tree.inner.items()]
    nodes.sort(key=lambda v: v.mask.bit_count())
    nodes.append(root)
    # the parent is the smallest clade strictly containing the vertex: the
    # first later one containing it, as clades of equal size are disjoint
    for i, node in enumerate(nodes):
        mask = node.mask
        for other in nodes[i + 1 :]:
            if other.mask & mask == mask:
                other.children.append(node)
                break
    # leaf 0 first, so that the first-listed taxon of the serialization is
    # the outgroup and a default re-parse rebuilds the same taxon table
    for node in nodes:
        node.children.sort(key=lambda c: (c.mask != 1, _min_leaf(c.mask)))
    return root


# ---------------------------------------------------------------------------
# Newick

# One token per match, after any whitespace: a length (the colon and its
# number text, which may be empty), a punctuation mark, or a run of label
# text up to the next of (),:;
_TOKEN = re.compile(r"\s*(:\s*[\d.eE+-]*|[(),;]|[^(),:;\s][^(),:;]*)")


class _Reader:
    """Recursive descent over the tokens of one line, one frame per level.

    Nodes are appended to `entries` in postorder as (label, length, token
    index): the label is a leaf's taxon name or an inner vertex's child
    count, and the length is None only at the root.  Offsets are worked
    out only for an error: they are those of a reader that walks the text
    character by character.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN.findall(text)
        self.tokens.append("")  # end of input
        self.entries: list[tuple[str | int, float | None, int]] = []
        self.names: list[str] = []  # the leaves' labels, in order

    def offset(self, k: int, where: str = "token") -> int:
        """Offset of token k: its first character, or the end of the token
        before it ("node"), or the start of its number text ("number")."""
        if k == len(self.tokens) - 1:
            return len(self.text)
        match = next(itertools.islice(_TOKEN.finditer(self.text), k, None))
        if where == "node":
            return match.start()
        if where == "number":
            return match.end() - len(match.group(1)[1:].lstrip())
        return match.start(1)

    def error(self, message: str, k: int, where: str = "token"):
        if not self.tokens[k]:
            message = "unexpected end of input"
        raise NewickError(message, self.offset(k, where))

    def node(self, k: int, is_root: bool) -> int:
        """Read the node starting at token k; return the index after it."""
        tokens = self.tokens
        start = k
        token = tokens[k]
        if token == "(":
            label = 0
            while True:
                k = self.node(k + 1, False)
                label += 1
                token = tokens[k]
                if token != ",":
                    break
            if token != ")":
                self.error("expected ')'", k)
            k += 1
            token = tokens[k]
            if token and token[0] not in _NAME_STOP:
                k += 1  # internal node label (e.g. support value), ignored
                token = tokens[k]
        elif token and token[0] not in _NAME_STOP:
            label = token.rstrip()
            self.names.append(label)
            k += 1
            token = tokens[k]
        else:
            self.error("expected a taxon name", k)
        length = None
        if not token:
            self.error("unexpected end of input", k)
        if token[0] == ":":
            try:
                length = float(token[1:])
            except ValueError:
                if not tokens[k + 1] and not token[1:].strip():
                    self.error("unexpected end of input", k + 1)
                self.error(f"bad branch length {token[1:].lstrip()!r}", k, "number")
            k += 1
        elif not is_root:
            self.error("missing branch length", k)
        self.entries.append((label, None if is_root else length, start))
        return k


def parse_newick(
    text: str,
    *,
    taxa: TaxonTable | None = None,
    outgroup: str | None = None,
) -> Tree:
    """Parse one rooted Newick string into a Tree.

    Every edge must carry a branch length (a length on the root vertex is
    ignored), and nothing but whitespace may follow the closing ';'.  The
    outgroup taxon becomes leaf 0; by default it is the first-listed
    taxon, unless an existing taxon table fixes the order.
    """
    reader = _Reader(text)
    try:
        k = reader.node(0, True)
    except RecursionError:
        raise NewickError("nested too deeply") from None
    if reader.tokens[k] != ";":
        reader.error("expected ';'", k)
    if reader.tokens[k + 1]:
        reader.error("unexpected text after ';'", k + 1)

    names = reader.names
    if len(set(names)) != len(names):
        seen = set()
        for label, _, start in reader.entries:
            if isinstance(label, str):
                if label in seen:
                    raise NewickError(f"duplicate taxon {label!r}", reader.offset(start, "node"))
                seen.add(label)
    if len(names) < 4:
        raise NewickError(f"fewer than 4 leaves ({len(names)})")

    if taxa is not None:
        if set(names) != set(taxa.names):
            raise NewickError("taxon set does not match the given taxon table")
        if outgroup is not None and outgroup != taxa.names[0]:
            raise NewickError(f"outgroup {outgroup!r} is not leaf 0 of the taxon table")
    else:
        if outgroup is not None and outgroup not in names:
            raise NewickError(f"outgroup {outgroup!r} not among the taxa")
        taxa = canonical_taxa(names, outgroup)

    n_leaves = taxa.size
    full = (1 << n_leaves) - 1
    leaf_index = {name: i for i, name in enumerate(taxa.names)}
    leaf_lengths = [0.0] * n_leaves
    inner: dict[int, float] = {}
    # postorder: an inner vertex takes the masks of its children off the
    # stack; a leaf is never the root, so it always has a length
    stack: list[int] = []
    for label, length, start in reader.entries:
        if isinstance(label, str):
            leaf = leaf_index[label]
            stack.append(1 << leaf)
            if not length > 0.0:
                raise NewickError(
                    f"zero/negative branch length {length!r}", reader.offset(start, "node")
                )
            leaf_lengths[leaf] += length
            continue
        below = 0
        for mask in stack[-label:]:
            below |= mask
        del stack[-label:]
        stack.append(below)
        if length is None:
            continue
        if not length > 0.0:
            raise NewickError(
                f"zero/negative branch length {length!r}", reader.offset(start, "node")
            )
        side = below if not below & 1 else full ^ below
        count = side.bit_count()
        if count == 0:
            # an edge above every leaf: the root has this vertex as its
            # only child
            raise NewickError("inner edge above all leaves", reader.offset(start, "node"))
        if count == 1:
            leaf_lengths[_min_leaf(side)] += length
        elif count == n_leaves - 1:
            leaf_lengths[0] += length
        else:
            inner[side] = inner.get(side, 0.0) + length

    tree = Tree(taxa, tuple(leaf_lengths), inner)
    # one parenthesization gives every leaf one length and laminar splits,
    # so only a length can break `validate`: one part, or a sum of parts,
    # that overflowed
    problems = _length_problems(tree)
    if problems:
        raise InvalidTreeError(problems)
    return tree


def serialize_newick(tree: Tree) -> str:
    """Render the tree rooted at leaf 0's neighbor, with full-precision lengths."""
    root = tree_topology(tree)

    def render(node: Node) -> str:
        if node.is_leaf():
            body = tree.taxa.names[node.leaf]
        else:
            # one frame per level, as in the parser, so whatever parses renders
            parts = []
            for child in node.children:
                parts.append(render(child))
            body = "(" + ",".join(parts) + ")"
        if node.length is None:
            return body
        return f"{body}:{node.length:.17g}"

    return render(root) + ";"


def load_samples(path, *, outgroup: str | None = None) -> list[Tree]:
    """Read a samples file (one Newick per line, '#' lines are comments).

    The first tree fixes the taxon table; all following trees must use
    the same taxon set and are indexed against it.
    """
    trees: list[Tree] = []
    taxa: TaxonTable | None = None
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                tree = parse_newick(line, taxa=taxa, outgroup=outgroup if taxa is None else None)
            except NewickError as exc:
                raise NewickError(f"line {lineno}: {exc}") from exc
            taxa = tree.taxa
            trees.append(tree)
    return trees


# ---------------------------------------------------------------------------
# Random topologies

def random_binary_splits(n_leaves: int, rng) -> frozenset[int]:
    """Uniform random binary topology via sequential random edge insertion.

    Each edge is keyed by its endpoint ids (leaves 0..n-1, then inner
    vertices in creation order) and holds its clade, the leaves beyond it
    as seen from leaf 0, and its endpoint away from leaf 0.
    """
    if n_leaves < 4:
        raise ValueError("need at least 4 leaves")
    center = n_leaves
    edges = {(0, center): (0b110, center), (1, center): (0b10, 1), (2, center): (0b100, 2)}
    for leaf in range(3, n_leaves):
        key = sorted(edges)[rng.randrange(len(edges))]
        clade, lower = edges.pop(key)
        bit = 1 << leaf
        # the new leaf joins every clade that contains the subdivided edge
        for other, (mask, end) in edges.items():
            if mask & clade == clade:
                edges[other] = (mask | bit, end)
        mid = n_leaves + leaf - 2  # the largest vertex id yet
        upper = sum(key) - lower
        edges[upper, mid] = (clade | bit, mid)
        edges[lower, mid] = (clade, lower)
        edges[leaf, mid] = (bit, leaf)
    return frozenset(
        mask for mask, _ in edges.values() if 2 <= mask.bit_count() <= n_leaves - 2
    )
