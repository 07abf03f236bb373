"""Metric n-trees, splits, compatibility, and Newick serialization.

A tree over leaves 0..n is stored as a taxon table (index 0 is the
outgroup leaf), a dense vector of n+1 leaf edge lengths, and a map from
inner-edge splits to positive lengths.  Splits are normalized to the
side of the bipartition that does not contain leaf 0 and kept as
bitmasks, so compatibility reduces to three mask tests.  Inner edges of
length zero are represented by absence from the map; trees with fewer
than n-2 inner edges are valid non-binary trees.

All types are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


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


@dataclass(frozen=True)
class TaxonTable:
    """Ordered, distinct taxon labels; index 0 is the outgroup leaf."""

    names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if len(self.names) < 4:
            raise ValueError(f"need at least 4 taxa, got {len(self.names)}")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate taxon label")
        for name in self.names:
            # a label must read back from Newick as itself
            if not name or name != name.strip() or not _NAME_STOP.isdisjoint(name):
                raise ValueError(f"taxon label {name!r} is empty, padded or holds one of (),:;")

    @property
    def size(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown taxon {name!r}") from None


@dataclass(frozen=True, order=True)
class Split:
    """One inner-edge bipartition, as the bitmask of the side without leaf 0."""

    bits: int
    n_leaves: int

    def __post_init__(self):
        if self.bits & 1:
            raise ValueError("split mask must not contain leaf 0")
        if self.bits >> self.n_leaves:
            raise ValueError("split mask outside leaf range")
        size = self.size
        if size < 2 or size > self.n_leaves - 2:
            raise ValueError(
                f"split side must have 2..{self.n_leaves - 2} leaves, got {size}"
            )

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n_leaves) if self.bits >> i & 1)

    def __contains__(self, leaf: int) -> bool:
        return bool(self.bits >> leaf & 1)

    def __repr__(self):
        return f"Split({{{','.join(map(str, self.indices()))}}}/{self.n_leaves})"


def compatible(a: Split, b: Split) -> bool:
    """True iff the two splits can coexist in one tree.

    With masks normalized away from leaf 0 this holds exactly when one
    mask contains the other or they are disjoint.
    """
    if a.n_leaves != b.n_leaves:
        raise ValueError(
            f"splits over different leaf counts ({a.n_leaves} vs {b.n_leaves}) "
            "are incomparable"
        )
    meet = a.bits & b.bits
    return meet == 0 or meet == a.bits or meet == b.bits


@dataclass(frozen=True, eq=False)
class Tree:
    """A metric n-tree: taxa, leaf edge lengths, and inner splits with lengths."""

    taxa: TaxonTable
    leaf_lengths: tuple[float, ...]
    inner: dict[Split, float]

    def __post_init__(self):
        object.__setattr__(self, "leaf_lengths", tuple(self.leaf_lengths))
        object.__setattr__(self, "inner", dict(self.inner))

    def with_leaf_length(self, leaf: int, length: float) -> "Tree":
        lengths = list(self.leaf_lengths)
        lengths[leaf] = length
        return Tree(self.taxa, tuple(lengths), self.inner)

    def with_inner_length(self, split: Split, length: float) -> "Tree":
        if split not in self.inner:
            raise KeyError(f"{split} not in tree")
        inner = dict(self.inner)
        inner[split] = length
        return Tree(self.taxa, self.leaf_lengths, inner)

    def with_split_replaced(self, old: Split, new: Split) -> "Tree":
        inner = dict(self.inner)
        length = inner.pop(old)
        inner[new] = length
        return Tree(self.taxa, self.leaf_lengths, inner)

    def __eq__(self, other):
        if not isinstance(other, Tree):
            return NotImplemented
        return (
            self.taxa == other.taxa
            and self.leaf_lengths == other.leaf_lengths
            and self.inner == other.inner
        )


def _length_problems(tree: Tree) -> list[str]:
    """Edge lengths that are not positive and finite (NaN fails both tests)."""
    problems = [
        f"non-positive or non-finite length on leaf edge {i}"
        for i, length in enumerate(tree.leaf_lengths)
        if not 0.0 < length < math.inf
    ]
    problems += [
        f"non-positive or non-finite length on inner edge {split}"
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
    for split in tree.inner:
        if split.n_leaves != n_leaves:
            problems.append(f"{split} is over {split.n_leaves} leaves, tree has {n_leaves}")
    ordered = sorted(s for s in tree.inner if s.n_leaves == n_leaves)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            if not compatible(a, b):
                problems.append(f"incompatible splits {a} and {b}")
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

    Children are ordered by smallest contained leaf, with leaf 0 last,
    so the layout is deterministic for a given tree.
    """
    n_leaves = tree.taxa.size
    full = (1 << n_leaves) - 1
    root = Node(None, full, None)
    nodes = [Node(None, s.bits, length) for s, length in sorted(tree.inner.items())]
    # parent of a split node: the smallest strict superset among the others
    by_size = sorted(nodes, key=lambda v: v.mask.bit_count())
    for i, node in enumerate(by_size):
        parent = root
        for other in by_size[i + 1 :]:
            if node.mask & other.mask == node.mask and other.mask != node.mask:
                parent = other
                break
        parent.children.append(node)
    for leaf in range(n_leaves):
        leaf_node = Node(leaf, 1 << leaf, tree.leaf_lengths[leaf])
        parent = root
        best = None
        for node in nodes:
            if node.mask >> leaf & 1:
                if best is None or node.mask.bit_count() < best.mask.bit_count():
                    best = node
        if best is not None:
            parent = best
        parent.children.append(leaf_node)
    _sort_children(root)
    return root


def _sort_children(node: Node) -> None:
    # leaf 0 first, so that the first-listed taxon of the serialization is
    # the outgroup and a default re-parse rebuilds the same taxon table
    node.children.sort(key=lambda c: (c.mask != 1, _min_leaf(c.mask)))
    for child in node.children:
        _sort_children(child)


# ---------------------------------------------------------------------------
# Newick

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str):
        raise NewickError(message, self.pos)

    def peek(self) -> str:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            self.error("unexpected end of input")
        return self.text[self.pos]

    def take(self, char: str) -> None:
        if self.peek() != char:
            self.error(f"expected {char!r}")
        self.pos += 1

    def name(self) -> str:
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in _NAME_STOP:
            self.pos += 1
        name = self.text[start : self.pos].strip()
        if not name:
            self.pos = start
            self.error("expected a taxon name")
        return name

    def length(self) -> float:
        self.take(":")
        self.peek()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isdigit() or self.text[self.pos] in ".eE+-"
        ):
            self.pos += 1
        token = self.text[start : self.pos]
        try:
            value = float(token)
        except ValueError:
            self.pos = start
            self.error(f"bad branch length {token!r}")
        return value

    def node(self, is_root: bool):
        """Returns (name, children, length, offset); length None only at root."""
        offset = self.pos
        if self.peek() == "(":
            self.take("(")
            children = [self.node(False)]
            while self.peek() == ",":
                self.take(",")
                children.append(self.node(False))
            self.take(")")
            name = None
            if self.peek() not in _NAME_STOP:
                self.name()  # internal node label (e.g. support value), ignored
        else:
            name = self.name()
            children = []
        length = None
        if self.peek() == ":":
            length = self.length()
        if length is None and not is_root:
            self.error("missing branch length")
        return name, children, length, offset


def parse_newick(
    text: str,
    *,
    taxa: TaxonTable | None = None,
    outgroup: str | None = None,
) -> Tree:
    """Parse one rooted Newick string into a Tree.

    Every edge must carry a branch length (a length on the root vertex is
    ignored).  The outgroup taxon becomes leaf 0; by default it is the
    first-listed taxon, unless an existing taxon table fixes the order.
    """
    parser = _Parser(text)
    try:
        root = parser.node(True)
    except RecursionError:
        # walking the parsed nodes below recurses no deeper than this
        raise NewickError("nested too deeply") from None
    if parser.peek() != ";":
        parser.error("expected ';'")
    parser.pos += 1

    names: list[str] = []

    def collect(node):
        name, children, _, offset = node
        if not children:
            if name in names:
                raise NewickError(f"duplicate taxon {name!r}", offset)
            names.append(name)
        for child in children:
            collect(child)

    collect(root)
    if len(names) < 4:
        raise NewickError(f"fewer than 4 leaves ({len(names)})")

    if taxa is not None:
        if set(names) != set(taxa.names):
            raise NewickError("taxon set does not match the given taxon table")
        if outgroup is not None and outgroup != taxa.names[0]:
            raise NewickError(f"outgroup {outgroup!r} is not leaf 0 of the taxon table")
    else:
        # canonical table: outgroup (or the first-listed taxon) first, the
        # rest sorted, so that serializations re-parse to the same table
        if outgroup is None:
            outgroup = names[0]
        elif outgroup not in names:
            raise NewickError(f"outgroup {outgroup!r} not among the taxa")
        taxa = TaxonTable((outgroup, *sorted(n for n in names if n != outgroup)))

    n_leaves = taxa.size
    full = (1 << n_leaves) - 1
    leaf_lengths = [0.0] * n_leaves
    inner: dict[Split, float] = {}

    def walk(node, is_root: bool = False) -> int:
        name, children, length, offset = node
        if children:
            below = 0
            for child in children:
                below |= walk(child)
        else:
            below = 1 << taxa.index(name)
        if length is not None and not is_root:
            if not length > 0.0:
                raise NewickError(f"zero/negative branch length {length!r}", offset)
            side = below if not below & 1 else full ^ below
            count = side.bit_count()
            if count == 1:
                leaf_lengths[_min_leaf(side)] += length
            elif count == n_leaves - 1:
                leaf_lengths[0] += length
            else:
                split = Split(side, n_leaves)
                inner[split] = inner.get(split, 0.0) + length
        return below

    walk(root, is_root=True)
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

def random_binary_splits(n_leaves: int, rng) -> frozenset[Split]:
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
        key = sorted(edges)[int(rng.integers(len(edges)))]
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
        Split(mask, n_leaves)
        for mask, _ in edges.values()
        if 2 <= mask.bit_count() <= n_leaves - 2
    )
