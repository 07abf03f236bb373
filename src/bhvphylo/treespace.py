"""Metric n-trees, splits, compatibility, and Newick serialization.

A tree over leaves 0..n is stored as a taxon table (index 0 is the
outgroup leaf), a dense vector of n+1 leaf edge lengths, and a map from
inner-edge splits to positive lengths.  Splits are normalized to the
side of the bipartition that does not contain leaf 0 and kept as
bitmasks, so compatibility reduces to three mask tests; a split is the
tuple (bits, n_leaves), so dict and set lookups of splits hash and
compare in C.  Inner edges of length zero are represented by absence
from the map; trees with fewer than n-2 inner edges are valid non-binary
trees.

All types but `Node` are immutable after construction and safe to share
across threads; a `Node` is the vertex of the explicit topology that
`tree_topology` builds by mutation, and each call builds new ones.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
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


class _SplitFields(NamedTuple):
    bits: int
    n_leaves: int


class Split(_SplitFields):
    """One inner-edge bipartition, as the bitmask of the side without leaf 0.

    A split is the tuple ``(bits, n_leaves)``, so hashing, equality and
    ordering run in the tuple's C code: a split hashes as that tuple and
    sorts by its mask first.
    """

    __slots__ = ()

    def __new__(cls, bits: int, n_leaves: int):
        if bits & 1:
            raise ValueError("split mask must not contain leaf 0")
        if bits >> n_leaves:
            raise ValueError("split mask outside leaf range")
        size = bits.bit_count()
        if size < 2 or size > n_leaves - 2:
            raise ValueError(
                f"split side must have 2..{n_leaves - 2} leaves, got {size}"
            )
        return tuple.__new__(cls, (bits, n_leaves))

    def indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n_leaves) if self.bits >> i & 1)

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

    Children are ordered by smallest contained leaf, with leaf 0 first,
    so the layout is deterministic for a given tree.
    """
    root = Node(None, (1 << tree.taxa.size) - 1, None)
    nodes = [Node(leaf, 1 << leaf, length) for leaf, length in enumerate(tree.leaf_lengths)]
    nodes += [Node(None, split.bits, length) for split, length in tree.inner.items()]
    nodes.sort(key=lambda v: v.mask.bit_count())
    nodes.append(root)
    # the parent is the smallest clade strictly containing the vertex: the
    # first later one containing it, as clades of equal size are disjoint;
    # a split holds at least two leaves, so a leaf's search starts at the
    # inner clades, which follow the leaves
    n_leaves = tree.taxa.size
    inner = nodes[n_leaves:]
    for i, node in enumerate(nodes):
        mask = node.mask
        for other in inner if i < n_leaves else nodes[i + 1 :]:
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
        # canonical table: outgroup (or the first-listed taxon) first, the
        # rest sorted, so that serializations re-parse to the same table
        if outgroup is None:
            outgroup = names[0]
        elif outgroup not in names:
            raise NewickError(f"outgroup {outgroup!r} not among the taxa")
        taxa = TaxonTable((outgroup, *sorted(n for n in names if n != outgroup)))

    n_leaves = taxa.size
    full = (1 << n_leaves) - 1
    leaf_index = {name: i for i, name in enumerate(taxa.names)}
    leaf_lengths = [0.0] * n_leaves
    inner: dict[Split, float] = {}
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
        if count == 1:
            leaf_lengths[_min_leaf(side)] += length
        elif count == n_leaves - 1:
            leaf_lengths[0] += length
        else:
            split = Split(side, n_leaves)
            inner[split] = inner.get(split, 0.0) + length

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
