"""Seeded inputs for the workloads.

Alignments come from the program's own `simulate` command on a fixed
tree.  The benchmark then keeps the shortest prefix of columns that holds
a fixed number of distinct column patterns: the likelihood is evaluated
once per distinct pattern, so a fixed pattern count keeps the work of a
run from moving with the draw, while the columns themselves still do.

The 32-taxon tree sets are drawn here, with no code from the program: a
few dominant topologies plus a tail reached from them by NNI moves, each
tree with jittered edge lengths, in shuffled order.
"""

from __future__ import annotations

import numpy as np

TREE_5 = "((A:0.1,B:0.2):0.05,(C:0.3,D:0.1):0.07,O:0.1);"
TREE_8 = (
    "(((A:0.08,B:0.12):0.06,(C:0.1,D:0.07):0.05):0.04,"
    "((E:0.09,F:0.11):0.06,G:0.15):0.05,O:0.1);"
)
SIMULATED_COLUMNS = 2000


def read_fasta(path) -> list[tuple[str, str]]:
    records: list[tuple[str, list[str]]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line.startswith(">"):
                records.append((line[1:].split()[0], []))
            elif line:
                records[-1][1].append(line)
    return [(name, "".join(parts)) for name, parts in records]


def write_fasta(path, records) -> None:
    with open(path, "w") as handle:
        for name, sequence in records:
            handle.write(f">{name}\n{sequence}\n")


def truncate_to_patterns(path, patterns: int) -> int:
    """Cut the alignment in place after its `patterns`-th distinct column."""
    records = read_fasta(path)
    seen = set()
    for index in range(len(records[0][1])):
        seen.add(tuple(sequence[index] for _, sequence in records))
        if len(seen) == patterns:
            write_fasta(path, [(name, seq[: index + 1]) for name, seq in records])
            return index + 1
    raise RuntimeError(f"{path}: fewer than {patterns} distinct columns")


# ---------------------------------------------------------------------------
# 32-taxon posterior-like tree sets.  A rooted binary tree is a nested
# list [left, right] of leaf names; the outgroup hangs off the root.


def _random_rooted(names, rng):
    nodes = list(names)
    while len(nodes) > 1:
        i, j = sorted(rng.choice(len(nodes), size=2, replace=False))
        right = nodes.pop(j)
        left = nodes.pop(i)
        nodes.append([left, right])
    return nodes[0]


def _internal_nodes(node, out):
    if isinstance(node, list):
        out.append(node)
        for child in node:
            _internal_nodes(child, out)
    return out


def _copy(node):
    return [_copy(c) for c in node] if isinstance(node, list) else node


def _nni(root, rng):
    """Swap a grandchild with its uncle across one random inner edge."""
    candidates = [
        (parent, side)
        for parent in _internal_nodes(root, [])
        for side in (0, 1)
        if isinstance(parent[side], list)
    ]
    parent, side = candidates[int(rng.integers(len(candidates)))]
    child = parent[side]
    k = int(rng.integers(2))
    child[k], parent[1 - side] = parent[1 - side], child[k]


def _newick(node, lengths, rng, jitter):
    def render(node, path):
        base = lengths.setdefault(path, float(rng.gamma(2.0, 0.05)) + 0.01)
        length = base * float(np.exp(rng.normal(0.0, jitter)))
        if isinstance(node, list):
            body = "(" + ",".join(render(c, path + str(i)) for i, c in enumerate(node)) + ")"
        else:
            body = node
        return f"{body}:{length:.10g}"

    return render(node, "r")


# the 32-taxon sets: six dominant topologies with 15% of the trees each;
# the other five are the backbone after 20 NNI moves; the tail trees are
# 1-3 further moves from a dominant one; lengths jitter log-normally
TAXA_32 = 32
WEIGHTS = (0.15,) * 6
MODE_MOVES = 20
TAIL_MOVES = (1, 3)
JITTER = 0.25


def tree_set(seed: int, trees: int) -> list[str]:
    """Newick lines of a posterior-like set of `trees` trees.

    The first dominant topology is a random backbone.  Backbone splits
    that most dominants keep make a majority consensus; the moved ones
    make the conflicts that geodesic refinement has to resolve."""
    rng = np.random.default_rng(seed)
    backbone = _random_rooted([f"t{i:02d}" for i in range(1, TAXA_32)], rng)
    dominants = [backbone]
    for _ in WEIGHTS[1:]:
        tree = _copy(backbone)
        for _ in range(MODE_MOVES):
            _nni(tree, rng)
        dominants.append(tree)
    # base lengths per topology and position, jittered per tree
    bases = [{} for _ in dominants]
    plan = []
    for k, weight in enumerate(WEIGHTS):
        plan += [(k, 0)] * int(round(weight * trees))
    while len(plan) < trees:
        k = int(rng.choice(len(WEIGHTS), p=np.asarray(WEIGHTS) / sum(WEIGHTS)))
        plan.append((k, int(rng.integers(TAIL_MOVES[0], TAIL_MOVES[1] + 1))))
    lines = []
    for k, moves in plan:
        tree = _copy(dominants[k])
        for _ in range(moves):
            _nni(tree, rng)
        out_length = float(rng.gamma(2.0, 0.05)) + 0.01
        lines.append(f"(O:{out_length:.10g},{_newick(tree, bases[k], rng, JITTER)});")
    order = rng.permutation(len(lines))
    return [lines[i] for i in order]
