"""Shortest-augmenting-path max flow on the bipartite incompatibility networks.

The geodesic refinement step needs minimum-weight vertex covers of small
bipartite graphs with real-valued vertex weights; it enumerates those
whose smaller side holds at most geodesic._ENUM_MAX vertices and brings
only the larger ones here.  The standard encoding
is used: source -> a on the first side with capacity w(a), b -> sink on
the second side with capacity w(b), and an uncapacitated arc a -> b for
every incompatibility edge.  Flow is augmented along shortest residual
paths (Edmonds-Karp) until none is left.  The max flow equals the min
cover weight, and the cover is read off the final residual graph.

The residual graph is kept per side in lists: the residual capacity of
each source arc and each sink arc, the adjacency of each vertex in edge
order, and a table of the flow on each a -> b arc, which is the residual
capacity of its reverse arc.  The source and the sink are not vertices.
The breadth-first search goes one layer at a time in the order a search
over a dict-of-dicts residual graph with explicit source and sink takes
(source arcs in index order, a -> b and reverse arcs in edge order) and
stops at the first b with a residual sink arc.  It therefore finds the
same augmenting paths as that version, which tests/oracles.py keeps as
the reference, and performs the same float operations.

Float dust cannot break either part: an augmentation zeroes its
bottleneck arc exactly and leaves every other residual positive, so the
Edmonds-Karp bound on the number of augmentations holds as in exact
arithmetic; and an a -> b arc never saturates, so a vertex b that reaches
the sink takes every neighbour a with it and every edge is covered.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FlowNetwork:
    """Vertex weights for the two sides plus the incompatibility edges.

    Any sequences are accepted and copied into tuples (the edges into a
    tuple of pairs), so a network is immutable and hashable.
    """

    a_weights: tuple[float, ...]
    b_weights: tuple[float, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "a_weights", tuple(self.a_weights))
        object.__setattr__(self, "b_weights", tuple(self.b_weights))
        object.__setattr__(self, "edges", tuple(map(tuple, self.edges)))
        if any(w < 0 for w in self.a_weights) or any(w < 0 for w in self.b_weights):
            raise ValueError("vertex weights must be nonnegative")
        na, nb = len(self.a_weights), len(self.b_weights)
        for i, j in self.edges:
            if not (0 <= i < na and 0 <= j < nb):
                raise ValueError(f"edge ({i},{j}) out of range")


def max_flow(net: FlowNetwork) -> tuple[float, tuple[frozenset[int], frozenset[int]]]:
    """Max flow value and the minimum vertex cover it certifies.

    Returns (flow, (cover_a, cover_b)) where cover_a/cover_b index into
    the two weight tuples.  cover_a holds the first-side vertices that
    still reach the sink in the final residual graph and cover_b the
    second-side vertices that do not; this is the smallest sink side of
    any minimum cut, so ties break the same way for every max flow.
    """
    a_cap = list(net.a_weights)  # residual of source -> a
    b_cap = list(net.b_weights)  # residual of b -> sink
    na, nb = len(a_cap), len(b_cap)
    a_adj: list[list[int]] = [[] for _ in range(na)]
    b_adj: list[list[int]] = [[] for _ in range(nb)]
    for i, j in dict.fromkeys(net.edges):
        a_adj[i].append(j)
        b_adj[j].append(i)
    # back[j][i]: flow on a_i -> b_j, the residual capacity of b_j -> a_i
    back = [[0.0] * na for _ in range(nb)]

    flow = 0.0
    while True:
        # breadth-first, one layer of each side at a time; a_from[i] is
        # -1 for the source arc or the b reached before a_i
        a_from: list[int | None] = [None] * na
        b_from: list[int | None] = [None] * nb
        layer = [i for i in range(na) if a_cap[i] > 0.0]
        for i in layer:
            a_from[i] = -1
        last = -1
        while layer and last < 0:
            reached = []
            for i in layer:
                for j in a_adj[i]:
                    if b_from[j] is None:
                        b_from[j] = i
                        reached.append(j)
            layer = []
            for j in reached:
                if b_cap[j] > 0.0:
                    last = j
                    break
                row = back[j]
                for i in b_adj[j]:
                    if a_from[i] is None and row[i] > 0.0:
                        a_from[i] = j
                        layer.append(i)
        if last < 0:
            break
        # the path sink <- b_last <- a <- ... <- source; a -> b arcs are
        # uncapacitated, so the bottleneck is a source, sink or reverse arc
        send = b_cap[last]
        j = last
        while True:
            i = b_from[j]
            k = a_from[i]
            if k < 0:
                send = min(send, a_cap[i])
                break
            send = min(send, back[k][i])
            j = k
        b_cap[last] -= send
        j = last
        while True:
            i = b_from[j]
            back[j][i] += send
            k = a_from[i]
            if k < 0:
                a_cap[i] -= send
                break
            back[k][i] -= send
            j = k
        flow += send

    # vertices that still reach the sink: b with a residual sink arc, every
    # a adjacent to such a b, and b behind a reverse arc from such an a
    reach_a = [False] * na
    reach_b = [cap > 0.0 for cap in b_cap]
    stack = [j for j in range(nb) if reach_b[j]]
    while stack:
        j = stack.pop()
        for i in b_adj[j]:
            if not reach_a[i]:
                reach_a[i] = True
                for k in a_adj[i]:
                    if not reach_b[k] and back[k][i] > 0.0:
                        reach_b[k] = True
                        stack.append(k)

    cover_a = frozenset(i for i in range(na) if reach_a[i])
    cover_b = frozenset(j for j in range(nb) if not reach_b[j])
    return flow, (cover_a, cover_b)
