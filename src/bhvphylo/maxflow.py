"""Shortest-augmenting-path max flow on the bipartite incompatibility networks.

The geodesic refinement step needs minimum-weight vertex covers of small
bipartite graphs with real-valued vertex weights.  The standard encoding
is used: source -> a on the first side with capacity w(a), b -> sink on
the second side with capacity w(b), and an uncapacitated arc a -> b for
every incompatibility edge.  Flow is augmented along shortest residual
paths (Edmonds-Karp) until none is left.  The max flow equals the min
cover weight, and the cover is read off the final residual graph.

Float dust cannot break either part: an augmentation zeroes its
bottleneck arc exactly and leaves every other residual positive, so the
Edmonds-Karp bound on the number of augmentations holds as in exact
arithmetic; and an a -> b arc never saturates, so a vertex b that reaches
the sink takes every neighbour a with it and every edge is covered.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class FlowNetwork:
    """Vertex weights for the two sides plus the incompatibility edges."""

    a_weights: tuple[float, ...]
    b_weights: tuple[float, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "a_weights", tuple(self.a_weights))
        object.__setattr__(self, "b_weights", tuple(self.b_weights))
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        if any(w < 0 for w in self.a_weights + self.b_weights):
            raise ValueError("vertex weights must be nonnegative")
        for i, j in self.edges:
            if not (0 <= i < len(self.a_weights) and 0 <= j < len(self.b_weights)):
                raise ValueError(f"edge ({i},{j}) out of range")


def max_flow(net: FlowNetwork) -> tuple[float, tuple[frozenset[int], frozenset[int]]]:
    """Max flow value and the minimum vertex cover it certifies.

    Returns (flow, (cover_a, cover_b)) where cover_a/cover_b index into
    the two weight tuples.  cover_a holds the first-side vertices that
    still reach the sink in the final residual graph and cover_b the
    second-side vertices that do not; this is the smallest sink side of
    any minimum cut, so ties break the same way for every max flow.
    """
    na, nb = len(net.a_weights), len(net.b_weights)
    # vertices: 0..na-1 first side, na..na+nb-1 second side, then source, sink
    source, sink = na + nb, na + nb + 1
    residual: list[dict[int, float]] = [{} for _ in range(na + nb + 2)]

    def add_arc(u: int, v: int, capacity: float) -> None:
        residual[u][v] = capacity
        residual[v].setdefault(u, 0.0)

    for i, w in enumerate(net.a_weights):
        add_arc(source, i, w)
    for i, j in net.edges:
        add_arc(i, na + j, math.inf)
    for j, w in enumerate(net.b_weights):
        add_arc(na + j, sink, w)

    flow = 0.0
    while True:
        parent = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v, capacity in residual[u].items():
                if capacity > 0.0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            break
        path = []
        v = sink
        while v != source:
            path.append((parent[v], v))
            v = parent[v]
        send = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= send
            residual[v][u] += send
        flow += send

    reaches = {sink}
    queue = deque([sink])
    while queue:
        v = queue.popleft()
        for u in residual[v]:
            if u not in reaches and residual[u][v] > 0.0:
                reaches.add(u)
                queue.append(u)

    cover_a = frozenset(i for i in range(na) if i in reaches)
    cover_b = frozenset(j for j in range(nb) if na + j not in reaches)
    return flow, (cover_a, cover_b)
