"""Per-call cost of Newick parsing, topologies, geodesics, proximal steps,
max flow and minimum covers against taxon count.

    python3 scripts/treespace_scaling.py

Run from the root of a checkout; the program is imported from src/.  For
each taxon count in TAXA the script draws one posterior-like set of TREES
trees, from a generator of its own seeded with SEED and the count, so that
the counts listed do not change each other's trees: six dominant
topologies (a random binary backbone and five trees 20 NNI moves from
it), each tree 0-3 further NNI moves from one of them, with edge lengths
jittered log-normally per tree.  It then times, as the summary
commands meet them:

- parse: `parse_newick` on each tree's serialization, against the taxon
  table of the first, as `load_samples` reads the lines after the first;
- topology: `tree_topology` on each tree, as every serialized sample and
  every likelihood plan miss builds it;
- geodesic: `geodesic` on the pairs (iterate, input tree) that
  `frechet.mean` and `frechet.median` meet in STEPS steps each, with the
  layout memo emptied before each pass, so that a pass meets the pairs
  as a command does rather than all of them as memo hits;
  `layout_hit_rate` is the share of those geodesics whose layout the
  memo held, each estimator starting from an empty memo as a command does;
- step: one proximal step on the same pairs, as the walk takes it: the
  geodesic, its length and, unless that is zero, the tree at the step
  size the estimator chose there (`geodesic(s, t).point(eta)`), the
  memo emptied before each pass as for geodesic;
- max flow: `max_flow` on every network that reaches it (counted in
  `networks_per_geodesic`);
- covers: `_min_cover` on every network those geodesics build, grouped
  by the size of the network's smaller side, once by enumeration and
  once through max flow (with `_ENUM_MAX` set to ENUM_TIMED and to 0),
  for sides of up to ENUM_TIMED splits.  Where enumeration is cheaper
  is where `geodesic._ENUM_MAX` belongs.

Each value is the least time per call over REPEATS passes, with the
garbage collector off during a pass as `timeit` has it.  The geodesic
and step passes are taken in turn, so that a change in the host's speed
during the run reaches both alike: a step computes a geodesic, and should
not read cheaper than one.
Prints one JSON object with, per taxon count, the times, the number of
calls and of networks and vertices behind them, and the per-size cover
costs.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import random
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from bhvphylo import frechet  # noqa: E402
from bhvphylo import geodesic as geodesic_module  # noqa: E402
from bhvphylo.frechet import EstimatorConfig  # noqa: E402
from bhvphylo.geodesic import GeodesicPath, geodesic  # noqa: E402
from bhvphylo.maxflow import max_flow  # noqa: E402
from bhvphylo.mcmc import nni_neighbors  # noqa: E402
from bhvphylo.treespace import (  # noqa: E402
    TaxonTable,
    Tree,
    parse_newick,
    random_binary_splits,
    serialize_newick,
    tree_topology,
)

TAXA = (5, 8, 16, 32, 64)
TREES = 30
STEPS = 100
REPEATS = 25
SEED = 1
DOMINANTS = 6
MODE_MOVES = 20
TAIL_MOVES = 3
JITTER = 0.25
ENUM_TIMED = 10


def nni_walk(tree: Tree, moves: int, rng) -> Tree:
    for _ in range(moves):
        edges = sorted(tree.inner)
        edge = edges[rng.randrange(len(edges))]
        tree = nni_neighbors(tree, edge)[rng.randrange(2)]
    return tree


def posterior_like(n_taxa: int, trees: int, rng) -> list[Tree]:
    taxa = TaxonTable(tuple(f"t{i:02d}" for i in range(n_taxa)))
    backbone = Tree(
        taxa,
        tuple(rng.gammavariate(2.0, 0.05) + 0.01 for _ in range(n_taxa)),
        {s: rng.gammavariate(2.0, 0.05) + 0.01 for s in sorted(random_binary_splits(n_taxa, rng))},
    )
    dominants = [backbone] + [nni_walk(backbone, MODE_MOVES, rng) for _ in range(DOMINANTS - 1)]
    out = []
    for k in range(trees):
        tree = nni_walk(dominants[k % DOMINANTS], rng.randrange(TAIL_MOVES + 1), rng)
        out.append(Tree(
            taxa,
            tuple(l * math.exp(rng.gauss(0.0, JITTER)) for l in tree.leaf_lengths),
            {s: l * math.exp(rng.gauss(0.0, JITTER)) for s, l in tree.inner.items()},
        ))
    return out


def per_call(call, items, repeats: int, reset=None) -> float:
    """The least seconds per call over `repeats` passes; `reset`, when
    given, runs untimed before each pass."""
    best = math.inf
    for _ in range(repeats):
        if reset is not None:
            reset()
        gc.disable()
        start = time.perf_counter()
        for item in items:
            call(*item)
        best = min(best, (time.perf_counter() - start) / len(items))
        gc.enable()
    return best


def proximal_step(s: Tree, t: Tree, eta: float | None) -> None:
    """One step of the walk from s toward t; eta is None where the two
    trees are equal and the walk takes no step."""
    path = geodesic(s, t)
    if path.length > 0.0:
        path.point(eta)


def measure(n_taxa: int, trees: int, steps: int, repeats: int, rng) -> dict:
    tree_set = posterior_like(n_taxa, trees, rng)
    lines = [serialize_newick(tree) for tree in tree_set]
    taxa = parse_newick(lines[0]).taxa
    parse_s = per_call(lambda line: parse_newick(line, taxa=taxa), [(l,) for l in lines], repeats)
    topology_s = per_call(tree_topology, [(tree,) for tree in tree_set], repeats)

    walk = []  # (iterate, input tree, step size or None) per step
    real_geodesic = frechet.geodesic
    real_point = GeodesicPath.point

    def recording(s, t):
        walk.append((s, t, None))
        return real_geodesic(s, t)

    def recording_point(path, eta):
        walk[-1] = (*walk[-1][:2], eta)
        return real_point(path, eta)

    layout = geodesic_module._layout
    hits = 0
    frechet.geodesic = recording
    GeodesicPath.point = recording_point
    try:
        trees_read = [parse_newick(line, taxa=taxa) for line in lines]
        for estimator, seed in ((frechet.mean, 1), (frechet.median, 2)):
            layout.cache_clear()
            estimator(trees_read, EstimatorConfig(iterations=steps, seed=seed))
            hits += layout.cache_info().hits
    finally:
        frechet.geodesic = real_geodesic
        GeodesicPath.point = real_point
    pairs = [(s, t) for s, t, _ in walk]
    geodesic_s = step_s = math.inf
    for _ in range(repeats):
        geodesic_s = min(geodesic_s, per_call(geodesic, pairs, 1, reset=layout.cache_clear))
        step_s = min(step_s, per_call(proximal_step, walk, 1, reset=layout.cache_clear))

    networks = []
    covers = []
    real_cover = geodesic_module._min_cover

    def keeping(net):
        networks.append(net)
        return max_flow(net)

    def keeping_cover(*network):
        covers.append(network)
        return real_cover(*network)

    geodesic_module.max_flow = keeping
    geodesic_module._min_cover = keeping_cover
    try:
        for s, t in pairs:
            geodesic(s, t)
    finally:
        geodesic_module.max_flow = max_flow
        geodesic_module._min_cover = real_cover
    max_flow_s = per_call(max_flow, [(net,) for net in networks], repeats) if networks else 0.0
    vertices = sum(len(net.a_weights) + len(net.b_weights) for net in networks)

    by_side: dict[int, list] = {}
    for network in covers:
        by_side.setdefault(min(len(network[0]), len(network[1])), []).append(network)
    cover_costs = {}
    enum_max = geodesic_module._ENUM_MAX
    try:
        for side, group in sorted(by_side.items()):
            row = {"networks": len(group)}
            if side <= ENUM_TIMED:
                geodesic_module._ENUM_MAX = ENUM_TIMED
                row["enumerate_us"] = round(1e6 * per_call(real_cover, group, repeats), 2)
                geodesic_module._ENUM_MAX = 0
                row["max_flow_us"] = round(1e6 * per_call(real_cover, group, repeats), 2)
            cover_costs[side] = row
    finally:
        geodesic_module._ENUM_MAX = enum_max
    return {
        "taxa": n_taxa,
        "parse_ms": round(1e3 * parse_s, 4),
        "topology_ms": round(1e3 * topology_s, 4),
        "geodesic_ms": round(1e3 * geodesic_s, 4),
        "step_ms": round(1e3 * step_s, 4),
        "max_flow_us": round(1e6 * max_flow_s, 2),
        "lines": len(lines),
        "geodesics": len(pairs),
        "layout_hit_rate": round(hits / len(pairs), 3),
        "networks_per_geodesic": round(len(networks) / len(pairs), 3),
        "vertices_per_network": round(vertices / len(networks), 3) if networks else 0.0,
        "covers_per_geodesic": round(len(covers) / len(pairs), 3),
        "covers_by_smaller_side": cover_costs,
    }


def main() -> int:
    rows = []
    for n_taxa in TAXA:
        rng = random.Random(1000 * SEED + n_taxa)
        rows.append(measure(n_taxa, TREES, STEPS, REPEATS, rng))
        print(json.dumps(rows[-1]), file=sys.stderr)
    host = (f"{platform.machine()}, {os.cpu_count()} cores, "
            f"Python {platform.python_version()}, numpy {np.__version__}")
    print(json.dumps({
        "command": "python3 scripts/treespace_scaling.py",
        "host": host,
        "rows": rows,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
