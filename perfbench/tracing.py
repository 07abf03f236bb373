"""Spans at the layer boundaries of bhvphylo, recorded from outside the program.

Each public function is wrapped at the name where its caller looks it up
(a module global), so the program itself is unchanged.  A span is
[name, start, end, parent, extra]: `parent` is the index of the enclosing
span or -1, `extra` a small count taken from the call (moves, supports,
network size) or null.  Spans stay in memory and are written out by the
caller when the command ends.

`import bhvphylo.geodesic` yields the function, because the package
__init__ rebinds that name, so modules are reached through sys.modules.
"""

from __future__ import annotations

import sys
import time

_clock = time.perf_counter


def _mh_extra(args, result):
    row = result[1]
    return [row.move, bool(row.accepted)]


def _geodesic_extra(args, result):
    return len(result.supports)


def _maxflow_extra(args, result):
    net = args[0]
    return len(net.a_weights) + len(net.b_weights)


# (module, attribute, span name, extra) -- one entry per place a caller
# looks the function up.  Span names are "<layer>.<function>".
TARGETS = [
    ("bhvphylo.cli", "cmd_sample", "cli.cmd_sample", None),
    ("bhvphylo.cli", "cmd_mean", "cli.cmd_mean", None),
    ("bhvphylo.cli", "cmd_median", "cli.cmd_median", None),
    ("bhvphylo.cli", "cmd_consensus", "cli.cmd_consensus", None),
    ("bhvphylo.cli", "cmd_splits", "cli.cmd_splits", None),
    ("bhvphylo.cli", "run", "mcmc.run", None),
    ("bhvphylo.cli", "mean", "frechet.mean", None),
    ("bhvphylo.cli", "median", "frechet.median", None),
    ("bhvphylo.cli", "variance", "frechet.variance", None),
    ("bhvphylo.cli", "consensus_majority", "summary.consensus_majority", None),
    ("bhvphylo.cli", "split_frequencies", "summary.split_frequencies", None),
    ("bhvphylo.cli", "serialize_newick", "treespace.serialize_newick", None),
    ("bhvphylo.cli", "tree_topology", "treespace.tree_topology", None),
    ("bhvphylo.treespace", "parse_newick", "treespace.parse_newick", None),
    ("bhvphylo.treespace", "tree_topology", "treespace.tree_topology", None),
    ("bhvphylo.mcmc", "mh_step", "mcmc.mh_step", _mh_extra),
    ("bhvphylo.mcmc", "nni_neighbors", "mcmc.nni_neighbors", None),
    ("bhvphylo.mcmc", "log_posterior", "phylo_model.log_posterior", None),
    ("bhvphylo.mcmc", "tree_topology", "treespace.tree_topology", None),
    ("bhvphylo.mcmc", "serialize_newick", "treespace.serialize_newick", None),
    ("bhvphylo.phylo_model", "tree_topology", "treespace.tree_topology", None),
    ("bhvphylo.frechet", "distance", "geodesic.distance", None),
    ("bhvphylo.frechet", "geodesic", "geodesic.geodesic", _geodesic_extra),
    ("bhvphylo.geodesic", "geodesic", "geodesic.geodesic", _geodesic_extra),
    ("bhvphylo.geodesic", "max_flow", "maxflow.max_flow", _maxflow_extra),
]

# the proximal walk is a generator: each next() is one step
STEP_TARGET = ("bhvphylo.frechet", "_iterates", "frechet.step")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _open(self, name) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, None])
        self._stack.append(index)
        return index

    def _close(self, index, extra=None) -> None:
        self._stack.pop()
        span = self.spans[index]
        span[2] = _clock()
        span[4] = extra

    def wrap(self, func, name, extra):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer._close(index)
                raise
            tracer._close(index, extra(args, result) if extra else None)
            return result

        traced.__wrapped__ = func
        return traced

    def wrap_steps(self, func, name):
        tracer = self

        def traced(*args, **kwargs):
            walk = func(*args, **kwargs)
            while True:
                index = tracer._open(name)
                try:
                    value = next(walk)
                except StopIteration:
                    tracer._close(index)
                    return
                except BaseException:
                    tracer._close(index)
                    raise
                tracer._close(index)
                yield value

        traced.__wrapped__ = func
        return traced

    def _target(self, module_name, attr):
        module = sys.modules.get(module_name)
        if module is None or not callable(getattr(module, attr, None)):
            self.missing.append(f"{module_name}.{attr}")
            return None
        return module

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        for module_name, attr, name, extra in TARGETS:
            module = self._target(module_name, attr)
            if module is not None:
                setattr(module, attr, self.wrap(getattr(module, attr), name, extra))
        module_name, attr, name = STEP_TARGET
        module = self._target(module_name, attr)
        if module is not None:
            setattr(module, attr, self.wrap_steps(getattr(module, attr), name))


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one round (all of its commands)

_MCMC = ("mcmc.run", "mcmc.mh_step", "mcmc.nni_neighbors", "phylo_model.log_posterior",
         "treespace.tree_topology", "treespace.serialize_newick")
_FRECHET = ("frechet.mean", "frechet.median", "frechet.variance", "frechet.step",
            "geodesic.distance", "geodesic.geodesic")
_GEODESIC = ("geodesic.distance", "geodesic.geodesic", "maxflow.max_flow")

# (metric, unit, the span names it is computed from).  A metric whose
# spans cannot be recorded, because a wrapped name is gone from the
# program, is left out of the result rather than read as 0.
PER_LAYER = [
    ("cli.sample_s", "s", ("cli.cmd_sample",)),
    ("cli.mean_s", "s", ("cli.cmd_mean",)),
    ("cli.median_s", "s", ("cli.cmd_median",)),
    ("cli.summary_s", "s", ("cli.cmd_consensus", "cli.cmd_splits")),
    ("cli.output_bytes", "B", ()),
    ("phylo_model.posterior_calls", "count", ("phylo_model.log_posterior",)),
    ("phylo_model.posterior_s", "s", ("phylo_model.log_posterior",)),
    ("phylo_model.posterior_ms", "ms", ("phylo_model.log_posterior",)),
    ("mcmc.steps", "count", ("mcmc.mh_step",)),
    ("mcmc.steps_per_s", "1/s", ("mcmc.mh_step", "mcmc.run")),
    ("mcmc.self_s", "s", _MCMC),
    ("mcmc.nni_calls", "count", ("mcmc.nni_neighbors",)),
    ("mcmc.accepted_length", "count", ("mcmc.mh_step",)),
    ("mcmc.accepted_nni", "count", ("mcmc.mh_step",)),
    ("treespace.parse_calls", "count", ("treespace.parse_newick",)),
    ("treespace.parse_s", "s", ("treespace.parse_newick",)),
    ("treespace.serialize_calls", "count", ("treespace.serialize_newick",)),
    ("treespace.serialize_s", "s", ("treespace.serialize_newick",)),
    ("treespace.topology_calls", "count", ("treespace.tree_topology",)),
    ("treespace.topology_s", "s", ("treespace.tree_topology",)),
    ("frechet.steps", "count", ("frechet.step",)),
    ("frechet.self_s", "s", _FRECHET),
    ("frechet.geodesics_per_step", "count", ("frechet.step", "geodesic.geodesic")),
    ("frechet.ms_per_step", "ms", ("frechet.step",)),
    ("geodesic.calls", "count", ("geodesic.geodesic",)),
    ("geodesic.self_s", "s", _GEODESIC),
    ("geodesic.ms", "ms", ("geodesic.geodesic",)),
    ("geodesic.supports_per_call", "count", ("geodesic.geodesic",)),
    ("maxflow.calls", "count", ("maxflow.max_flow",)),
    ("maxflow.s", "s", ("maxflow.max_flow",)),
    ("maxflow.calls_per_geodesic", "count", ("maxflow.max_flow", "geodesic.geodesic")),
    ("maxflow.vertices_per_call", "count", ("maxflow.max_flow",)),
    ("summary.consensus_s", "s", ("summary.consensus_majority",)),
    ("summary.splits_s", "s", ("summary.split_frequencies",)),
    ("bench.trace_overhead_s", "s", ()),
]


def unrecorded(missing_sites) -> set[str]:
    """Span names with at least one wrapped site missing from the program."""
    sites = {f"{module}.{attr}": name for module, attr, name, _ in TARGETS}
    module, attr, name = STEP_TARGET
    sites[f"{module}.{attr}"] = name
    return {sites[site] for site in missing_sites}


def _ratio(num, den):
    # a layer that did no work on this workload reads 0, not a division error
    return num / den if den else 0.0


def round_metrics(span_lists, output_bytes: int) -> dict:
    """Every per-layer metric except the tracing overhead, for one round."""
    count: dict[str, int] = {}
    busy: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    extras: dict[str, list] = {}
    step_geodesics = 0
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent, extra) in enumerate(spans):
            count[name] = count.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + (end - start)
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + (end - start) - child_time[index]
            if extra is not None:
                extras.setdefault(name, []).append(extra)
            if name == "geodesic.geodesic" and _has_ancestor(spans, parent, "frechet.step"):
                step_geodesics += 1

    def n(name):
        return count.get(name, 0)

    def s(name):
        return busy.get(name, 0.0)

    moves = extras.get("mcmc.mh_step", [])
    geodesics = n("geodesic.geodesic")
    steps = n("frechet.step")
    return {
        "cli.sample_s": s("cli.cmd_sample"),
        "cli.mean_s": s("cli.cmd_mean"),
        "cli.median_s": s("cli.cmd_median"),
        "cli.summary_s": s("cli.cmd_consensus") + s("cli.cmd_splits"),
        "cli.output_bytes": output_bytes,
        "phylo_model.posterior_calls": n("phylo_model.log_posterior"),
        "phylo_model.posterior_s": s("phylo_model.log_posterior"),
        "phylo_model.posterior_ms": 1e3 * _ratio(
            s("phylo_model.log_posterior"), n("phylo_model.log_posterior")
        ),
        "mcmc.steps": n("mcmc.mh_step"),
        "mcmc.steps_per_s": _ratio(n("mcmc.mh_step"), s("mcmc.run")),
        "mcmc.self_s": layer_self.get("mcmc", 0.0),
        "mcmc.nni_calls": n("mcmc.nni_neighbors"),
        "mcmc.accepted_length": sum(1 for m, a in moves if a and m == "length"),
        "mcmc.accepted_nni": sum(1 for m, a in moves if a and m == "nni"),
        "treespace.parse_calls": n("treespace.parse_newick"),
        "treespace.parse_s": s("treespace.parse_newick"),
        "treespace.serialize_calls": n("treespace.serialize_newick"),
        "treespace.serialize_s": s("treespace.serialize_newick"),
        "treespace.topology_calls": n("treespace.tree_topology"),
        "treespace.topology_s": s("treespace.tree_topology"),
        "frechet.steps": steps,
        "frechet.self_s": layer_self.get("frechet", 0.0),
        "frechet.geodesics_per_step": _ratio(step_geodesics, steps),
        "frechet.ms_per_step": 1e3 * _ratio(s("frechet.step"), steps),
        "geodesic.calls": geodesics,
        "geodesic.self_s": layer_self.get("geodesic", 0.0),
        "geodesic.ms": 1e3 * _ratio(s("geodesic.geodesic"), geodesics),
        "geodesic.supports_per_call": _ratio(
            sum(extras.get("geodesic.geodesic", [])), geodesics
        ),
        "maxflow.calls": n("maxflow.max_flow"),
        "maxflow.s": s("maxflow.max_flow"),
        "maxflow.calls_per_geodesic": _ratio(n("maxflow.max_flow"), geodesics),
        "maxflow.vertices_per_call": _ratio(
            sum(extras.get("maxflow.max_flow", [])), n("maxflow.max_flow")
        ),
        "summary.consensus_s": s("summary.consensus_majority"),
        "summary.splits_s": s("summary.split_frequencies"),
    }


def _has_ancestor(spans, index, name) -> bool:
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False
