"""Negative controls: every output check must reject a deliberately wrong output.

    python3 perfbench/controls.py [--seeds 1,2,3]

For each seed, runs the first round of pipeline-5taxa and of
summary-32taxa, confirms that their real outputs pass, then for each
check plants one fault -- in an output file, or in the program function a
check compares against -- and confirms that the check now reports a
problem for that operation.  Outputs that cannot be read at all must be
reported as problems too, not stop the checks.  Prints one line per
control and exits 1 if any control is not rejected.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import shutil
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (sets up the import paths)
import checks  # noqa: E402

import bhvphylo  # noqa: E402

TRUE_LOG_LIKELIHOOD = bhvphylo.log_likelihood


def render(node) -> str:
    name, children, length = node
    body = "(" + ",".join(render(c) for c in children) + ")" if children else name
    return body if length is None else f"{body}:{length!r}"


def collapse_one_split(text: str) -> str:
    """The tree with its first inner edge contracted (a polytomy)."""
    tree = checks.NewickTree(text)

    def walk(node):
        for i, child in enumerate(node[1]):
            if child[1] and len(child[1]) > 1 and child[2] is not None:
                node[1][i:i + 1] = child[1]
                return True
            if walk(child):
                return True
        return False

    walk(tree.root)
    return render(tree.root) + ";"


def edit_lines(path, edit) -> None:
    with open(path) as handle:
        lines = handle.read().splitlines()
    with open(path, "w") as handle:
        handle.write("\n".join(edit(lines)) + "\n")


def last_tree_index(lines) -> int:
    return max(i for i, line in enumerate(lines) if line and not line.startswith("#"))


def wrong_estimate(path, samples, how) -> None:
    """Replace an estimate by a wrong tree, reporting that tree's variance
    honestly: "move" goes halfway to the input farthest from it, "triple"
    multiplies every edge length by three."""
    trees = bhvphylo.treespace.load_samples(samples, outgroup="O")
    text, _ = checks.read_estimate(path)
    estimate = bhvphylo.parse_newick(text, taxa=trees[0].taxa)
    if how == "move":
        far = max(trees, key=lambda t: bhvphylo.distance(estimate, t))
        wrong = bhvphylo.interpolate(estimate, far, 0.5)
    else:
        wrong = bhvphylo.Tree(estimate.taxa, tuple(3 * x for x in estimate.leaf_lengths),
                              {s: 3 * x for s, x in estimate.inner.items()})
    with open(path, "w") as handle:
        handle.write(bhvphylo.serialize_newick(wrong) + "\n")
        handle.write(f"# variance= {bhvphylo.variance(trees, wrong):.17g}\n")


class Patch:
    """Replace a module attribute for the duration of one control."""

    def __init__(self, module, name, value):
        self.module, self.name, self.value = module, name, value

    def __enter__(self):
        self.saved = getattr(self.module, self.name)
        setattr(self.module, self.name, self.value)

    def __exit__(self, *exc):
        setattr(self.module, self.name, self.saved)


def cone_distance(a, b):
    """A wrong geodesic: always the path through the star tree."""
    inner = sum(x * x for x in a.inner.values()) ** 0.5 + sum(
        x * x for x in b.inner.values()) ** 0.5
    leaves = sum((x - y) ** 2 for x, y in zip(a.leaf_lengths, b.leaf_lengths))
    return (inner * inner + leaves) ** 0.5


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1,2,3")
    args = parser.parse_args()
    status = 0
    for seed in (int(s) for s in args.seeds.split(",")):
        print(f"seed {seed}")
        status |= controls(seed, os.path.join(HERE, "out", "controls", str(seed)))
    return status


def controls(seed, base) -> int:
    shutil.rmtree(base, ignore_errors=True)
    workloads = {}
    for name in ("pipeline-5taxa", "summary-32taxa"):
        work = os.path.join(base, name)
        os.makedirs(work)
        server = run.Server(work)
        try:
            workload = run.WORKLOADS[name](work, seed, server)
            done = run.run_round(workload, server, os.path.join(work, "round0"), trace=False)
        finally:
            server.close()
        if not all(c.ok for _, c in done):
            print(f"{name}: a command failed; see {work}/round0", file=sys.stderr)
            return 1
        # the controls plant their faults in the first instance
        workloads[name] = (workload, [c for k, c in done if k == 0])

    def check(name, directory):
        workload, commands = workloads[name]
        outputs = {c.op: os.path.join(directory, f"{c.op}.out") for c in commands}
        return workload.check(workload.instances[0], directory, outputs)

    five, big = "pipeline-5taxa", "summary-32taxa"
    last_tree = lambda ls: [collapse_one_split(l) if i == last_tree_index(ls) else l
                            for i, l in enumerate(ls)]
    # (workload, fault, operation that must fail, words of the expected
    # problem, file to edit, line edit or wrong_estimate's "move"/"triple",
    # patched program function)
    controls = [
        (five, "a sample tree with one split contracted", "sample", "inner splits",
         "run.samples", last_tree, None),
        (five, "one sample missing from the samples file", "sample", "samples, expected",
         "run.samples", lambda ls: ls[:-2], None),
        (five, "final log posterior in the trace off by 1e-3", "sample", "recomputed",
         "run.trace.csv", lambda ls: ls[:-1] + [_shift_last_field(ls[-1], 1e-3)], None),
        (five, "likelihood computed with the leaf lengths doubled", "sample",
         "numeric pruning", None, None, (bhvphylo, "log_likelihood", _doubled_likelihood)),
        (five, "consensus with one split dropped", "consensus", "majority splits",
         "consensus.out", lambda ls: [collapse_one_split(ls[0])], None),
        (five, "consensus with one length off by 1e-9 relative", "consensus", "!= mean",
         "consensus.out", lambda ls: [_scale_first_inner(ls[0], 1 + 1e-9)], None),
        (five, "one split frequency off by 0.01", "splits", "frequency",
         "splits.out", _bump_frequency, None),
        (five, "mean moved halfway toward one input tree", "mean", "variance inequality",
         "mean.out", "move", None),
        (five, "mean's reported variance off by 1e-6 relative", "mean", "reported variance",
         "mean.out", lambda ls: [ls[0], _scale_variance(ls[1], 1 + 1e-6)], None),
        (five, "median moved halfway toward one input tree", "median", "median objective",
         "median.out", "move", None),
        (five, "distances along the cone path, not the geodesic", "mean", "brute-force",
         None, None, (bhvphylo, "distance", cone_distance)),
        # with 200 steps on 32 taxa the step-count tolerances are wide, so
        # only gross errors show; the 5-taxon controls above are the tight ones
        (big, "mean with every edge length tripled", "mean", "F(mean)",
         "mean.out", "triple", None),
        (big, "median with every edge length tripled", "median", "median objective",
         "median.out", "triple", None),
        (big, "consensus with one split dropped", "consensus", "majority splits",
         "consensus.out", lambda ls: [collapse_one_split(ls[0])], None),
        (big, "one split frequency off by 0.01", "splits", "frequency",
         "splits.out", _bump_frequency, None),
        # outputs that cannot be read are problems of their operation
        (five, "samples file missing", "sample", "cannot be checked",
         "run.samples", "delete", None),
        (five, "mean output without its variance line", "mean", "cannot be checked",
         "mean.out", lambda ls: ls[:1], None),
        (five, "consensus output empty", "consensus", "cannot be checked",
         "consensus.out", lambda ls: [], None),
        (big, "splits output with a row cut short", "splits", "cannot be checked",
         "splits.out", lambda ls: ls[:1] + [ls[1].split(",")[0]] + ls[2:], None),
    ]

    def first_instance(name):
        return os.path.join(base, name, "round0", "0")

    status = 0
    for name in workloads:
        found = {op: p for op, p in check(name, first_instance(name)).items() if p}
        print(f"baseline {name}: {'passes' if not found else found}")
        status |= bool(found)
    for number, (name, what, op, words, path, edit, patch) in enumerate(controls):
        directory = os.path.join(base, f"control{number}")
        shutil.copytree(first_instance(name), directory)
        if edit == "delete":
            os.remove(os.path.join(directory, path))
        elif edit in ("move", "triple"):
            instance = workloads[name][0].instances[0]
            samples = instance.get("samples", os.path.join(directory, "run.samples"))
            wrong_estimate(os.path.join(directory, path), samples, edit)
        elif path:
            edit_lines(os.path.join(directory, path), edit)
        with Patch(*patch) if patch else contextlib.nullcontext():
            problems = check(name, directory).get(op, [])
        hits = [p for p in problems if words in p]
        status |= not hits
        print(f"{'rejected' if hits else 'NOT REJECTED'}: {name}: {what} -> {op}: "
              f"{(hits or ['no such problem reported'])[0][:100]}")

    # a later round must reproduce the first byte for byte
    first = workloads[five][1][0]
    copy = os.path.join(base, "control-bytes")
    shutil.copytree(os.path.dirname(first.files[0]), copy)
    edit_lines(os.path.join(copy, "run.samples"),
               lambda ls: ls[:-1] + [ls[-1].replace("1", "2", 1)])
    later = types.SimpleNamespace(
        files=[os.path.join(copy, os.path.basename(f)) for f in first.files])
    differs = not run.same_outputs(later, first)
    status |= not differs
    print(f"{'rejected' if differs else 'NOT REJECTED'}: {five}: a later round with one "
          "digit changed in its samples -> sample: not byte-identical to the first round")
    return int(status)


def _shift_last_field(row, offset):
    fields = row.split(",")
    fields[2] = repr(float(fields[2]) + offset)
    return ",".join(fields)


def _doubled_likelihood(tree, alignment, prior):
    doubled = bhvphylo.Tree(tree.taxa, tuple(2 * x for x in tree.leaf_lengths), tree.inner)
    return TRUE_LOG_LIKELIHOOD(doubled, alignment, prior)


def _scale_first_inner(text, factor):
    tree = checks.NewickTree(text)

    def walk(node):
        for child in node[1]:
            if child[1] and child[2] is not None:
                child[2] *= factor
                return True
            if walk(child):
                return True
        return False

    walk(tree.root)
    return render(tree.root) + ";"


def _scale_variance(line, factor):
    return f"# variance= {float(line.split('=', 1)[1]) * factor!r}"


def _bump_frequency(lines):
    header, first, *rest = lines
    split = first.split(",")[0]
    out = [header]
    for row in [first] + rest:
        fields = row.split(",")
        if fields[0] == split:
            fields[1] = repr(float(fields[1]) + 0.01)
        out.append(",".join(fields))
    return out


if __name__ == "__main__":
    sys.exit(main())
