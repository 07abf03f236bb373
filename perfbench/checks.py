"""Output checks.  Each returns a list of problems; an empty list passes.

Nothing here compares against a stored copy.  Trees are re-read with a
parser of the benchmark's own, splits are counted here, the likelihood is
recomputed by numeric pruning over Dirichlet draws, and the estimators are
held to properties a mean and a median must have.  Where a check needs
BHV distances it calls the program's `distance`, which the 5-taxon
workload in turn holds to the brute-force oracle in tests/oracles.py.
"""

from __future__ import annotations

import csv
import math
import re

import numpy as np

ALPHABET = "ACGT-"

# ---------------------------------------------------------------------------
# Newick, read independently of bhvphylo.treespace

_TOKEN = re.compile(r"\s*([(),;:]|[^(),;:\s]+)")


class NewickTree:
    """A rooted Newick tree: nested nodes [name, children, length]."""

    def __init__(self, text: str):
        tokens = _TOKEN.findall(text)
        self.pos = 0
        self.tokens = tokens
        self.root = self._node()
        if self._take() != ";" or self.pos != len(tokens):
            raise ValueError("trailing text after the tree")
        self.leaves = []
        self._collect(self.root)

    def _take(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def _node(self):
        children = []
        name = None
        if self.tokens[self.pos] == "(":
            self._take()
            children.append(self._node())
            while self.tokens[self.pos] == ",":
                self._take()
                children.append(self._node())
            if self._take() != ")":
                raise ValueError("expected ')'")
        if self.tokens[self.pos] not in "(),;:":
            name = self._take()
        length = None
        if self.tokens[self.pos] == ":":
            self._take()
            length = float(self._take())
        return [name, children, length]

    def _collect(self, node):
        if not node[1]:
            self.leaves.append(node[0])
        for child in node[1]:
            self._collect(child)

    def splits(self, order):
        """(leaf lengths by taxon index, {inner split mask: length}).

        `order` lists the taxa, outgroup first; a split is the mask of the
        side without the outgroup, as the program writes splits."""
        index = {name: i for i, name in enumerate(order)}
        full = (1 << len(order)) - 1
        leaf = [0.0] * len(order)
        inner: dict[int, float] = {}

        def walk(node, is_root):
            name, children, length = node
            mask = 0
            for child in children:
                mask |= walk(child, False)
            if not children:
                mask = 1 << index[name]
            if not is_root:
                side = full ^ mask if mask & 1 else mask
                size = bin(side).count("1")
                if size == 1:
                    leaf[side.bit_length() - 1] += length
                elif size == len(order) - 1:
                    leaf[0] += length
                else:
                    inner[side] = inner.get(side, 0.0) + length
            return mask

        walk(self.root, True)
        return leaf, inner


def canonical_order(names, outgroup):
    return [outgroup] + sorted(n for n in names if n != outgroup)


def compatible(a: int, b: int) -> bool:
    meet = a & b
    return meet == 0 or meet == a or meet == b


def check_binary_tree(text: str, order) -> list[str]:
    """A valid binary tree over exactly `order`, all lengths positive."""
    try:
        tree = NewickTree(text)
    except (ValueError, IndexError) as exc:
        return [f"unreadable Newick ({exc}): {text[:60]}"]
    if sorted(tree.leaves) != sorted(order):
        return [f"taxa {sorted(tree.leaves)} differ from the alignment's"]
    problems = []
    leaf, inner = tree.splits(order)
    if len(inner) != len(order) - 3:
        problems.append(f"{len(inner)} inner splits, a binary tree has {len(order) - 3}")
    masks = sorted(inner)
    for i, a in enumerate(masks):
        for b in masks[i + 1 :]:
            if not compatible(a, b):
                problems.append(f"incompatible splits {a:b} and {b:b}")
    for length in leaf + list(inner.values()):
        if not (math.isfinite(length) and length > 0.0):
            problems.append(f"edge length {length!r}")
    return problems


def read_samples(path) -> tuple[list[str], list[str]]:
    """(comment lines, Newick lines) of a samples file."""
    comments, trees = [], []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line.startswith("#"):
                comments.append(line)
            elif line:
                trees.append(line)
    return comments, trees


def relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# sample: samples file and trace


def check_sample_outputs(prefix, names, outgroup, chains, iters, burnin, thin) -> list[str]:
    order = canonical_order(names, outgroup)
    comments, trees = read_samples(f"{prefix}.samples")
    kept = -(-(iters - burnin) // thin)
    problems = []
    if len(trees) != chains * kept:
        problems.append(f"{len(trees)} samples, expected {chains} x {kept}")
    expected = [
        f"# chain={c} iter={burnin + 1 + k * thin}" for c in range(chains) for k in range(kept)
    ]
    if comments != expected:
        problems.append("sample comments do not name chains and kept iterations in order")
    for number, text in enumerate(trees):
        for problem in check_binary_tree(text, order):
            problems.append(f"sample {number}: {problem}")
    with open(f"{prefix}.trace.csv") as handle:
        rows = list(csv.DictReader(handle))
    expected = [(str(c), str(i)) for c in range(chains) for i in range(1, iters + 1)]
    if [(r["chain"], r["iteration"]) for r in rows] != expected:
        problems.append(f"trace rows are not chains 0..{chains - 1} x iterations 1..{iters}")
    return problems


def final_states(prefix, chains, iters) -> list[tuple[str, float]]:
    """(final tree, traced log posterior) per chain, from outputs that
    passed check_sample_outputs; with thin 1 the last iteration is kept."""
    _, trees = read_samples(f"{prefix}.samples")
    per_chain = len(trees) // chains
    with open(f"{prefix}.trace.csv") as handle:
        rows = list(csv.DictReader(handle))
    return [
        (trees[(c + 1) * per_chain - 1], float(rows[(c + 1) * iters - 1]["log_posterior"]))
        for c in range(chains)
    ]


def check_log_posterior(traced: float, recomputed: float, rel: float = 1e-9) -> list[str]:
    if relative_gap(traced, recomputed) > rel:
        return [f"traced log posterior {traced!r} != recomputed {recomputed!r}"]
    return []


def mc_log_likelihood(text, fasta_records, alpha, draws, rng, chunk=5000):
    """Numeric pruning of every distinct column, averaged over Dirichlet
    draws of the stationary distribution: (log likelihood, standard error).
    The draws are taken `chunk` at a time, so memory stays small."""
    tree = NewickTree(text)
    rows = dict(fasta_records)
    patterns: dict[str, int] = {}
    length = len(next(iter(rows.values())))
    names = list(rows)
    for i in range(length):
        column = "".join(rows[n][i] for n in names)
        patterns[column] = patterns.get(column, 0) + 1
    columns = list(patterns)
    below = _leaves_below(tree.root, {})
    # per column: the sum and the sum of squares of the per-draw likelihoods
    sums = np.zeros(len(columns))
    squares = np.zeros(len(columns))
    for start in range(0, draws, chunk):
        theta = rng.dirichlet([alpha] * len(ALPHABET), size=min(chunk, draws - start))
        # an edge's factor depends only on the states of the leaves below
        # it, which many columns share
        factors: dict = {}
        for j, column in enumerate(columns):
            states = dict(zip(names, column))
            values = _pruned(tree.root, theta, states, below, factors)
            sums[j] += values.sum()
            squares[j] += (values * values).sum()
    total = 0.0
    variance = 0.0
    for j, column in enumerate(columns):
        mean = sums[j] / draws
        std = math.sqrt(max(squares[j] / draws - mean * mean, 0.0))
        total += patterns[column] * math.log(mean)
        variance += (patterns[column] * std / math.sqrt(draws) / mean) ** 2
    return total, math.sqrt(variance)


def _leaves_below(node, out) -> dict:
    """{id(node): names of the leaves below it} for the subtree."""
    name, children, _ = node
    out[id(node)] = [name] if not children else [
        leaf for child in children for leaf in _leaves_below(child, out)[id(child)]]
    return out


def _pruned(root, theta, states, below, factors):
    """Likelihood of one column under each row of stationary distributions."""

    def partial(node):
        name, children, _ = node
        if not children:
            vec = np.zeros(theta.shape)
            vec[:, ALPHABET.index(states[name])] = 1.0
            return vec
        out = np.ones(theta.shape)
        for child in children:
            out *= factor(child)
        return out

    def factor(child):
        key = (id(child), tuple(states[leaf] for leaf in below[id(child)]))
        if key not in factors:
            vec = partial(child)
            mut = -math.expm1(-child[2])
            mixed = (theta * vec).sum(axis=1, keepdims=True)
            factors[key] = (1.0 - mut) * vec + mut * mixed
        return factors[key]

    return (theta * partial(root)).sum(axis=1)


def check_mc_likelihood(program: float, estimate: float, error: float, sigmas=6.0) -> list[str]:
    if abs(program - estimate) > sigmas * error:
        return [
            f"log likelihood {program:.6f} vs numeric pruning {estimate:.6f} "
            f"+- {error:.4f}: {abs(program - estimate) / error:.1f} standard errors "
            f"(> {sigmas:g})"
        ]
    return []


# ---------------------------------------------------------------------------
# consensus and splits


def count_splits(texts, order):
    """({split mask: its lengths}, [leaf edge lengths per taxon]) over the trees."""
    seen: dict[int, list[float]] = {}
    leaf_values = [[] for _ in order]
    for text in texts:
        leaf, inner = NewickTree(text).splits(order)
        for mask, length in inner.items():
            seen.setdefault(mask, []).append(length)
        for i, length in enumerate(leaf):
            leaf_values[i].append(length)
    return seen, leaf_values


def check_consensus(consensus_text, sample_texts, order, rel=1e-12) -> list[str]:
    seen, leaf_values = count_splits(sample_texts, order)
    count = len(sample_texts)
    majority = {m: math.fsum(v) / len(v) for m, v in seen.items() if 2 * len(v) > count}
    leaf, inner = NewickTree(consensus_text).splits(order)
    problems = []
    if set(inner) != set(majority):
        problems.append(
            f"consensus splits {sorted(inner)} != majority splits {sorted(majority)}"
        )
    for mask in set(inner) & set(majority):
        if relative_gap(inner[mask], majority[mask]) > rel:
            problems.append(f"split {mask:b}: length {inner[mask]!r} != mean {majority[mask]!r}")
    for i, values in enumerate(leaf_values):
        if relative_gap(leaf[i], math.fsum(values) / count) > rel:
            problems.append(f"leaf {order[i]}: length {leaf[i]!r} is not the mean")
    return problems


def check_splits_csv(csv_path, sample_texts, order, bins=50, rel=1e-12) -> list[str]:
    seen, _ = count_splits(sample_texts, order)
    count = len(sample_texts)
    rows: dict[int, list[dict]] = {}
    with open(csv_path) as handle:
        for row in csv.DictReader(handle):
            mask = sum(1 << int(i) for i in row["split"].split("|"))
            rows.setdefault(mask, []).append(row)
    problems = []
    if set(rows) != set(seen):
        problems.append(f"{len(rows)} splits in the CSV, {len(seen)} in the samples")
    for mask in set(rows) & set(seen):
        values = seen[mask]
        group = rows[mask]
        frequency = float(group[0]["frequency"])
        if frequency != len(values) / count:
            problems.append(f"split {mask:b}: frequency {frequency!r} != {len(values)}/{count}")
        if relative_gap(float(group[0]["mean_length"]), math.fsum(values) / len(values)) > rel:
            problems.append(f"split {mask:b}: mean length is not the mean")
        if len(group) != bins or sum(int(r["count"]) for r in group) != len(values):
            problems.append(f"split {mask:b}: histogram does not hold its {len(values)} lengths")
    return problems


# ---------------------------------------------------------------------------
# mean and median, held to the properties that define them


def mean_tolerance(objective, first_gap, steps, sigmas=3.0):
    """Distance from the true mean that `steps` proximal steps justify.

    With step 1/(i+2) the walk is Sturm's inductive mean of its start and
    `steps` uniform draws from the inputs, whose expected squared distance
    to the mean is at most the variance over the number of points (the
    fixed start adds its own squared distance).  `sigmas` is the margin."""
    return sigmas * math.sqrt((objective + first_gap**2) / (steps + 1))


def check_mean(reported_variance, to_estimate, at_inputs, steps) -> list[str]:
    """F(mean) <= F(T_i) and F(T_i) >= F(mean) + d(T_i, mean)^2 within the
    tolerance the step count justifies; F is the mean squared distance."""
    objective = sum(d * d for d in to_estimate) / len(to_estimate)
    problems = []
    if relative_gap(objective, reported_variance) > 1e-9:
        problems.append(f"reported variance {reported_variance!r} != {objective!r}")
    # the walk starts at the first input tree
    delta = mean_tolerance(objective, to_estimate[0], steps)
    spread = math.sqrt(objective)
    for i, (f_i, _) in sorted(at_inputs.items()):
        d_i = to_estimate[i]
        if objective > f_i + delta * (2 * spread + delta):
            problems.append(f"F(mean) {objective:.6g} > F(input {i}) {f_i:.6g}")
        slack = f_i - objective - d_i * d_i
        if slack < -delta * (2 * spread + 2 * d_i + 2 * delta):
            problems.append(
                f"variance inequality fails at input {i}: "
                f"F(T)={f_i:.6g} < F(mean)+d^2={objective + d_i * d_i:.6g}"
            )
    return problems


def median_tolerance(steps, last_steps=5.0):
    """Objective excess that `steps` proximal steps leave room for.

    Step i moves the median iterate by at most 1/(i+1) toward the drawn
    input, so after `steps` steps the walk still hovers around the
    minimizer by a few steps of that size; the summed distance is
    1-Lipschitz, so its excess is at most that distance.  A median of
    posterior samples often sits exactly on a repeated sample, where no
    finite walk reaches an objective below that sample's."""
    return last_steps / (steps + 1)


def check_median(to_estimate, at_points, steps) -> list[str]:
    """The mean distance at the median is no larger than at any test
    point, within the tolerance the step count justifies.  Any tree is a
    valid test point: the inputs, and points a quarter of the way from the
    median toward an input, which a median that is off-centre loses to."""
    objective = sum(to_estimate) / len(to_estimate)
    tolerance = median_tolerance(steps)
    return [
        f"median objective {objective:.6g} > {m_x:.6g} + {tolerance:.3g} at {label}"
        for label, m_x in at_points
        if objective > m_x + tolerance
    ]


def read_estimate(path) -> tuple[str, float]:
    """(Newick line, variance) of a mean/median output."""
    with open(path) as handle:
        lines = [line.strip() for line in handle if line.strip()]
    if len(lines) != 2 or not lines[1].startswith("# variance="):
        raise ValueError(f"{path}: expected a Newick line and a '# variance=' line")
    return lines[0], float(lines[1].split("=", 1)[1])


def check_oracle_distances(pairs, distance, oracle, rel=1e-9) -> list[str]:
    problems = []
    for a, b in pairs:
        got, want = distance(a, b), oracle(a, b)
        if abs(got - want) > rel * max(want, 1.0):
            problems.append(f"distance {got!r} != brute-force {want!r}")
    return problems
