"""The checks of one round's outputs, per operation, for each workload.

checks.py holds the checks themselves; this module feeds them the
workload's files and the program functions they compare against
(`log_posterior`, `log_likelihood`, `distance`), imported from the
checkout's src/ and the brute-force oracle from its tests/.

A check that cannot read an output (a missing file, a malformed tree or
estimate) reports that as a problem of its operation instead of raising,
so that a broken program still yields a counted result.
"""

from __future__ import annotations

import importlib.util
import os

import numpy as np

import checks
import inputs

# the numeric-pruning estimate's standard error is about 0.02 (5 taxa) and
# 0.04 (8 taxa) in log likelihood with this many Dirichlet draws
MC_DRAWS = 200_000
ORACLE_PAIRS = 12
# where the median's extra test points lie, from the median toward an input
TOWARD_INPUT = 0.25


def _program():
    import bhvphylo
    from bhvphylo.cli import alignment_from_fasta

    return bhvphylo, alignment_from_fasta


def _oracle():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.brute_force_distance


def guarded(check, *args) -> list[str]:
    """The problems `check` finds, or the reason it could not run."""
    try:
        return check(*args)
    except Exception as exc:  # a malformed or missing output
        return [f"output cannot be checked: {type(exc).__name__}: {exc}"]


def sample(workload, instance, prefix) -> list[str]:
    return guarded(_sample, workload, instance, prefix)


def _sample(workload, instance, prefix) -> list[str]:
    """Samples and trace; every chain's final log posterior recomputed;
    the first chain's final likelihood against numeric pruning."""
    fasta, chains = instance["fasta"], workload.CHAINS
    records = inputs.read_fasta(fasta)
    names = [name for name, _ in records]
    problems = checks.check_sample_outputs(
        prefix, names, "O", chains, workload.ITERS, workload.BURNIN, 1)
    if problems:
        return problems
    bhvphylo, alignment_from_fasta = _program()
    alignment = alignment_from_fasta(fasta, "O")
    dirichlet, gamma = bhvphylo.DirichletPrior(), bhvphylo.GammaPrior()
    finals = checks.final_states(prefix, chains, workload.ITERS)
    for text, traced in finals:
        tree = bhvphylo.parse_newick(text, taxa=alignment.taxa)
        recomputed = bhvphylo.log_posterior(tree, alignment, dirichlet, gamma)
        problems += checks.check_log_posterior(traced, recomputed)
    text = finals[0][0]
    tree = bhvphylo.parse_newick(text, taxa=alignment.taxa)
    estimate, error = checks.mc_log_likelihood(
        text, records, dirichlet.alpha[0], MC_DRAWS, np.random.default_rng(instance["seed"]))
    problems += checks.check_mc_likelihood(
        bhvphylo.log_likelihood(tree, alignment, dirichlet), estimate, error)
    return problems


def checked_inputs(to_mean, to_median, count, rng) -> list[int]:
    """Inputs at which the estimators are held to their properties: those
    nearest each estimate, where an input is likeliest to beat it, plus
    seeded draws among the rest."""
    nearest = set(np.argsort(to_mean)[: count // 4]) | set(np.argsort(to_median)[: count // 4])
    rest = [i for i in range(len(to_mean)) if i not in nearest]
    drawn = rng.choice(len(rest), size=min(len(rest), count - len(nearest)), replace=False)
    return sorted(int(i) for i in nearest | {rest[j] for j in drawn})


SUMMARY_OPS = ("mean", "median", "consensus", "splits")


def summaries(workload, instance, samples_path, outputs, every_input, oracle) -> dict:
    """Problems of the mean, median, consensus and splits operations.

    `outputs` names the standard output of each operation that exited 0;
    the others are failed already and are not checked."""
    ops = [op for op in SUMMARY_OPS if op in outputs]
    try:
        _, texts = checks.read_samples(samples_path)
        order = checks.canonical_order(checks.NewickTree(texts[0]).leaves, "O")
        bhvphylo, _ = _program()
        trees = [bhvphylo.parse_newick(text, outgroup="O") for text in texts]
    except Exception as exc:  # the samples these operations read
        return {op: [f"samples cannot be read: {type(exc).__name__}: {exc}"] for op in ops}
    problems = {}
    if "consensus" in outputs:
        problems["consensus"] = guarded(_consensus, outputs["consensus"], texts, order)
    if "splits" in outputs:
        problems["splits"] = guarded(checks.check_splits_csv, outputs["splits"], texts, order)
    rng = np.random.default_rng(instance["seed"])
    if "mean" in outputs and "median" in outputs:
        try:
            problems.update(_estimators(workload, bhvphylo, trees, outputs,
                                        every_input, oracle, rng))
        except Exception as exc:  # either estimate unreadable
            reason = f"estimates cannot be checked: {type(exc).__name__}: {exc}"
            problems.update(mean=[reason], median=[reason])
    else:  # the inputs to check at depend on both estimates
        problems.update({op: ["not checked: the other estimator failed"]
                         for op in ("mean", "median") if op in outputs})
    return problems


def _consensus(path, texts, order) -> list[str]:
    with open(path) as handle:
        consensus = handle.read().strip()
    return checks.check_consensus(consensus, texts, order)


def _estimators(workload, bhvphylo, trees, outputs, every_input, oracle, rng) -> dict:
    mean_text, mean_variance = checks.read_estimate(outputs["mean"])
    median_text, median_variance = checks.read_estimate(outputs["median"])
    mean = bhvphylo.parse_newick(mean_text, taxa=trees[0].taxa)
    median = bhvphylo.parse_newick(median_text, taxa=trees[0].taxa)
    distance = bhvphylo.distance
    to_mean = [distance(mean, t) for t in trees]
    to_median = [distance(median, t) for t in trees]
    if every_input:
        indices = list(range(len(trees)))
    else:
        indices = checked_inputs(to_mean, to_median, workload.CHECKED_INPUTS, rng)
    at_inputs = {}
    for i in indices:
        row = [distance(trees[i], t) for t in trees]
        at_inputs[i] = (sum(d * d for d in row) / len(row), sum(row) / len(row))
    at_points = [(f"input {i}", m_i) for i, (_, m_i) in sorted(at_inputs.items())]
    for i in indices:
        point = bhvphylo.interpolate(median, trees[i], TOWARD_INPUT)
        at_points.append((f"{TOWARD_INPUT:g} of the way to input {i}",
                          sum(distance(point, t) for t in trees) / len(trees)))
    problems = {
        "mean": checks.check_mean(mean_variance, to_mean, at_inputs, workload.STEPS),
        "median": checks.check_median(to_median, at_points, workload.STEPS),
    }
    median_objective = sum(d * d for d in to_median) / len(to_median)
    if checks.relative_gap(median_objective, median_variance) > 1e-9:
        problems["median"].append(
            f"reported variance {median_variance!r} != {median_objective!r}")
    if oracle:
        picks = rng.choice(len(trees), size=(ORACLE_PAIRS, 2))
        pairs = [(trees[a], trees[b]) for a, b in picks]
        pairs += [(mean, trees[a]) for a, _ in picks[:3]]
        pairs += [(median, trees[b]) for _, b in picks[:3]]
        problems["mean"] += checks.check_oracle_distances(pairs, distance, _oracle())
    return problems
