"""Posterior summaries over tree samples.

Split frequencies with per-split length histograms, the majority-rule
consensus tree (splits in more than half of the samples, strictly), and
a comparison table between a consensus tree and a Fréchet mean over the
same samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .treespace import Split, Tree, check, common_taxa

DEFAULT_BINS = 50


@dataclass(frozen=True)
class SplitStats:
    split: Split
    frequency: float
    mean_length: float
    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]


def split_frequencies(samples, bins: int = DEFAULT_BINS) -> list[SplitStats]:
    """Per-split sample frequency, mean length, and a length histogram.

    Histograms use `bins` uniform bins over [0, max observed length of
    that split].  Records are ordered by descending frequency, then mask.
    """
    common_taxa(samples)
    if bins < 1:
        raise ValueError("bins must be positive")
    records = []
    for split, values in _split_lengths(samples).items():
        top = max(values)
        edges = [top * i / bins for i in range(bins + 1)]
        counts = [0] * bins
        for value in values:
            index = min(int(value / top * bins), bins - 1) if top > 0 else 0
            counts[index] += 1
        records.append(
            SplitStats(
                split=split,
                frequency=len(values) / len(samples),
                mean_length=math.fsum(values) / len(values),
                bin_edges=tuple(edges),
                counts=tuple(counts),
            )
        )
    records.sort(key=lambda r: (-r.frequency, r.split))
    return records


def _split_lengths(samples) -> dict[Split, list[float]]:
    """The lengths each split has in the samples that contain it."""
    lengths: dict[Split, list[float]] = {}
    for tree in samples:
        for split, length in tree.inner.items():
            lengths.setdefault(split, []).append(length)
    return lengths


def consensus_majority(samples) -> Tree:
    """Majority-rule consensus: splits in strictly more than half the samples.

    Inner lengths average over the samples containing the split; leaf
    lengths average over all samples.  Majority splits are always
    mutually compatible, so the result is a valid (possibly non-binary)
    tree.
    """
    taxa = common_taxa(samples)
    count = len(samples)
    # fsum keeps the averages exactly permutation invariant
    inner = {
        split: math.fsum(values) / len(values)
        for split, values in _split_lengths(samples).items()
        if len(values) * 2 > count
    }
    leaf_lengths = tuple(
        math.fsum(tree.leaf_lengths[i] for tree in samples) / count
        for i in range(taxa.size)
    )
    return check(Tree(taxa, leaf_lengths, inner))


def compare_mean_consensus(
    samples, mean_tree: Tree, consensus_tree: Tree
) -> list[tuple[Split, float | None, float | None]]:
    """Rows (split, consensus length, mean length), None where a tree lacks
    the split: shared splits, then consensus-only, then mean-only, by mask."""
    common_taxa([*samples, mean_tree, consensus_tree])
    rows = [
        (split, consensus_tree.inner.get(split), mean_tree.inner.get(split))
        for split in set(consensus_tree.inner) | set(mean_tree.inner)
    ]
    rows.sort(key=lambda row: (row[1] is None, row[2] is None, row[0]))
    return rows


def render_report(rows, taxa) -> str:
    """Plain text table of the comparison rows."""

    def name(split: Split) -> str:
        return "|".join(taxa.names[i] for i in split.indices())

    def fmt(value) -> str:
        return f"{value:.6g}" if value is not None else "-"

    labels = [name(split) for split, _, _ in rows]
    width = max(map(len, ["split", *labels]))
    lines = [f"{'split':<{width}} {'consensus':>12} {'mean':>12} {'diff':>12}"]
    for label, (_, consensus_length, mean_length) in zip(labels, rows):
        diff = None
        if consensus_length is not None and mean_length is not None:
            diff = consensus_length - mean_length
        lines.append(
            f"{label:<{width}} {fmt(consensus_length):>12} "
            f"{fmt(mean_length):>12} {fmt(diff):>12}"
        )
    return "\n".join(lines)


def stats_csv_lines(records) -> list[str]:
    """CSV rows split,frequency,mean_length,bin_lo,bin_hi,count (one per bin)."""
    lines = ["split,frequency,mean_length,bin_lo,bin_hi,count"]
    for record in records:
        label = "|".join(map(str, record.split.indices()))
        head = f"{label},{record.frequency:.17g},{record.mean_length:.17g},"
        edges = [f"{edge:.17g}" for edge in record.bin_edges]
        lines += [
            f"{head}{lo},{hi},{count}"
            for lo, hi, count in zip(edges, edges[1:], record.counts)
        ]
    return lines
