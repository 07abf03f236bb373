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
    lengths: dict[Split, list[float]] = {}
    for tree in samples:
        for split, length in tree.inner.items():
            lengths.setdefault(split, []).append(length)
    records = []
    for split in sorted(lengths):
        values = lengths[split]
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


def consensus_majority(samples) -> Tree:
    """Majority-rule consensus: splits in strictly more than half the samples.

    Inner lengths average over the samples containing the split; leaf
    lengths average over all samples.  Majority splits are always
    mutually compatible, so the result is a valid (possibly non-binary)
    tree.
    """
    taxa = common_taxa(samples)
    count = len(samples)
    lengths: dict[Split, list[float]] = {}
    for tree in samples:
        for split, length in tree.inner.items():
            lengths.setdefault(split, []).append(length)
    # fsum keeps the averages exactly permutation invariant
    inner = {
        split: math.fsum(values) / len(values)
        for split, values in lengths.items()
        if len(values) * 2 > count
    }
    leaf_lengths = tuple(
        math.fsum(tree.leaf_lengths[i] for tree in samples) / count
        for i in range(taxa.size)
    )
    return check(Tree(taxa, leaf_lengths, inner))


@dataclass(frozen=True)
class ComparisonRow:
    split: Split
    consensus_length: float | None
    mean_length: float | None

    @property
    def difference(self) -> float | None:
        if self.consensus_length is None or self.mean_length is None:
            return None
        return self.consensus_length - self.mean_length


@dataclass(frozen=True)
class ComparisonReport:
    shared: tuple[ComparisonRow, ...]
    consensus_only: tuple[ComparisonRow, ...]
    mean_only: tuple[ComparisonRow, ...]

    def rows(self) -> list[ComparisonRow]:
        return list(self.shared) + list(self.consensus_only) + list(self.mean_only)


def compare_mean_consensus(
    samples, mean_tree: Tree, consensus_tree: Tree
) -> ComparisonReport:
    """Length comparison between consensus and mean, split by split."""
    common_taxa([*samples, mean_tree, consensus_tree])
    shared = []
    consensus_only = []
    mean_only = []
    for split in sorted(set(consensus_tree.inner) | set(mean_tree.inner)):
        in_consensus = split in consensus_tree.inner
        in_mean = split in mean_tree.inner
        row = ComparisonRow(
            split=split,
            consensus_length=consensus_tree.inner.get(split),
            mean_length=mean_tree.inner.get(split),
        )
        if in_consensus and in_mean:
            shared.append(row)
        elif in_consensus:
            consensus_only.append(row)
        else:
            mean_only.append(row)
    return ComparisonReport(tuple(shared), tuple(consensus_only), tuple(mean_only))


def render_report(report: ComparisonReport, taxa) -> str:
    """Plain text table of the comparison."""

    def name(split: Split) -> str:
        return "|".join(taxa.names[i] for i in split.indices())

    def fmt(value) -> str:
        return f"{value:.6g}" if value is not None else "-"

    lines = [f"{'split':<40} {'consensus':>12} {'mean':>12} {'diff':>12}"]
    for row in report.rows():
        diff = row.difference
        lines.append(
            f"{name(row.split):<40} {fmt(row.consensus_length):>12} "
            f"{fmt(row.mean_length):>12} {fmt(diff):>12}"
        )
    return "\n".join(lines)


def stats_csv_lines(records) -> list[str]:
    """CSV rows split,frequency,mean_length,bin_lo,bin_hi,count (one per bin)."""
    lines = ["split,frequency,mean_length,bin_lo,bin_hi,count"]
    for record in records:
        label = "|".join(str(i) for i in record.split.indices())
        for k, count in enumerate(record.counts):
            lines.append(
                f"{label},{record.frequency:.17g},{record.mean_length:.17g},"
                f"{record.bin_edges[k]:.17g},{record.bin_edges[k + 1]:.17g},{count}"
            )
    return lines
