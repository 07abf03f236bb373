import itertools
import math

import numpy as np
import pytest

from bhvphylo.frechet import EstimatorConfig, mean
from bhvphylo.summary import (
    DEFAULT_BINS,
    compare_mean_consensus,
    consensus_majority,
    render_report,
    split_frequencies,
    stats_csv_lines,
)
from bhvphylo.treespace import TaxonTable, Tree, compatible, validate

from conftest import make_taxa, random_tree, spider_tree, split_of, trees_close
from oracles import euclidean_mean_tree_vectors, length_vector


def spider_samples(counts_by_ray, length=0.5):
    samples = []
    for ray, count in counts_by_ray.items():
        samples.extend(spider_tree(set(ray), length) for _ in range(count))
    return samples


class TestSplitFrequencies:
    def test_constant_samples(self, rng):
        tree = random_tree(make_taxa(5), rng)
        records = split_frequencies([tree] * 8)
        assert {r.split for r in records} == set(tree.inner)
        assert all(r.frequency == 1.0 for r in records)
        for r in records:
            assert r.mean_length == pytest.approx(tree.inner[r.split], abs=1e-15)

    def test_even_bimodality(self):
        samples = spider_samples({(1, 2): 10, (1, 3): 10})
        records = split_frequencies(samples)
        assert [r.frequency for r in records] == [0.5, 0.5]
        assert {r.split for r in records} == {
            split_of({1, 2}, 4),
            split_of({1, 3}, 4),
        }

    def test_incompatible_family_frequencies_sum_below_one(self, rng):
        # splits replacing one another are mutually exclusive per sample
        samples = []
        for _ in range(60):
            samples.append(random_tree(make_taxa(5), rng, drop_probability=0.2))
        records = {r.split: r for r in split_frequencies(samples)}
        splits = sorted(records)
        for a, b in itertools.combinations(splits, 2):
            if not compatible(a, b):
                assert records[a].frequency + records[b].frequency <= 1.0 + 1e-12

    def test_histogram_mass_equals_frequency_times_count(self, rng):
        samples = [random_tree(make_taxa(5), rng, drop_probability=0.3) for _ in range(40)]
        for record in split_frequencies(samples):
            assert sum(record.counts) == round(record.frequency * len(samples))

    def test_bin_count_flag(self):
        samples = spider_samples({(1, 2): 4})
        records = split_frequencies(samples, bins=7)
        assert len(records[0].counts) == 7
        assert len(records[0].bin_edges) == 8

    def test_bin_edges_of_lengths_near_the_float_limit_are_finite(self):
        taxa = TaxonTable(("O", "A", "B", "C", "D"))
        samples = [
            Tree(taxa, (0.1,) * 5, {split_of({1, 2}, 5): length}) for length in (1e307, 5e306)
        ]
        (record,) = split_frequencies(samples)
        edges = record.bin_edges
        assert all(map(math.isfinite, edges))
        assert edges[0] == 0.0 and edges[-1] == 1e307
        assert list(edges) == sorted(edges)
        assert sum(record.counts) == 2 and record.counts[-1] == 1

    def test_bin_edges_are_top_times_i_over_bins_while_top_times_bins_is_finite(self, rng):
        for top in [rng.uniform(0.01, 10.0) for _ in range(20)] + [1e306, 3.5e306]:
            samples = spider_samples({(1, 2): 1}, length=top)
            (record,) = split_frequencies(samples)
            assert record.bin_edges == tuple(
                top * i / DEFAULT_BINS for i in range(DEFAULT_BINS + 1)
            )

    def test_ordering_by_frequency_then_mask(self):
        samples = spider_samples({(1, 2): 3, (1, 3): 7})
        records = split_frequencies(samples)
        assert records[0].split == split_of({1, 3}, 4)
        assert records[1].split == split_of({1, 2}, 4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            split_frequencies([])


class TestConsensus:
    def test_constant_samples(self, rng):
        tree = random_tree(make_taxa(5), rng)
        result = consensus_majority([tree] * 5)
        assert trees_close(result, tree, tol=1e-15)

    def test_three_way_conflict_gives_polytomy(self):
        samples = spider_samples({(1, 2): 40, (1, 3): 35, (2, 3): 25})
        result = consensus_majority(samples)
        assert result.inner == {}

    def test_exact_half_excluded(self):
        samples = spider_samples({(1, 2): 10, (1, 3): 10})
        assert consensus_majority(samples).inner == {}

    def test_majority_split_keeps_average_length(self):
        a = spider_tree({1, 2}, 0.4)
        b = spider_tree({1, 2}, 0.6)
        c = spider_tree({1, 3}, 0.9)
        result = consensus_majority([a, b, c])
        assert result.inner == {split_of({1, 2}, 4): pytest.approx(0.5)}

    def test_split_in_every_sample_keeps_its_mean_everywhere(self, rng):
        # a split carried by all samples has the same length in the
        # consensus and in the per-split statistics
        taxa = make_taxa(5)
        keep = split_of({1, 2}, 5)
        samples = []
        for _ in range(20):
            other = split_of({3, 4}, 5) if rng.random() < 0.5 else split_of({1, 2, 3}, 5)
            samples.append(
                Tree(
                    taxa,
                    tuple(rng.uniform(0.05, 0.3) for _ in range(5)),
                    {keep: rng.uniform(0.2, 0.4), other: 0.1},
                )
            )
        consensus = consensus_majority(samples)
        stats = {r.split: r for r in split_frequencies(samples)}
        assert stats[keep].frequency == 1.0
        assert consensus.inner[keep] == pytest.approx(stats[keep].mean_length, abs=1e-12)

    def test_permutation_invariance(self, rng):
        samples = [random_tree(make_taxa(5), rng, drop_probability=0.3) for _ in range(15)]
        shuffled = list(samples)
        rng.shuffle(shuffled)
        assert consensus_majority(samples) == consensus_majority(shuffled)

    def test_leaf_lengths_average_over_all_samples(self):
        a = spider_tree({1, 2}, 0.5, leaf_length=0.1)
        b = spider_tree({1, 2}, 0.5, leaf_length=0.3)
        result = consensus_majority([a, b])
        assert result.leaf_lengths == (pytest.approx(0.2),) * 4

    def test_single_orthant_consensus_equals_means(self, rng):
        taxa = make_taxa(6)
        splits = sorted(random_tree(taxa, rng).inner)
        samples = []
        for _ in range(60):
            leaf = tuple(rng.uniform(0.05, 0.3) for _ in range(taxa.size))
            inner = {s: rng.uniform(0.05, 0.3) for s in splits}
            samples.append(Tree(taxa, leaf, inner))
        consensus = consensus_majority(samples)
        frechet = mean(samples, EstimatorConfig(seed=12))
        euclid = euclidean_mean_tree_vectors(samples)
        assert np.abs(length_vector(consensus, splits) - euclid).max() < 1e-9
        assert np.abs(length_vector(frechet, splits) - euclid).max() < 1e-3

    def test_result_is_valid(self, rng):
        samples = [random_tree(make_taxa(6), rng, drop_probability=0.4) for _ in range(25)]
        assert validate(consensus_majority(samples)) == []


class TestCompareMeanConsensus:
    def test_constant_samples_no_differences(self, rng):
        tree = random_tree(make_taxa(5), rng)
        rows = compare_mean_consensus([tree] * 4, tree, tree)
        assert [split for split, _, _ in rows] == sorted(tree.inner)
        assert all(None not in (c, m) and c - m == 0.0 for _, c, m in rows)

    def test_sixty_forty_shortens_the_mean_edge(self):
        samples = spider_samples({(1, 2): 60, (1, 3): 40}, length=0.5)
        consensus = consensus_majority(samples)
        frechet = mean(samples, EstimatorConfig(seed=3, iterations=10_000))
        split = split_of({1, 2}, 4)
        assert consensus.inner[split] == pytest.approx(0.5, abs=1e-12)
        # minimizer of 0.6 (x - 0.5)^2 + 0.4 (x + 0.5)^2 on the spider
        assert frechet.inner[split] == pytest.approx(0.1, abs=2e-2)
        rows = compare_mean_consensus(samples, frechet, consensus)
        _, consensus_length, mean_length = next(r for r in rows if r[0] == split)
        assert mean_length < consensus_length

    def test_polytomy_splits_show_up_as_mean_only(self):
        samples = spider_samples({(1, 2): 40, (1, 3): 35, (2, 3): 25}, length=0.5)
        consensus = consensus_majority(samples)
        frechet = mean(samples, EstimatorConfig(seed=4, iterations=10_000))
        rows = compare_mean_consensus(samples, frechet, consensus)
        assert consensus.inner == {}
        if frechet.inner:
            assert {split for split, c, m in rows if c is None} == set(frechet.inner)

    def test_render_report(self, rng):
        tree = random_tree(make_taxa(5), rng)
        rows = compare_mean_consensus([tree] * 3, tree, tree)
        text = render_report(rows, tree.taxa)
        assert "consensus" in text.splitlines()[0]
        assert len(text.splitlines()) == 1 + len(tree.inner)

    def test_render_report_pads_to_the_longest_label(self, rng):
        taxa = TaxonTable(tuple(f"taxon_{i:02d}_label" for i in range(16)))
        tree = random_tree(taxa, rng)
        rows = compare_mean_consensus([tree] * 3, tree, tree)
        lines = render_report(rows, taxa).splitlines()
        labels = [
            "|".join(taxa.names[i] for i in range(taxa.size) if split >> i & 1)
            for split, _, _ in rows
        ]
        width = max(map(len, labels))
        assert width > 40
        # every column ends at the same offset on every line
        assert len({len(line) for line in lines}) == 1
        assert lines[0].startswith("split".ljust(width) + " ")
        for label, line in zip(labels, lines[1:]):
            assert line.startswith(label.ljust(width) + " ")


class TestCsv:
    def test_row_count_is_splits_times_bins(self, rng):
        samples = [random_tree(make_taxa(5), rng) for _ in range(10)]
        records = split_frequencies(samples, bins=12)
        lines = stats_csv_lines(records)
        assert lines[0] == "split,frequency,mean_length,bin_lo,bin_hi,count"
        assert len(lines) == 1 + 12 * len(records)
