import gc
import math
import random
import weakref

import numpy as np
import pytest

from bhvphylo import phylo_model
from bhvphylo.phylo_model import (
    Alignment,
    ColumnLikelihoodError,
    DirichletPrior,
    GAP,
    GammaPrior,
    encode_symbol,
    log_likelihood,
    log_posterior,
    log_prior,
    mutation_prob,
)
from bhvphylo.mcmc import ProposalConfig, RunConfig, nni_neighbors, run
from bhvphylo.treespace import TaxonTable, Tree, tree_topology

from conftest import (
    column_poly,
    dirichlet_draws,
    dirichlet_moment,
    make_taxa,
    random_tree,
    split_of,
)
from oracles import (
    evaluate_terms,
    pruning_likelihood_vectorized,
    raw_theta_log_likelihood,
    reference_log_likelihood,
    state_enumeration_likelihood,
)


def random_column(rng, size):
    return tuple(rng.randrange(5) for _ in range(size))


def shared_base_column(rng, size, share=0.7):
    """Each symbol is one common base with probability `share`, else uniform."""
    base = rng.randrange(5)
    return tuple(
        base if rng.random() < share else rng.randrange(5) for _ in range(size)
    )


def log_uniform_lengths(tree, rng, low, high):
    """The same topology with every length drawn log-uniformly from [low, high]."""

    def draw():
        return float(math.exp(rng.uniform(math.log(low), math.log(high))))

    return Tree(
        tree.taxa,
        tuple(draw() for _ in tree.leaf_lengths),
        {split: draw() for split in tree.inner},
    )


def parsimony_length(tree, column):
    """Fewest symbol changes that explain the column (Fitch-Hartigan counts)."""
    cost = 0

    def states(node):
        nonlocal cost
        if node.is_leaf():
            return {column[node.leaf]}
        counts = {}
        for child in node.children:
            for x in states(child):
                counts[x] = counts.get(x, 0) + 1
        best = max(counts.values())
        cost += len(node.children) - best
        return {x for x, c in counts.items() if c == best}

    states(tree_topology(tree))
    return cost


class TestMutationProb:
    def test_small_length_limit(self):
        assert mutation_prob(1e-12) == pytest.approx(1e-12, rel=1e-6, abs=0.0)

    def test_large_length_limit(self):
        assert mutation_prob(50.0) == pytest.approx(1.0, abs=1e-15)

    def test_log_two(self):
        assert mutation_prob(math.log(2)) == pytest.approx(0.5, abs=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            mutation_prob(0.0)
        with pytest.raises(ValueError):
            mutation_prob(math.nan)


class TestDirichletMoment:
    def test_zero_counts(self):
        assert dirichlet_moment((0, 0, 0, 0, 0), DirichletPrior()) == 1.0

    def test_first_moment_symmetric(self):
        assert dirichlet_moment((1, 0, 0, 0, 0), DirichletPrior()) == pytest.approx(
            0.2, abs=1e-15
        )

    def test_second_moment_closed_form(self):
        # alpha (alpha + 1) / (s (s + 1)) with alpha = 0.2, s = 1
        assert dirichlet_moment((2, 0, 0, 0, 0), DirichletPrior()) == pytest.approx(
            0.12, abs=1e-15
        )

    def test_against_monte_carlo(self, rng):
        prior = DirichletPrior((0.3, 0.5, 0.2, 0.7, 0.4))
        counts = (2, 1, 0, 3, 1)
        draws = dirichlet_draws(rng, prior.alpha, size=400000)
        values = np.prod(draws ** np.array(counts), axis=1)
        se = values.std(ddof=1) / math.sqrt(len(values))
        assert dirichlet_moment(counts, prior) == pytest.approx(
            float(values.mean()), abs=4 * se
        )

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            dirichlet_moment((-1, 0, 0, 0, 0), DirichletPrior())


class TestPriors:
    def test_dirichlet_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DirichletPrior((0.2, 0.2, 0.2, 0.2, 0.0))

    def test_gamma_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            GammaPrior(shape=0.0)

    def test_exponential_special_case(self):
        prior = GammaPrior(shape=1.0, scale=0.1)
        assert prior.log_density(0.1) == pytest.approx(math.log(10) - 1, abs=1e-12)


class TestAlignment:
    def test_pattern_compression(self):
        taxa = make_taxa(4)
        aln = Alignment.from_sequences(taxa, ["AC", "AC", "AC", "AC"])
        assert len(aln.columns) == 2
        assert len(aln.pattern_index) == 2
        same = Alignment.from_sequences(taxa, ["AA", "AA", "AA", "AA"])
        assert same.pattern_index == {(0, 0, 0, 0): 2}

    def test_unknown_symbols_become_gaps_with_warning(self):
        taxa = make_taxa(4)
        with pytest.warns(UserWarning, match="mapped to gap"):
            aln = Alignment.from_sequences(taxa, ["N", "A", "C", "G"])
        assert aln.columns[0][0] == GAP

    def test_encode_symbol_case_insensitive(self):
        assert encode_symbol("a") == 0
        assert encode_symbol("-") == GAP

    def test_ragged_rejected(self):
        taxa = make_taxa(4)
        with pytest.raises(ValueError, match="unequal"):
            Alignment.from_sequences(taxa, ["AC", "A", "AC", "AC"])

    def test_rejects_column_of_wrong_length(self):
        with pytest.raises(ValueError, match="3 symbols, expected 4"):
            Alignment.from_columns(make_taxa(4), [(0, 1, 2, 3), (0, 1, 2)])

    def test_patterns_in_order_of_first_occurrence(self):
        columns = [(1, 1, 1, 1), (0, 0, 0, 0), (1, 1, 1, 1), (2, 0, 0, 0)]
        aln = Alignment.from_columns(make_taxa(4), columns)
        assert list(aln.pattern_index.items()) == [
            ((1, 1, 1, 1), 2), ((0, 0, 0, 0), 1), ((2, 0, 0, 0), 1)
        ]

    def test_equal_and_hashed_alike_whatever_their_plan_caches_hold(self, rng):
        taxa = make_taxa(5)
        columns = [random_column(rng, 5) for _ in range(6)]
        warm = Alignment.from_columns(taxa, columns)
        while len(warm.plans) < phylo_model._PLAN_CAPACITY:
            log_likelihood(random_tree(taxa, rng), warm, DirichletPrior())
        cold = Alignment.from_columns(taxa, columns)
        assert not cold.plans
        assert warm == cold and hash(warm) == hash(cold)
        assert {cold: "cold"}[warm] == "cold"
        assert warm != Alignment.from_columns(taxa, columns[1:])
        assert warm != (taxa, tuple(columns))

    def test_empty_alignment_allowed(self):
        taxa = make_taxa(4)
        aln = Alignment.from_columns(taxa, [])
        assert len(aln.columns) == 0


class TestColumnPoly:
    def test_long_edges_factorize_into_stationaries(self):
        # all leaf edges huge: every leaf symbol is a fresh stationary draw
        taxa = make_taxa(4)
        tree = Tree(taxa, (50.0,) * 4, {split_of({1, 2}, 4): 50.0})
        column = (0, 1, 1, 3)
        poly = column_poly(tree, column)
        assert max(sum(e) for e in poly) <= 6
        theta = np.array([0.3, 0.25, 0.2, 0.15, 0.1])
        want = theta[0] * theta[1] * theta[1] * theta[3]
        assert evaluate_terms(poly, theta) == pytest.approx(want, rel=1e-12)

    def test_short_edges_force_identical_symbols(self, rng):
        taxa = make_taxa(5)
        tree = random_tree(taxa, rng)
        tiny = Tree(
            taxa,
            (1e-11,) * taxa.size,
            {s: 1e-11 for s in tree.inner},
        )
        theta = np.array([0.3, 0.25, 0.2, 0.15, 0.1])
        conserved = evaluate_terms(column_poly(tiny, (2, 2, 2, 2, 2)), theta)
        assert conserved == pytest.approx(theta[2], rel=1e-8)
        conflicting = evaluate_terms(column_poly(tiny, (0, 1, 2, 3, 4)), theta)
        assert conflicting < 1e-30

    def test_matches_state_enumeration(self, rng):
        for _ in range(40):
            n_leaves = rng.randrange(4, 7)
            taxa = make_taxa(n_leaves)
            tree = random_tree(taxa, rng, drop_probability=0.3, low=0.02, high=2.0)
            column = random_column(rng, n_leaves)
            poly = column_poly(tree, column)
            theta = dirichlet_draws(rng, (0.5,) * 5)
            assert evaluate_terms(poly, theta) == pytest.approx(
                state_enumeration_likelihood(tree, column, theta), abs=1e-10
            )

    def test_term_count_bound(self, rng):
        for n_leaves in (4, 5, 6):
            taxa = make_taxa(n_leaves)
            for _ in range(10):
                tree = random_tree(taxa, rng, low=0.3, high=3.0)
                column = random_column(rng, n_leaves)
                poly = column_poly(tree, column)
                # theta_x's exponent counts components showing x: at most m_x
                assert len(poly) <= math.prod(
                    column.count(x) + 1 for x in range(5)
                )
                # every component that contributes a factor holds a leaf
                assert max(sum(e) for e in poly) <= n_leaves

    def test_rejects_bad_symbol(self):
        # columns reach the pruning only through an Alignment
        with pytest.raises(ValueError, match="alphabet"):
            Alignment.from_columns(make_taxa(4), [(0, 1, 2, 3), (0, 1, 2, 9)])


class TestLogLikelihood:
    def test_all_gap_column_matches_monte_carlo(self, rng):
        taxa = make_taxa(4)
        tree = Tree(taxa, (0.4,) * 4, {split_of({1, 2}, 4): 0.3})
        column = (GAP,) * 4
        aln = Alignment.from_columns(taxa, [column])
        prior = DirichletPrior()
        draws = dirichlet_draws(rng, prior.alpha, size=300000)
        values = pruning_likelihood_vectorized(tree, column, draws)
        se = values.std(ddof=1) / math.sqrt(len(values))
        got = math.exp(log_likelihood(tree, aln, prior))
        assert got == pytest.approx(float(values.mean()), abs=3 * se)

    def test_two_column_alignment_matches_per_column_monte_carlo(self, rng):
        taxa = make_taxa(4)
        tree = Tree(taxa, (0.2, 0.3, 0.15, 0.4), {split_of({1, 2}, 4): 0.25})
        columns = [(0, 0, 1, 2), (3, 3, 3, 4)]
        prior = DirichletPrior()
        log_product, se_sum = 0.0, 0.0
        for column in columns:
            draws = dirichlet_draws(rng, prior.alpha, size=250000)
            values = pruning_likelihood_vectorized(tree, column, draws)
            mc = float(values.mean())
            se = values.std(ddof=1) / math.sqrt(len(values))
            log_product += math.log(mc)
            se_sum += se / mc  # relative error adds in the log
        aln = Alignment.from_columns(taxa, columns)
        got = log_likelihood(tree, aln, prior)
        assert abs(got - log_product) <= 3 * se_sum

    def test_duplicate_column_doubles_contribution(self, rng):
        taxa = make_taxa(5)
        tree = random_tree(taxa, rng)
        column = random_column(rng, 5)
        once = Alignment.from_columns(taxa, [column])
        twice = Alignment.from_columns(taxa, [column, column])
        prior = DirichletPrior()
        assert log_likelihood(tree, twice, prior) == 2 * log_likelihood(
            tree, once, prior
        )

    def test_column_order_invariance(self, rng):
        taxa = make_taxa(5)
        tree = random_tree(taxa, rng)
        columns = [random_column(rng, 5) for _ in range(6)]
        prior = DirichletPrior()
        forward = Alignment.from_columns(taxa, columns)
        backward = Alignment.from_columns(taxa, columns[::-1])
        assert log_likelihood(tree, forward, prior) == log_likelihood(
            tree, backward, prior
        )

    def test_integrated_column_likelihood_in_unit_interval(self, rng):
        prior = DirichletPrior()
        for _ in range(10):
            taxa = make_taxa(5)
            tree = random_tree(taxa, rng)
            aln = Alignment.from_columns(taxa, [random_column(rng, 5)])
            value = log_likelihood(tree, aln, prior)
            assert value <= 0.0

    def test_conserved_beats_conflicting(self, rng):
        taxa = make_taxa(5)
        tree = random_tree(taxa, rng, low=0.05, high=0.3)
        prior = DirichletPrior()
        conserved = Alignment.from_columns(taxa, [(0, 0, 0, 0, 0)])
        conflicting = Alignment.from_columns(taxa, [(0, 1, 2, 3, 4)])
        assert log_likelihood(tree, conserved, prior) > log_likelihood(
            tree, conflicting, prior
        )

    def test_outgroup_choice_does_not_matter(self, rng):
        # time reversibility: rerooting at a different leaf leaves the
        # integrated likelihood unchanged
        names = ("w", "x", "y", "z", "q")
        prior = DirichletPrior()
        rng_local = random.Random(77)
        taxa_a = TaxonTable(names)
        tree_a = random_tree(taxa_a, rng_local)
        column_by_name = {name: rng_local.randrange(5) for name in names}

        reordered = ("y",) + tuple(n for n in names if n != "y")
        taxa_b = TaxonTable(reordered)
        remap = {taxa_b.names.index(n): taxa_a.names.index(n) for n in names}
        leaf_lengths = tuple(
            tree_a.leaf_lengths[remap[i]] for i in range(len(names))
        )
        inner = {}
        for split, length in tree_a.inner.items():
            names_in_side = {names[i] for i in range(len(names)) if split >> i & 1}
            side = {taxa_b.names.index(n) for n in names_in_side}
            inner[split_of(side, len(names))] = length
        tree_b = Tree(taxa_b, leaf_lengths, inner)

        aln_a = Alignment.from_columns(taxa_a, [tuple(column_by_name[n] for n in names)])
        aln_b = Alignment.from_columns(
            taxa_b, [tuple(column_by_name[n] for n in reordered)]
        )
        assert log_likelihood(tree_a, aln_a, prior) == pytest.approx(
            log_likelihood(tree_b, aln_b, prior), abs=1e-9
        )

    def test_zero_columns_give_zero(self, rng):
        taxa = make_taxa(4)
        tree = random_tree(taxa, rng)
        aln = Alignment.from_columns(taxa, [])
        assert log_likelihood(tree, aln, DirichletPrior()) == 0.0

    def test_underflow_names_the_first_column_of_its_pattern(self, rng, monkeypatch):
        taxa = make_taxa(4)
        tree = random_tree(taxa, rng)
        bad = (1, 1, 2, 2)
        # bad is the third pattern, first seen at column 3 and again at 4
        columns = [(0, 0, 0, 0), (0, 0, 0, 0), (3, 3, 3, 4), bad, bad]
        aln = Alignment.from_columns(taxa, columns)
        real = phylo_model._final_coefficients

        def underflowing(plan, lengths):
            coefficients, scale = real(plan, lengths)
            return np.where(plan.cell_pattern == 2, 0.0, coefficients), scale

        monkeypatch.setattr(phylo_model, "_final_coefficients", underflowing)
        with pytest.raises(ColumnLikelihoodError, match="^column 3: likelihood underflow"):
            log_likelihood(tree, aln, DirichletPrior())


class TestRawThetaOracle:
    def test_matches_raw_theta_pruning(self, rng):
        prior = DirichletPrior()
        worst = 0.0
        for trial in range(60):
            n_leaves = rng.randrange(4, 9)
            taxa = make_taxa(n_leaves)
            shape = random_tree(taxa, rng, drop_probability=0.3)
            tree = log_uniform_lengths(shape, rng, 1e-6, 5.0)
            if trial % 2:
                tree = tree.with_leaf_length(1, 1e-6).with_leaf_length(2, 5.0)
            columns = [
                shared_base_column(rng, n_leaves),
                (GAP,) * n_leaves,
                random_column(rng, n_leaves),
            ]
            aln = Alignment.from_columns(taxa, columns)
            got = log_likelihood(tree, aln, prior)
            want = raw_theta_log_likelihood(tree, columns, prior.alpha)
            worst = max(worst, abs(got - want) / abs(want))
            reference = reference_log_likelihood(tree, aln, prior)
            worst = max(worst, abs(got - reference) / abs(reference))
        assert worst <= 1e-12

    def test_matches_raw_theta_pruning_when_rescaled(self, rng):
        # lengths near 1e-50 put the pruning's coefficients far below the
        # rescaling threshold, while the oracle's leading terms stay normal
        prior = DirichletPrior()
        for _ in range(20):
            n_leaves = rng.randrange(4, 9)
            taxa = make_taxa(n_leaves)
            shape = random_tree(taxa, rng, drop_probability=0.3)
            tree = log_uniform_lengths(shape, rng, 1e-55, 1e-45)
            columns = [shared_base_column(rng, n_leaves), random_column(rng, n_leaves)]
            aln = Alignment.from_columns(taxa, columns)
            got = log_likelihood(tree, aln, prior)
            want = raw_theta_log_likelihood(tree, columns, prior.alpha)
            assert got == pytest.approx(want, rel=1e-12)
            assert got == pytest.approx(reference_log_likelihood(tree, aln, prior), rel=1e-12)


class TestBatchedRescaling:
    def test_rescaled_and_unscaled_patterns_of_one_batch_match_the_oracle(self, rng):
        # near 1e-50 a constant column keeps a coefficient near 1, while one
        # showing every symbol needs four mutations and is rescaled
        prior = DirichletPrior()
        for _ in range(10):
            n_leaves = rng.randrange(5, 9)
            taxa = make_taxa(n_leaves)
            tree = log_uniform_lengths(random_tree(taxa, rng), rng, 1e-55, 1e-45)
            columns = [(rng.randrange(5),) * n_leaves, tuple(i % 5 for i in range(n_leaves))]
            aln = Alignment.from_columns(taxa, columns)
            (plan,) = phylo_model._plans(tree, aln, prior.alpha)
            _, scale = phylo_model._final_coefficients(plan, phylo_model._slot_lengths(tree, plan))
            assert scale[0] == 0 and scale[1] < 0
            values = phylo_model._pattern_log_likelihoods(tree, aln, prior)
            for column, value in zip(columns, values):
                want = raw_theta_log_likelihood(tree, [column], prior.alpha)
                assert value == pytest.approx(want, rel=1e-12)

    def test_64_taxa_below_the_double_range_match_the_dict_pruning(self, rng):
        taxa = make_taxa(64)
        shape = random_tree(taxa, rng)
        tree = Tree(taxa, (1e-30,) * 64, {split: 1e-30 for split in shape.inner})
        columns = [shared_base_column(rng, 64), (GAP,) * 64, random_column(rng, 64)]
        aln = Alignment.from_columns(taxa, columns)
        prior = DirichletPrior()
        values = phylo_model._pattern_log_likelihoods(tree, aln, prior)
        assert values.min() < math.log(5e-324)
        for column, value in zip(columns, values):
            one = Alignment.from_columns(taxa, [column])
            assert value == pytest.approx(reference_log_likelihood(tree, one, prior), rel=1e-12)
        assert math.isfinite(log_likelihood(tree, aln, prior))


class TestPlanCache:
    """A plan is compiled on a miss and reused on a hit; values must not
    tell which."""

    def test_cached_and_fresh_plans_give_the_same_bits(self, rng):
        taxa = make_taxa(8)
        columns = [shared_base_column(rng, 8) for _ in range(30)]
        aln = Alignment.from_columns(taxa, columns)
        prior = DirichletPrior()

        def value(tree):
            cached = log_likelihood(tree, aln, prior)
            fresh = log_likelihood(tree, Alignment.from_columns(taxa, columns), prior)
            assert cached.hex() == fresh.hex()
            return cached

        tree = random_tree(taxa, rng)
        first = value(tree)
        assert value(tree) == first
        value(tree.with_leaf_length(3, 0.37))
        value(tree.with_inner_length(sorted(tree.inner)[0], 0.01))
        assert len(aln.plans) == 1
        # an NNI there and back: the same splits, inserted in another order
        edge = sorted(tree.inner)[1]
        there = nni_neighbors(tree, edge)[0]
        value(there)
        (new,) = set(there.inner) - set(tree.inner)
        (back,) = [t for t in nni_neighbors(there, new) if set(t.inner) == set(tree.inner)]
        assert list(back.inner) != list(tree.inner)
        assert value(back) == first
        assert len(aln.plans) == 2
        # more topologies than the cache holds evict the first one
        for _ in range(phylo_model._PLAN_CAPACITY):
            value(random_tree(taxa, rng))
        assert len(aln.plans) == phylo_model._PLAN_CAPACITY
        assert frozenset(tree.inner) not in {k[0] for k in aln.plans}
        assert value(tree) == first

    def test_alignments_and_priors_never_share_a_plan(self, rng):
        taxa = make_taxa(6)
        tree = random_tree(taxa, rng)
        first = Alignment.from_columns(taxa, [random_column(rng, 6) for _ in range(5)])
        second = Alignment.from_columns(taxa, [random_column(rng, 6) for _ in range(5)])
        priors = [DirichletPrior(), DirichletPrior((0.5, 1.0, 0.3, 0.2, 2.0))]
        for _ in range(2):
            for aln in (first, second):
                for prior in priors:
                    got = log_likelihood(tree, aln, prior)
                    want = raw_theta_log_likelihood(tree, aln.columns, prior.alpha)
                    assert got == pytest.approx(want, rel=1e-12)
        assert len(first.plans) == len(second.plans) == 2
        assert not {id(p) for p in first.plans.values()} & {
            id(p) for p in second.plans.values()
        }

    def test_reruns_with_a_warm_cache_are_identical(self, rng):
        taxa = make_taxa(6)
        columns = [shared_base_column(rng, 6) for _ in range(40)]
        aln = Alignment.from_columns(taxa, columns)
        config = RunConfig(
            chains=2, iterations=150, burn_in=30, proposal=ProposalConfig(tau=0.5, seed=4)
        )

        def outputs(alignment):
            samples, trace = run(alignment, config)
            return samples, [(r.log_posterior.hex(), r.accepted, r.move) for r in trace]

        cold = outputs(aln)
        assert outputs(aln) == cold
        assert outputs(Alignment.from_columns(taxa, columns)) == cold


class TestPatternBlocks:
    """A plan too large for one block is compiled in several, and one too
    large for the cache is compiled again at every call; neither may change
    a value."""

    def make(self, rng):
        taxa = make_taxa(10)
        columns = [shared_base_column(rng, 10) for _ in range(24)]
        return random_tree(taxa, rng), Alignment.from_columns(taxa, columns), DirichletPrior()

    def test_blocks_give_the_same_bits_as_one_plan(self, rng, monkeypatch):
        tree, aln, prior = self.make(rng)
        whole = phylo_model._pattern_log_likelihoods(tree, aln, prior)
        ((plan,),) = aln.plans.values()
        monkeypatch.setattr(phylo_model, "_BLOCK_PAIRS", plan.pairs // 5)
        again = Alignment.from_columns(aln.taxa, aln.columns)
        blocked = phylo_model._pattern_log_likelihoods(tree, again, prior)
        (plans,) = again.plans.values()
        assert len(plans) >= 5
        firsts = [p.first for p in plans]
        assert firsts == sorted(firsts) and firsts[0] == 0
        assert [p.first + len(p.starts) for p in plans] == [*firsts[1:], len(aln.pattern_index)]
        assert blocked.tobytes() == whole.tobytes()

    def test_underflow_in_a_later_block_names_its_column(self, rng, monkeypatch):
        taxa = make_taxa(4)
        tree = random_tree(taxa, rng)
        bad = (1, 1, 2, 2)
        columns = [(0, 0, 0, 0), (0, 0, 0, 0), (3, 3, 3, 4), bad, bad]
        aln = Alignment.from_columns(taxa, columns)
        real = phylo_model._final_coefficients

        def underflowing(plan, lengths):
            coefficients, scale = real(plan, lengths)
            return np.where(plan.first + plan.cell_pattern == 2, 0.0, coefficients), scale

        # one pattern per block: the third pattern is the first of its block
        monkeypatch.setattr(phylo_model, "_BLOCK_PAIRS", 0)
        monkeypatch.setattr(phylo_model, "_final_coefficients", underflowing)
        with pytest.raises(ColumnLikelihoodError, match="^column 3: likelihood underflow"):
            log_likelihood(tree, aln, DirichletPrior())

    def test_a_plan_over_the_cache_budget_is_not_kept(self, rng, monkeypatch):
        tree, aln, prior = self.make(rng)
        want = log_likelihood(tree, aln, prior)
        ((plan,),) = aln.plans.values()
        monkeypatch.setattr(phylo_model, "_CACHE_PAIRS", plan.pairs - 1)
        again = Alignment.from_columns(aln.taxa, aln.columns)
        for _ in range(2):
            assert log_likelihood(tree, again, prior).hex() == want.hex()
            assert not again.plans

    def test_a_streamed_block_is_freed_before_the_next_is_evaluated(self, rng, monkeypatch):
        tree, aln, prior = self.make(rng)
        monkeypatch.setattr(phylo_model, "_BLOCK_PAIRS", 1000)
        monkeypatch.setattr(phylo_model, "_CACHE_PAIRS", 0)
        real = phylo_model._final_coefficients
        seen, alive = [], []

        def recording(plan, lengths):
            alive.append(sum(ref() is not None for ref in seen))
            seen.append(weakref.ref(plan))
            return real(plan, lengths)

        monkeypatch.setattr(phylo_model, "_final_coefficients", recording)
        log_likelihood(tree, aln, prior)
        assert len(seen) > 2 and alive == [0] * len(seen)

    def test_the_cache_budget_evicts_before_the_capacity(self, rng, monkeypatch):
        tree, aln, prior = self.make(rng)
        trees = [tree, *(random_tree(aln.taxa, rng) for _ in range(2))]
        for t in trees:
            log_likelihood(t, aln, prior)
        pairs = [plans[0].pairs for plans in aln.plans.values()]
        assert len(pairs) == 3
        monkeypatch.setattr(phylo_model, "_CACHE_PAIRS", pairs[1] + pairs[2])
        again = Alignment.from_columns(aln.taxa, aln.columns)
        for t in trees:
            log_likelihood(t, again, prior)
        assert list(again.plans) == list(aln.plans)[1:]

    def test_compiling_leaves_no_reference_cycles(self, rng, monkeypatch):
        # a cycle would keep a streamed plan's arrays until the collector runs
        tree, aln, prior = self.make(rng)
        monkeypatch.setattr(phylo_model, "_BLOCK_PAIRS", 1000)
        monkeypatch.setattr(phylo_model, "_CACHE_PAIRS", 0)
        gc.collect()
        gc.disable()
        try:
            log_likelihood(tree, aln, prior)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestScale:
    def test_32_taxa_columns_match_monte_carlo(self, rng):
        taxa = make_taxa(32)
        tree = random_tree(taxa, rng, low=0.02, high=0.3)
        prior = DirichletPrior()
        for column in (
            shared_base_column(rng, 32),
            (GAP,) * 32,
            random_column(rng, 32),
        ):
            draws = dirichlet_draws(rng, prior.alpha, size=200000)
            values = pruning_likelihood_vectorized(tree, column, draws)
            se = values.std(ddof=1) / math.sqrt(len(values))
            got = math.exp(log_likelihood(tree, Alignment.from_columns(taxa, [column]), prior))
            assert got == pytest.approx(float(values.mean()), abs=3 * se)

    def test_64_taxa_long_branches_finite(self, rng):
        taxa = make_taxa(64)
        prior = DirichletPrior()
        for low, high in ((1.0, 5.0), (20.0, 50.0)):
            tree = random_tree(taxa, rng, low=low, high=high)
            for column in (
                shared_base_column(rng, 64),
                (GAP,) * 64,
                random_column(rng, 64),
            ):
                aln = Alignment.from_columns(taxa, [column])
                try:
                    value = log_likelihood(tree, aln, prior)
                except ColumnLikelihoodError:
                    continue
                assert math.isfinite(value)
                assert value <= 0.0

    def test_likelihood_below_float_range_keeps_parsimony_slope(self, rng):
        # with every edge t -> 0 the likelihood is C t^k (1 + O(t)), k the
        # parsimony length; here it is far below the smallest double
        taxa = make_taxa(64)
        shape = random_tree(taxa, rng)
        column = shared_base_column(rng, 64)
        aln = Alignment.from_columns(taxa, [column])
        logs = []
        for t in (1e-30, 1e-31):
            tree = Tree(taxa, (t,) * 64, {split: t for split in shape.inner})
            logs.append(log_likelihood(tree, aln, DirichletPrior()))
        assert logs[0] < math.log(5e-324)
        slope = (logs[0] - logs[1]) / math.log(10.0)
        assert slope == pytest.approx(parsimony_length(shape, column), abs=1e-6)


class TestLogPriorPosterior:
    def test_exponential_edge_contribution(self):
        taxa = make_taxa(4)
        tree = Tree(taxa, (0.1,) * 4, {split_of({1, 2}, 4): 0.1})
        prior = GammaPrior(shape=1.0, scale=0.1)
        want = 5 * (math.log(10) - 1)
        assert log_prior(tree, prior) == pytest.approx(want, abs=1e-12)

    def test_additivity_over_edges(self, rng):
        taxa = make_taxa(5)
        tree = random_tree(taxa, rng)
        prior = GammaPrior(shape=1.3, scale=0.2)
        total = sum(prior.log_density(l) for l in tree.leaf_lengths)
        total += sum(prior.log_density(l) for l in tree.inner.values())
        assert log_prior(tree, prior) == pytest.approx(total, abs=1e-12)

    def test_posterior_is_sum_of_parts(self, rng):
        taxa = make_taxa(5)
        tree = random_tree(taxa, rng)
        aln = Alignment.from_columns(taxa, [random_column(rng, 5) for _ in range(4)])
        dp, gp = DirichletPrior(), GammaPrior()
        assert log_posterior(tree, aln, dp, gp) == log_likelihood(
            tree, aln, dp
        ) + log_prior(tree, gp)

    def test_long_edge_drives_posterior_down(self, rng):
        taxa = make_taxa(4)
        split = split_of({1, 2}, 4)
        aln = Alignment.from_columns(taxa, [(0, 0, 1, 1)])
        dp, gp = DirichletPrior(), GammaPrior()
        values = []
        for length in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
            tree = Tree(taxa, (0.1,) * 4, {split: length})
            values.append(log_posterior(tree, aln, dp, gp))
        assert all(b < a for a, b in zip(values, values[1:]))
