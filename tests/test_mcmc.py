import math
import random

import numpy as np
import pytest

from bhvphylo.mcmc import (
    LENGTH_MOVE,
    NNI_MOVE,
    ChainState,
    PolytomyError,
    ProposalConfig,
    RunConfig,
    initial_tree,
    kept_iterations,
    mh_step,
    nni_neighbors,
    propose,
    run,
    trace_csv_lines,
)
from bhvphylo.phylo_model import ColumnLikelihoodError
from bhvphylo.phylo_model import Alignment, DirichletPrior, GammaPrior, log_posterior
from bhvphylo.treespace import Tree, serialize_newick, validate

from conftest import make_taxa, random_tree, split_of


def empty_alignment(n_leaves=5):
    return Alignment.from_columns(make_taxa(n_leaves), [])


def prior_run_config(**overrides):
    defaults = dict(
        chains=1,
        iterations=2000,
        burn_in=200,
        thin=1,
        proposal=ProposalConfig(tau=0.9, sigma=0.05, seed=11),
        dirichlet=DirichletPrior(),
        gamma=GammaPrior(1.0, 0.1),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def flat(tree):
    return 0.0


def start(aln, config, seed, log_target=flat):
    """A chain's first state and its generator, as run makes them."""
    rng = random.Random(seed)
    tree = initial_tree(aln, config, rng)
    return ChainState(tree, log_target(tree)), rng


def reflected_normal_density(y, x, sigma):
    """Proposal density of |normal(x, sigma)| at y > 0."""
    norm = 1.0 / (sigma * math.sqrt(2 * math.pi))
    return norm * (
        math.exp(-0.5 * ((y - x) / sigma) ** 2)
        + math.exp(-0.5 * ((y + x) / sigma) ** 2)
    )


class TestConfigs:
    def test_tau_bounds(self):
        with pytest.raises(ValueError):
            ProposalConfig(tau=1.0)
        with pytest.raises(ValueError):
            ProposalConfig(tau=0.0)

    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            ProposalConfig(sigma=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_settings_rejected(self, value):
        with pytest.raises(ValueError, match="sigma must be finite"):
            ProposalConfig(sigma=value)
        with pytest.raises(ValueError):
            ProposalConfig(tau=value)
        with pytest.raises(ValueError, match="pseudocounts must be finite"):
            DirichletPrior((0.2, 0.2, value, 0.2, 0.2))
        with pytest.raises(ValueError, match="shape and scale must be finite"):
            GammaPrior(shape=value)
        with pytest.raises(ValueError, match="shape and scale must be finite"):
            GammaPrior(scale=value)

    def test_burn_in_bounds(self):
        with pytest.raises(ValueError):
            RunConfig(iterations=100, burn_in=100)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3"])
    def test_seed_is_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match=f"seed must be a nonnegative integer, got {seed!r}"):
            ProposalConfig(seed=seed)


class TestNniNeighbors:
    def test_quartet_example(self):
        taxa = make_taxa(4)
        edge = split_of({1, 2}, 4)
        tree = Tree(taxa, (0.1,) * 4, {edge: 0.2})
        first, second = nni_neighbors(tree, edge)
        assert first.inner == {split_of({1, 3}, 4): 0.2}
        assert second.inner == {split_of({2, 3}, 4): 0.2}

    def test_involution(self, rng):
        taxa = make_taxa(6)
        tree = random_tree(taxa, rng)
        edge = sorted(tree.inner)[0]
        neighbor = nni_neighbors(tree, edge)[0]
        new_edge = next(iter(set(neighbor.inner) - set(tree.inner)))
        back = nni_neighbors(neighbor, new_edge)
        assert any(b == tree for b in back)

    def test_outputs_valid_and_differ_by_one_split(self, rng):
        for _ in range(40):
            taxa = make_taxa(rng.randrange(4, 8))
            tree = random_tree(taxa, rng)
            edge = sorted(tree.inner)[rng.randrange(len(tree.inner))]
            for neighbor in nni_neighbors(tree, edge):
                assert validate(neighbor) == []
                gone = set(tree.inner) - set(neighbor.inner)
                new = set(neighbor.inner) - set(tree.inner)
                assert gone == {edge} and len(new) == 1
                assert neighbor.inner[next(iter(new))] == tree.inner[edge]

    def test_polytomy_rejected(self):
        taxa = make_taxa(6)
        for clades, edge in (
            ([{1, 2}], {1, 2}),  # at the root: four other children
            ([{1, 2, 3}, {4, 5}], {1, 2, 3}),  # below: three children
            ([{1, 2}, {1, 2, 3, 4}], {1, 2}),  # above: two siblings
        ):
            tree = Tree(taxa, (0.1,) * 6, {split_of(c, 6): 0.3 for c in clades})
            with pytest.raises(PolytomyError):
                nni_neighbors(tree, split_of(edge, 6))

    def test_missing_edge_rejected(self, rng):
        tree = random_tree(make_taxa(5), rng)
        missing = next(
            s
            for s in (split_of({1, 2}, 5), split_of({1, 3}, 5), split_of({1, 4}, 5))
            if s not in tree.inner
        )
        with pytest.raises(KeyError):
            nni_neighbors(tree, missing)


class TestPropose:
    def test_high_tau_gives_length_moves(self, rng):
        tree = random_tree(make_taxa(5), rng)
        draws = random.Random(0)
        cfg = ProposalConfig(tau=1.0 - 1e-12, sigma=0.05, seed=0)
        for _ in range(100):
            candidate, move = propose(tree, draws, cfg)
            assert move == LENGTH_MOVE
            assert set(candidate.inner) == set(tree.inner)
            changed_leaf = sum(
                a != b for a, b in zip(candidate.leaf_lengths, tree.leaf_lengths)
            )
            changed_inner = sum(
                candidate.inner[s] != tree.inner[s] for s in tree.inner
            )
            assert changed_leaf + changed_inner == 1

    def test_low_tau_gives_nni_moves(self, rng):
        tree = random_tree(make_taxa(5), rng)
        draws = random.Random(0)
        cfg = ProposalConfig(tau=1e-12, sigma=0.05, seed=0)
        for _ in range(100):
            candidate, move = propose(tree, draws, cfg)
            assert move == NNI_MOVE
            assert len(set(candidate.inner) ^ set(tree.inner)) == 2

    def test_reflected_lengths_stay_positive(self, rng):
        taxa = make_taxa(4)
        split = split_of({1, 2}, 4)
        tree = Tree(taxa, (0.01,) * 4, {split: 0.01})
        draws = random.Random(3)
        cfg = ProposalConfig(tau=1.0 - 1e-12, sigma=0.05, seed=0)
        for _ in range(300):
            candidate, _ = propose(tree, draws, cfg)
            assert all(l > 0 for l in candidate.leaf_lengths)
            assert all(l > 0 for l in candidate.inner.values())

    def test_reflected_normal_density_is_symmetric(self):
        for x, y in ((0.01, 0.08), (0.3, 0.02), (0.15, 0.151)):
            assert reflected_normal_density(y, x, 0.05) == pytest.approx(
                reflected_normal_density(x, y, 0.05), rel=1e-12
            )

    def test_nni_proposal_factor_matches_in_both_directions(self, rng):
        # both endpoints are binary: same inner-edge count, two neighbors each
        tree = random_tree(make_taxa(6), rng)
        edge = sorted(tree.inner)[1]
        neighbor = nni_neighbors(tree, edge)[1]
        assert len(neighbor.inner) == len(tree.inner)
        new_edge = next(iter(set(neighbor.inner) - set(tree.inner)))
        assert tree in nni_neighbors(neighbor, new_edge)


class TestMhStep:
    def test_flat_target_accepts_everything(self):
        aln = empty_alignment()
        config = prior_run_config(iterations=50, burn_in=0)
        _, trace = run(aln, config, log_target=flat)
        assert len(trace) == 50
        assert all(row.accepted for row in trace)

    def test_posterior_failure_aborts_with_the_tree(self):
        aln = empty_alignment()
        config = prior_run_config()
        state, rng = start(aln, config, seed=8)
        twin = random.Random()
        twin.setstate(rng.getstate())
        candidate, _ = propose(state.current, twin, config.proposal)

        def broken(tree):
            raise ColumnLikelihoodError(2, "likelihood underflow to zero")

        with pytest.raises(ArithmeticError) as info:
            mh_step(state, rng, config.proposal, broken)
        assert str(info.value) == (
            f"posterior evaluation failed on {serialize_newick(candidate)}: "
            "column 2: likelihood underflow to zero"
        )
        assert isinstance(info.value.__cause__, ColumnLikelihoodError)

    @pytest.mark.parametrize("log_target,accepted", [(-50.0, True), (-math.inf, False)])
    def test_zero_uniform_accepts_every_finite_ratio(self, log_target, accepted, rng):
        # random() is exactly 0.0 with probability 2**-53; log 0 = -inf
        # lies below every finite log ratio
        class ZeroUniform(random.Random):
            def random(self):
                return 0.0

            def gauss(self, mu, sigma):
                # the stock gauss turns random() == 0.0 into mu: no move
                return mu + sigma

        state = ChainState(random_tree(make_taxa(5), rng), 0.0)
        new, row = mh_step(state, ZeroUniform(0), ProposalConfig(), lambda tree: log_target)
        assert row.move == LENGTH_MOVE
        assert row.accepted is accepted
        assert (new.log_post, new.current != state.current) == (
            (log_target, True) if accepted else (0.0, False)
        )

    def test_cache_coherence(self):
        # every state is kept, so row i reports the log posterior of sample i
        aln = empty_alignment()
        config = prior_run_config(iterations=400, burn_in=0)
        samples, trace = run(aln, config)
        for step in range(0, 400, 100):
            recomputed = log_posterior(
                samples[step], aln, config.dirichlet, config.gamma
            )
            assert trace[step].log_posterior == pytest.approx(recomputed, abs=1e-9)

    def test_state_is_a_snapshot(self):
        # the generator lives outside the state, so stepping again from a
        # saved state with a generator seeded alike repeats the step
        taxa = make_taxa(5)
        aln = Alignment.from_columns(taxa, [(0, 0, 1, 1, 2), (3, 3, 3, 4, 4)])
        config = prior_run_config()

        def target(tree):
            return log_posterior(tree, aln, config.dirichlet, config.gamma)

        saved, _ = start(aln, config, seed=9, log_target=target)
        outcomes = [
            mh_step(saved, random.Random(seed), config.proposal, target)
            for seed in (31, 31, 32)
        ]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0] != outcomes[2]
        assert saved == start(aln, config, seed=9, log_target=target)[0]

    def test_acceptance_rate_matches_quadrature(self):
        # prior-only target: length moves accept with the analytic rate for
        # an exponential target under a reflected-normal proposal, NNI moves
        # always accept (the proposed edge keeps its length)
        aln = empty_alignment(5)
        config = prior_run_config(
            iterations=40000,
            burn_in=2000,
            proposal=ProposalConfig(tau=0.9, sigma=0.05, seed=11),
        )
        _, trace = run(aln, config)
        accepted = np.array([row.accepted for row in trace[2000:]], dtype=float)

        rate = 1.0 / config.gamma.scale
        sigma = config.proposal.sigma
        xs = np.linspace(1e-6, 1.5, 1200)
        ys = np.linspace(1e-6, 1.8, 1600)
        target = rate * np.exp(-rate * xs)
        target /= np.trapezoid(target, xs)
        norm = 1.0 / (sigma * math.sqrt(2 * math.pi))
        q = norm * (
            np.exp(-0.5 * ((ys[None, :] - xs[:, None]) / sigma) ** 2)
            + np.exp(-0.5 * ((ys[None, :] + xs[:, None]) / sigma) ** 2)
        )
        accept = np.minimum(1.0, np.exp(-rate * (ys[None, :] - xs[:, None])))
        e_free = float(
            np.trapezoid(np.trapezoid(q * accept, ys, axis=1) * target, xs)
        )
        expected = config.proposal.tau * e_free + (1 - config.proposal.tau)

        batches = accepted[: len(accepted) // 40 * 40].reshape(40, -1).mean(axis=1)
        se = batches.std(ddof=1) / math.sqrt(len(batches))
        assert abs(accepted.mean() - expected) < 3 * se + 1e-3

    def test_detailed_balance_on_binned_edge(self):
        # one topology, one free edge; everything else pinned
        taxa = make_taxa(4)
        split = split_of({1, 2}, 4)
        pinned = Tree(taxa, (0.1,) * 4, {split: 0.1})
        aln = Alignment.from_columns(taxa, [])
        config = prior_run_config(
            iterations=40000,
            burn_in=0,
            proposal=ProposalConfig(tau=1.0 - 1e-12, sigma=0.05, seed=23),
        )

        def log_target(tree):
            if tree.leaf_lengths != pinned.leaf_lengths or set(tree.inner) != {split}:
                return -math.inf
            return log_posterior(tree, aln, config.dirichlet, config.gamma)

        samples, _ = run(aln, config, initial=pinned, log_target=log_target)
        values = np.array([t.inner[split] for t in samples])
        bins = np.clip((values / 0.08).astype(int), 0, 9)
        counts = np.zeros((10, 10))
        for a, b in zip(bins, bins[1:]):
            counts[a, b] += 1
        for i in range(10):
            for j in range(i + 1, 10):
                total = counts[i, j] + counts[j, i]
                if total >= 20:
                    assert abs(counts[i, j] - counts[j, i]) <= 5 * math.sqrt(total)


class TestRun:
    def test_deterministic(self):
        aln = empty_alignment()
        config = prior_run_config(iterations=400, burn_in=100, chains=2)
        first = run(aln, config)
        second = run(aln, config)
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_burn_in_all_but_one(self):
        aln = empty_alignment()
        config = prior_run_config(iterations=100, burn_in=99, chains=3)
        samples, _ = run(aln, config)
        assert len(samples) == 3

    def test_thinning_counts(self):
        aln = empty_alignment()
        config = prior_run_config(iterations=100, burn_in=20, thin=7)
        samples, _ = run(aln, config)
        assert len(samples) == len(kept_iterations(config))
        assert kept_iterations(config)[0] == 21

    def test_all_samples_valid(self):
        aln = empty_alignment()
        config = prior_run_config(iterations=1500, burn_in=100)
        samples, _ = run(aln, config)
        assert all(validate(t) == [] for t in samples)

    @pytest.mark.parametrize(
        "clades",
        [[], [{1, 2}], [{1, 2}, {4, 5}], [{1, 2}, {2, 3}, {4, 5}]],
        ids=["star", "one-split", "two-splits", "incompatible"],
    )
    def test_non_binary_start_rejected(self, clades):
        taxa = make_taxa(6)
        tree = Tree(taxa, (0.1,) * 6, {split_of(c, 6): 0.2 for c in clades})
        evaluated = []
        with pytest.raises(ValueError):
            run(
                Alignment.from_columns(taxa, []),
                prior_run_config(),
                initial=tree,
                log_target=evaluated.append,
            )
        assert evaluated == []

    def test_chain_exchangeability(self):
        aln = empty_alignment()
        two_chain = run(aln, prior_run_config(iterations=200, burn_in=50, chains=2))
        # chain c of a run draws from seed proposal.seed + c; the default is 11
        first_alone, second_alone = (
            run(aln, prior_run_config(
                iterations=200, burn_in=50,
                proposal=ProposalConfig(tau=0.9, sigma=0.05, seed=seed),
            ))
            for seed in (11, 12)
        )
        assert two_chain[0] == first_alone[0] + second_alone[0]
        assert two_chain[1] == first_alone[1] + second_alone[1]

    def test_trace_csv_layout(self):
        aln = empty_alignment()
        config = prior_run_config(iterations=5, burn_in=0, chains=2)
        _, trace = run(aln, config)
        lines = trace_csv_lines(trace, config.iterations)
        assert lines[0] == "chain,iteration,log_posterior,accepted,move"
        assert len(lines) == 1 + 2 * 5
        fields = lines[1].split(",")
        assert fields[0] == "0" and fields[1] == "1"
        assert fields[3] in ("0", "1")
        assert fields[4] in (LENGTH_MOVE, NNI_MOVE)
        assert lines[5].startswith("0,5,")
        assert lines[6].startswith("1,1,")
        assert lines[10].startswith("1,5,")

    def test_initial_tree_draws_from_prior(self):
        aln = empty_alignment(6)
        config = prior_run_config()
        tree = initial_tree(aln, config, random.Random(3))
        assert validate(tree) == []
        assert len(tree.inner) == tree.taxa.size - 3
