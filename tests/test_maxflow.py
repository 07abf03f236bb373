import pytest

from bhvphylo.maxflow import FlowNetwork, max_flow

from oracles import brute_force_min_cover, reference_max_flow


def cover_weight(net, cover):
    cover_a, cover_b = cover
    return sum(net.a_weights[i] for i in cover_a) + sum(
        net.b_weights[j] for j in cover_b
    )


def covers_all_edges(net, cover):
    cover_a, cover_b = cover
    return all(i in cover_a or j in cover_b for i, j in net.edges)


def test_symmetric_one_by_one():
    net = FlowNetwork((0.5,), (0.5,), ((0, 0),))
    flow, cover = max_flow(net)
    assert flow == pytest.approx(0.5, abs=1e-12)
    assert covers_all_edges(net, cover)
    assert cover_weight(net, cover) == pytest.approx(0.5, abs=1e-12)


def test_two_against_one():
    net = FlowNetwork((0.09, 0.16), (0.25,), ((0, 0), (1, 0)))
    flow, (cover_a, cover_b) = max_flow(net)
    assert flow == pytest.approx(0.25, abs=1e-12)
    assert cover_a == frozenset()
    assert cover_b == frozenset({0})


def test_no_edges():
    net = FlowNetwork((0.3, 0.4), (0.5,), ())
    flow, (cover_a, cover_b) = max_flow(net)
    assert flow == 0.0
    assert cover_a == frozenset() and cover_b == frozenset()


def test_rejects_negative_weights():
    with pytest.raises(ValueError):
        FlowNetwork((-0.1,), (0.5,), ())


def test_rejects_edges_out_of_range():
    with pytest.raises(ValueError):
        FlowNetwork((0.1,), (0.5,), ((0, 1),))


def test_other_sequences_are_copied_into_tuples():
    want = FlowNetwork((0.09, 0.16), (0.25,), ((0, 0), (1, 0)))
    built = [
        FlowNetwork([0.09, 0.16], iter([0.25]), ((i, 0) for i in range(2))),
        FlowNetwork((0.09, 0.16), (0.25,), [[0, 0], [1, 0]]),
        FlowNetwork((0.09, 0.16), (0.25,), ([0, 0], (1, 0))),
    ]
    for net in built:
        assert net == want and hash(net) == hash(want)
        assert max_flow(net) == max_flow(want)


def random_networks(rng, trials=450):
    """Small networks with uniform, equal-per-side and normalized weights."""

    def uniform(n):
        return tuple(rng.uniform(0.01, 1.0) for _ in range(n))

    def equal(n):
        # each side weighs 1.0, so "all of A" ties "all of B"
        return (1.0 / n,) * n

    def normalized(n):
        # squared lengths over their sum, as geodesic._refine builds them
        lengths = [rng.uniform(0.01, 1.0) for _ in range(n)]
        norm2 = sum(l * l for l in lengths)
        return tuple(l * l / norm2 for l in lengths)

    for trial in range(trials):
        weights = (uniform, equal, normalized)[trial % 3]
        density = 1.0 if trial % 5 == 0 else 0.45
        na = rng.randrange(1, 6)
        nb = rng.randrange(1, 6)
        a_weights = weights(na)
        b_weights = weights(nb)
        edges = tuple(
            (i, j)
            for i in range(na)
            for j in range(nb)
            if rng.random() < density
        )
        yield FlowNetwork(a_weights, b_weights, edges)


def test_flow_equals_min_cover_on_random_networks(rng):
    for trial, net in enumerate(random_networks(rng)):
        flow, cover = max_flow(net)
        want, _ = brute_force_min_cover(net.a_weights, net.b_weights, net.edges)
        assert flow == pytest.approx(want, abs=1e-9), trial
        assert covers_all_edges(net, cover), trial
        assert cover_weight(net, cover) == pytest.approx(want, abs=1e-9), trial


def test_matches_the_dict_residual_version_bit_for_bit(rng):
    nets = list(random_networks(rng))
    # larger networks, and edges listed out of order and twice
    for _ in range(60):
        na, nb = rng.randrange(4, 12), rng.randrange(4, 12)
        a_weights = tuple(rng.uniform(0.01, 1.0) for _ in range(na))
        b_weights = tuple(rng.uniform(0.01, 1.0) for _ in range(nb))
        edges = [(i, j) for i in range(na) for j in range(nb) if rng.random() < 0.4]
        edges += edges[: len(edges) // 3]
        order = rng.sample(range(len(edges)), len(edges))
        nets.append(FlowNetwork(a_weights, b_weights, [edges[k] for k in order]))
    for net in nets:
        flow, cover = max_flow(net)
        want_flow, want_cover = reference_max_flow(net)
        assert flow.hex() == want_flow.hex()
        assert cover == want_cover


def test_extreme_weight_ratios(rng):
    for trial in range(40):
        na = rng.randrange(1, 5)
        nb = rng.randrange(1, 5)
        a_weights = tuple(10.0 ** rng.uniform(-9, 0) for _ in range(na))
        b_weights = tuple(10.0 ** rng.uniform(-9, 0) for _ in range(nb))
        edges = tuple(
            (i, j) for i in range(na) for j in range(nb) if rng.random() < 0.6
        )
        net = FlowNetwork(a_weights, b_weights, edges)
        flow, cover = max_flow(net)
        want, _ = brute_force_min_cover(a_weights, b_weights, edges)
        assert flow == pytest.approx(want, rel=1e-9, abs=1e-12)
        assert covers_all_edges(net, cover)


def test_deterministic_cover():
    net = FlowNetwork((0.3, 0.3), (0.3, 0.3), ((0, 0), (0, 1), (1, 0), (1, 1)))
    first = max_flow(net)
    second = max_flow(net)
    assert first == second
