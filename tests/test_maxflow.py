import pytest

from bhvphylo.geodesic import FlowNetwork, max_flow

from oracles import brute_force_min_cover, covers, reference_max_flow


def cover_weight(net, cover_a, cover_b):
    return sum(w for i, w in enumerate(net.a_weights) if cover_a >> i & 1) + sum(
        w for j, w in enumerate(net.b_weights) if cover_b >> j & 1
    )


def test_symmetric_one_by_one():
    net = FlowNetwork((0.5,), (0.5,), [0b1])
    flow, cover_a, cover_b = max_flow(net)
    assert flow == pytest.approx(0.5, abs=1e-12)
    assert covers(net.rows, cover_a, cover_b)
    assert cover_weight(net, cover_a, cover_b) == pytest.approx(0.5, abs=1e-12)


def test_two_against_one():
    net = FlowNetwork((0.09, 0.16), (0.25,), [0b1, 0b1])
    assert max_flow(net) == (pytest.approx(0.25, abs=1e-12), 0, 0b1)


def test_no_edges():
    net = FlowNetwork((0.3, 0.4), (0.5,), [0, 0])
    assert max_flow(net) == (0.0, 0, 0)


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
        rows = [
            sum(1 << j for j in range(nb) if rng.random() < density)
            for _ in range(na)
        ]
        yield FlowNetwork(a_weights, b_weights, rows)


def test_flow_equals_min_cover_on_random_networks(rng):
    for trial, net in enumerate(random_networks(rng)):
        flow, cover_a, cover_b = max_flow(net)
        want, _ = brute_force_min_cover(*net)
        assert flow == pytest.approx(want, abs=1e-9), trial
        assert covers(net.rows, cover_a, cover_b), trial
        assert cover_weight(net, cover_a, cover_b) == pytest.approx(want, abs=1e-9), trial


def test_matches_the_dict_residual_version_bit_for_bit(rng):
    nets = list(random_networks(rng))
    # larger networks
    for _ in range(60):
        na, nb = rng.randrange(4, 12), rng.randrange(4, 12)
        a_weights = tuple(rng.uniform(0.01, 1.0) for _ in range(na))
        b_weights = tuple(rng.uniform(0.01, 1.0) for _ in range(nb))
        rows = [sum(1 << j for j in range(nb) if rng.random() < 0.4) for _ in range(na)]
        nets.append(FlowNetwork(a_weights, b_weights, rows))
    for net in nets:
        flow, cover_a, cover_b = max_flow(net)
        want_flow, want_a, want_b = reference_max_flow(net)
        assert flow.hex() == want_flow.hex()
        assert (cover_a, cover_b) == (want_a, want_b)


def test_extreme_weight_ratios(rng):
    for trial in range(40):
        na = rng.randrange(1, 5)
        nb = rng.randrange(1, 5)
        a_weights = tuple(10.0 ** rng.uniform(-9, 0) for _ in range(na))
        b_weights = tuple(10.0 ** rng.uniform(-9, 0) for _ in range(nb))
        rows = [sum(1 << j for j in range(nb) if rng.random() < 0.6) for _ in range(na)]
        net = FlowNetwork(a_weights, b_weights, rows)
        flow, cover_a, cover_b = max_flow(net)
        want, _ = brute_force_min_cover(a_weights, b_weights, rows)
        assert flow == pytest.approx(want, rel=1e-9, abs=1e-12)
        assert covers(rows, cover_a, cover_b)


def test_deterministic_cover():
    net = FlowNetwork((0.3, 0.3), (0.3, 0.3), [0b11, 0b11])
    first = max_flow(net)
    second = max_flow(net)
    assert first == second
