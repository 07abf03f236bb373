"""Property tests of geodesic distance, interpolation and the CAT(0)
inequality on 4-8 leaves.

Trees are drawn with contracted splits (orthant faces) and with lengths
taken either from a short list, which makes equal lengths and equal
ratios common, or from an interval.  The brute-force distance is
exponential in the number of conflicting splits, so the leaf count stays
at 8 or below.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from bhvphylo.geodesic import distance, geodesic
from bhvphylo.treespace import Tree, random_binary_splits

from conftest import assert_same_path, make_taxa
from oracles import brute_force_distance, reference_geodesic

PROPERTY_SETTINGS = settings(
    max_examples=200, deadline=None, database=None, derandomize=True
)

LENGTHS = st.one_of(
    st.sampled_from((0.1, 0.2, 0.3, 0.6)),
    st.floats(0.01, 1.0, allow_nan=False, allow_infinity=False),
)

KEEP = st.sampled_from((True, True, True, False))


@st.composite
def metric(draw, taxa, splits):
    """A tree over `splits`, some contracted, with drawn lengths."""
    # most splits kept, so that conflicts are large; a dropped one is a face
    kept = draw(st.lists(KEEP, min_size=len(splits), max_size=len(splits)))
    inner = {split: draw(LENGTHS) for split, keep in zip(splits, kept) if keep}
    leaves = tuple(draw(LENGTHS) for _ in range(taxa.size))
    return Tree(taxa, leaves, inner)


@st.composite
def tree_tuples(draw, count):
    taxa = make_taxa(draw(st.sampled_from((8, 7, 6, 5, 4))))
    # one seed for all topologies, so that they rarely coincide
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return tuple(
        draw(metric(taxa, sorted(random_binary_splits(taxa.size, rng))))
        for _ in range(count)
    )


@PROPERTY_SETTINGS
@given(tree_tuples(2))
def test_distance_matches_brute_force(pair):
    s, t = pair
    assert abs(distance(s, t) - brute_force_distance(s, t)) <= 1e-9


@PROPERTY_SETTINGS
@given(tree_tuples(2))
def test_path_matches_reference(pair):
    s, t = pair
    assert_same_path(geodesic(s, t), reference_geodesic(s, t))


@PROPERTY_SETTINGS
@given(tree_tuples(2), st.floats(0.0, 1.0))
def test_interpolation_divides_the_distance(pair, lam):
    s, t = pair
    path = geodesic(s, t)
    d = path.length
    point = path.point(lam)
    assert abs(distance(s, point) - lam * d) <= 1e-9
    assert abs(distance(point, t) - (1.0 - lam) * d) <= 1e-9


@PROPERTY_SETTINGS
@given(tree_tuples(3))
def test_cat0_midpoint_inequality(triple):
    x, y, z = triple
    mid = geodesic(x, y).point(0.5)
    lhs = distance(mid, z) ** 2
    rhs = (
        0.5 * distance(x, z) ** 2
        + 0.5 * distance(y, z) ** 2
        - 0.25 * distance(x, y) ** 2
    )
    assert lhs <= rhs + 1e-9
