import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from powerdep import counting
from counting_oracle import brute_counts


def brute_strict(points):
    points = np.asarray(points, dtype=float)
    return np.array(
        [np.sum(np.all(points < row, axis=1)) for row in points], dtype=np.int64
    )


def brute_weak(points):
    points = np.asarray(points, dtype=float)
    return np.array(
        [np.sum(np.all(points <= row, axis=1)) for row in points], dtype=np.int64
    )


@st.composite
def point_clouds(draw):
    m = draw(st.integers(min_value=1, max_value=200))
    d = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    pts = rng.random((m, d))
    variant = draw(st.sampled_from(("plain", "ties", "neighbours", "duplicates")))
    half = m // 2
    if variant == "ties":
        # coarse rounding forces ties in every column
        pts = np.round(pts, 1)
    elif variant == "neighbours":
        # adjacent doubles: distinct values one unit in the last place apart
        pts[half:] = np.nextafter(pts[: m - half], 1.0)
    elif variant == "duplicates":
        # the second half repeats the first half row for row
        pts[half:] = pts[: m - half]
    return pts


@given(point_clouds())
def test_strict_counts_match_brute_force(pts):
    assert np.array_equal(counting.strict_dominance_counts(pts), brute_strict(pts))


@given(point_clouds())
def test_weak_counts_match_brute_force(pts):
    assert np.array_equal(counting.weak_dominance_counts(pts), brute_weak(pts))


@given(point_clouds())
def test_weak_counts_include_self(pts):
    assert np.all(counting.weak_dominance_counts(pts) >= 1)


def test_weak_equals_strict_plus_one_without_ties():
    rng = np.random.default_rng(5)
    pts = rng.random((4000, 2))
    strict = counting.strict_dominance_counts(pts)
    weak = counting.weak_dominance_counts(pts)
    assert np.array_equal(weak, strict + 1)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_merge_path_agrees_with_brute_force_medium(d):
    rng = np.random.default_rng(17 + d)
    pts = rng.random((5000, d))
    assert np.array_equal(counting.strict_dominance_counts(pts), brute_strict(pts))


def test_adjacent_doubles_stay_distinct_on_the_merge_path():
    # tie-free columns one unit in the last place apart take the merge
    # path, which must keep them distinct
    pts = np.array([[0.0, 0.5], [1.0, np.nextafter(0.5, 1.0)], [2.0, 0.0], [3.0, 1.0]])
    assert not counting.has_column_ties(pts)
    assert np.array_equal(counting.strict_dominance_counts(pts), [0, 1, 0, 3])
    assert np.array_equal(counting.strict_dominance_counts(pts), brute_strict(pts))


def test_cross_weak_counts_against_brute_force():
    rng = np.random.default_rng(3)
    ref = rng.random((800, 2))
    qry = rng.random((150, 2))
    expected = np.array(
        [np.sum(np.all(ref <= row, axis=1)) for row in qry], dtype=np.int64
    )
    assert np.array_equal(counting.cross_weak_counts(ref, qry), expected)


def test_cross_weak_counts_on_reference_rows_is_weak_count():
    rng = np.random.default_rng(9)
    ref = rng.random((600, 3))
    assert np.array_equal(
        counting.cross_weak_counts(ref, ref), counting.weak_dominance_counts(ref)
    )


def test_comonotone_counts_are_ranks():
    x = np.linspace(0.01, 0.99, 250)
    pts = np.column_stack([x, x])
    assert np.array_equal(
        counting.strict_dominance_counts(pts), np.arange(250, dtype=np.int64)
    )


def test_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        counting.strict_dominance_counts(np.empty((0, 2)))
    with pytest.raises(ValueError):
        counting.strict_dominance_counts(np.array([[0.1, np.nan]]))


@given(
    m=st.sampled_from((1, 2, 3, 4, 255, 256, 257, 1023, 1024, 1025, 3001)),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    variant=st.sampled_from(("plain", "neighbours")),
)
def test_three_column_kernel_matches_brute_force(m, seed, variant):
    pts = np.random.default_rng(seed).random((m, 3))
    if variant == "neighbours":
        half = m // 2
        pts[half:] = np.nextafter(pts[: m - half], 1.0)
    assume(not counting.has_column_ties(pts))
    assert np.array_equal(
        counting.strict_dominance_counts(pts), brute_counts(pts, pts, True)
    )


def test_three_column_kernel_matches_brute_force_large():
    pts = np.random.default_rng(2024).random((20_000, 3))
    assert np.array_equal(
        counting.strict_dominance_counts(pts), brute_counts(pts, pts, True)
    )


def test_tie_free_three_columns_never_reach_the_brute_path():
    pts = np.random.default_rng(8).random((300, 3))
    expected = brute_strict(pts)
    strict = counting.strict_dominance_counts(pts)
    assert np.array_equal(strict, expected)
    assert np.array_equal(counting.weak_dominance_counts(pts), strict + 1)


@pytest.mark.parametrize(
    "d, decimals", [(1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2), (4, None)]
)
def test_strict_counts_never_reach_the_brute_path(d, decimals):
    pts = np.random.default_rng(8).random((300, d))
    if decimals is not None:
        pts = np.round(pts, decimals)
    assert counting.has_column_ties(pts) == (decimals is not None)
    expected = brute_strict(pts)
    assert np.array_equal(counting.strict_dominance_counts(pts), expected)


@st.composite
def cross_clouds(draw):
    # a reference cloud and a query cloud of another size, part of whose
    # rows are copied, rounded or nextafter-shifted reference rows
    d = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=150))
    q = draw(st.integers(min_value=1, max_value=150).filter(lambda q: q != m))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    ref = rng.random((m, d))
    qry = rng.random((q, d))
    variant = draw(
        st.sampled_from(("plain", "copies", "rounded", "neighbours", "ties"))
    )
    k = min(m, q)
    if variant == "copies":
        qry[:k] = ref[:k]
    elif variant == "rounded":
        qry[:k] = np.round(ref[:k], 1)
    elif variant == "neighbours":
        qry[:k] = np.nextafter(ref[:k], draw(st.sampled_from((0.0, 1.0))))
    elif variant == "ties":
        ref = np.round(ref, 1)
        qry = np.round(qry, 1)
    return ref, qry


@given(cross_clouds())
def test_cross_weak_counts_match_the_oracle(clouds):
    ref, qry = clouds
    assert np.array_equal(
        counting.cross_weak_counts(ref, qry), brute_counts(ref, qry, False)
    )
