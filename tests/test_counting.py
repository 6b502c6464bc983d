import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from powerdep import counting, taildep
from powerdep.errors import DomainError
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
    # a stable error code, so a study records a bad sample as a domain failure
    for points in (np.empty((0, 2)), np.array([[0.1, np.nan]])):
        with pytest.raises(DomainError) as info:
            counting.strict_dominance_counts(points)
        assert info.value.code == "domain"


def test_cross_counts_reject_a_column_count_mismatch():
    with pytest.raises(DomainError, match="column count") as info:
        counting.cross_weak_counts(np.zeros((3, 2)), np.zeros((2, 3)))
    assert info.value.code == "domain"


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


def _boundary_cloud(rng, m, d, variant):
    pts = rng.random((m, d))
    half = m // 2
    if variant == "rounded":
        pts = np.round(pts, 1)
    elif variant == "duplicates":
        pts[half:] = pts[: m - half]
    elif variant == "neighbours":
        pts[half:] = np.nextafter(pts[: m - half], 1.0)
    return pts


@pytest.mark.parametrize("variant", ["plain", "rounded", "duplicates", "neighbours"])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("leaf", [1, 2, 32, 4096])
def test_leaf_and_block_boundaries_match_the_oracle(monkeypatch, leaf, d, variant):
    # sizes on both sides of the leaf and of the first block levels; a leaf
    # of 4096 compares the whole sample directly
    monkeypatch.setattr(counting, "_LEAF", leaf)
    rng = np.random.default_rng(1000 * leaf + 10 * d + len(variant))
    for m in (1, 2, 31, 32, 33, 63, 64, 65, 1025):
        pts = _boundary_cloud(rng, m, d, variant)
        assert np.array_equal(
            counting.strict_dominance_counts(pts), brute_counts(pts, pts, True)
        ), m
        assert np.array_equal(
            counting.weak_dominance_counts(pts), brute_counts(pts, pts, False)
        ), m
        # queries of another size, half of them copies of reference rows
        qry = _boundary_cloud(rng, m + 7, d, variant)
        qry[: m // 2] = pts[: m // 2]
        assert np.array_equal(
            counting.cross_weak_counts(pts, qry), brute_counts(pts, qry, False)
        ), m


def test_lower_levels_count_within_their_blocks_only(monkeypatch):
    # every call of the one-column count is handed all m rows; the bounded
    # recursion makes m * calls its whole work.  The three-column count
    # ranks 3 columns, then at each width w = L, 2L, ..., m/2 above the
    # leaf L its two-column callee ranks 2 columns and runs its own widths
    # L, 2L, ..., w, log2(2w / L) one-column counts, since it counts within
    # blocks of 2w rows.  Unbounded, every callee ran log2(m / L) levels.
    m = 4096
    leaf = counting._LEAF
    assert leaf & (leaf - 1) == 0 and leaf < m
    pts = np.random.default_rng(44).random((m, 3))
    assert not counting.has_column_ties(pts)
    handed = []
    smaller = counting._smaller_counts

    def spy(values):
        handed.append(values.size)
        return smaller(values)

    monkeypatch.setattr(counting, "_smaller_counts", spy)
    counts = counting.strict_dominance_counts(pts)
    widths = [leaf * 2**k for k in range(int(np.log2(m // leaf)))]
    calls = 3 + sum(2 + int(np.log2(2 * w // leaf)) for w in widths)
    assert sum(handed) == m * calls
    assert np.array_equal(counts, brute_counts(pts, pts, True))


@pytest.mark.parametrize("d", [4, 5])
@pytest.mark.parametrize("rounded", [False, True])
def test_four_and_five_columns_at_size_match_the_oracle(d, rounded):
    m = 3000
    rng = np.random.default_rng(60 + d)
    corr = np.full((d, d), 0.6) + 0.4 * np.eye(d)
    z = rng.standard_normal((m, d)) @ np.linalg.cholesky(corr).T
    u = (np.argsort(np.argsort(z, axis=0), axis=0) + 1) / (m + 1)
    if rounded:
        u = np.clip(np.round(u, 2), 0.01, 0.99)
    assert counting.has_column_ties(u) == rounded
    expected = brute_counts(u, u, True)
    assert np.array_equal(counting.strict_dominance_counts(u), expected)
    fn = taildep.KendallFunction(counting.strict_dominance_counts(u), d)
    # the inverse at the middle of each step returns every order statistic
    steps = (np.arange(m) + 0.5) / m
    assert np.array_equal(fn.inverse(steps), np.sort(expected / m))
