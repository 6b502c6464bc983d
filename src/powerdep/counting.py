"""Componentwise dominance counting on multivariate samples.

These counters back the empirical Kendall function and the tail
conditioning estimators.  Every count comes from one recursive kernel,
Bentley's (1980) divide-and-conquer for strict counts: each level counts
within segments of rows sorted by column 0 by a call on one column
fewer, and one column is a rank.  Two things keep its constant small.
The callee of a level only needs counts within the level's segments,
which are aligned blocks of its own order, so it stops its levels at the
block size instead of counting whole earlier blocks for the caller to
subtract.  And below 32 rows the levels give way to one direct
comparison of every pair of rows within aligned 32-row blocks.  It takes
O(m log^d m) for d >= 2 columns and is exact for any input, ties
included, because every value is keyed by an integer rank, so
neighbouring doubles stay distinct however close they are.

Weak counts are strict counts on a labelled union: rank the reference
and query rows together, key a reference value 2r and a query value
2r + 1, and a query row is strictly above the reference rows weakly
below it and the query rows strictly below it.  Subtracting the strict
count among the queries leaves the weak count, in O(n log^d n) for the
n reference and query rows together.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

# rows per direct-comparison block at the bottom of the recursion; a power
# of two, so blocks align with every level's segments
_LEAF = 32


def _as_points(points):
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise DomainError("points must be a non-empty (m, d) array")
    if not np.all(np.isfinite(pts)):
        raise DomainError("points must be finite")
    return pts


def has_column_ties(points):
    """True if any column of ``points`` contains a repeated value."""
    pts = _as_points(points)
    for col in range(pts.shape[1]):
        srt = np.sort(pts[:, col])
        if np.any(srt[1:] == srt[:-1]):
            return True
    return False


def _smaller_counts(values):
    # counts[i] = #{j : values[j] < values[i]}: the sorted position of the
    # first entry in each run of equal values, so exact with ties and
    # indifferent to how the sort orders them
    order = np.argsort(values)
    srt = values[order]
    starts = np.arange(srt.size)
    tied = np.flatnonzero(srt[1:] == srt[:-1]) + 1
    if tied.size:
        starts[tied] = 0
        starts = np.maximum.accumulate(starts)
    counts = np.empty(srt.size, dtype=np.int64)
    counts[order] = starts
    return counts


def _strict_counts(points, block=None):
    # Bentley's (1980) offline dominance count, one recursion for every
    # column count.  Rows are sorted by column 0, ties broken by column 1
    # descending, so no earlier row that ties a row in column 0 is below it
    # in column 1 (rows tied in both are below neither, in either order).
    # A leaf compares every pair of rows within aligned blocks of _LEAF
    # rows: ``partial`` seeds with the earlier rows strictly below in the
    # other columns and ``inner`` with all rows of the block strictly
    # below.  Then at each level w a row in the right half of its size-2w
    # segment gains the left-half rows strictly below it, S_2w - S_w,
    # where S_s counts those rows within the row's size-s segment by one
    # count on d - 1 columns: offsetting every rank by segment * m makes
    # each segment an aligned block of the callee's order, and ``block``
    # tells the callee to count within blocks only, so it stops its own
    # levels at the block size.  Keys stay below m^2 + m.
    m, d = points.shape
    if d == 1:
        counts = _smaller_counts(points[:, 0])
        # a block's rows lie above every row of the full blocks before it
        return counts if block is None else counts % block
    ranks = np.column_stack([_smaller_counts(points[:, c]) for c in range(d)])
    order = np.argsort(ranks[:, 0] * m + (m - 1 - ranks[:, 1]))
    rest = ranks[order, 1:]
    leaf = min(_LEAF, m)
    nb = -(-m // leaf)
    # pad the trailing block with rows above every rank; they count nothing
    tiles = np.full((nb * leaf, d - 1), m, dtype=np.int64)
    tiles[:m] = rest
    tiles = tiles.reshape(nb, leaf, d - 1)
    below = np.ones((nb, leaf, leaf), dtype=bool)
    for c in range(d - 1):
        below &= tiles[:, None, :, c] < tiles[:, :, None, c]
    inner = np.count_nonzero(below, axis=2).ravel()[:m]
    below &= np.tri(leaf, k=-1, dtype=bool)
    partial = np.count_nonzero(below, axis=2).ravel()[:m]
    pos = np.arange(m)
    width = leaf
    while width < min(m, block or m):
        size = 2 * width
        seg = pos // size
        outer = _strict_counts(rest + (seg * m)[:, None], size)
        right = pos % size >= width
        partial[right] += outer[right] - inner[right]
        inner = outer
        width = size
    counts = np.empty(m, dtype=np.int64)
    counts[order] = partial
    return counts


def strict_dominance_counts(points):
    """Count, for every row, the rows strictly below it in all coordinates.

    Parameters
    ----------
    points : array_like, shape (m, d)
        Sample rows.

    Returns
    -------
    ndarray of int64, shape (m,)
        ``counts[i] = #{j : points[j] < points[i] componentwise}``.

    Notes
    -----
    One recursive kernel serves every column count, in O(m log m) for one
    column and O(m log^d m) for d >= 2, exact with column ties.  Each
    level's call on one column fewer counts within that level's blocks
    only, so it runs only the levels below the block size, and rows are
    compared directly within aligned blocks of 32, which replaces the
    five lowest levels.
    """
    return _strict_counts(_as_points(points))


def weak_dominance_counts(points):
    """Count rows weakly below each row (``<=`` in all coordinates).

    The row itself always satisfies the comparison, so every count is at
    least 1; dividing by ``m`` gives the empirical joint CDF evaluated at
    the sample points.  This is ``cross_weak_counts(points, points)``,
    exact with column ties in O(m log^d m).
    """
    return cross_weak_counts(points, points)


def cross_weak_counts(reference, queries):
    """Count reference rows weakly below each query row.

    Parameters
    ----------
    reference : array_like, shape (m, d)
    queries : array_like, shape (q, d)

    Returns
    -------
    ndarray of int64, shape (q,)
        ``counts[i] = #{j : reference[j] <= queries[i] componentwise}``.

    Notes
    -----
    Two strict counts give it: one over the labelled union of both
    samples, where a reference value of union rank r is keyed 2r and a
    query value 2r + 1, less one over the queries alone.  Exact with ties,
    in O(n log^d n) for n = m + q and d >= 2 columns.
    """
    ref = _as_points(reference)
    qry = _as_points(queries)
    if ref.shape[1] != qry.shape[1]:
        raise DomainError("reference and queries must share a column count")
    m = ref.shape[0]
    union = np.vstack([ref, qry])
    keys = 2 * np.column_stack(
        [_smaller_counts(union[:, c]) for c in range(union.shape[1])]
    )
    keys[m:] += 1
    return _strict_counts(keys)[m:] - _strict_counts(qry)
