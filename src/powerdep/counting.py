"""Componentwise dominance counting on multivariate samples.

These counters back the empirical Kendall function and the tail
conditioning estimators.  Strict counts come from one recursive kernel,
Bentley's (1980) divide-and-conquer: each level counts within segments
of rows sorted by column 0 by a call on one column fewer, and one column
is a rank.  It takes O(m log^d m) for d >= 2 columns and is exact for
any input, ties included, because every value is keyed by an integer
rank, so neighbouring doubles stay distinct however close they are.

Weak counts of inputs with column ties and ``cross_weak_counts`` take an
exact chunked O(m^2) scan that prunes on the first coordinate.
"""

from __future__ import annotations

import numpy as np

# upper bound on the number of cells materialised per brute-force chunk
_CHUNK_CELLS = 40_000_000


def _as_points(points):
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a non-empty (m, d) array")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
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


def _strict_counts(points):
    # Bentley's (1980) offline dominance count, one recursion for every
    # column count.  Rows are sorted by column 0, ties broken by column 1
    # descending, so no earlier row that ties a row in column 0 is below it
    # in column 1 (rows tied in both are below neither, in either order).
    # At each level w a row in the right half of its size-2w segment gains
    # the left-half rows strictly below it in the other columns,
    # S_2w - S_w, where S_s counts those rows within the row's size-s
    # segment by one count on d - 1 columns: offsetting every rank by
    # segment * m puts the seg * s rows of earlier segments below all
    # others and those of later segments above.  Keys stay below m^2 + m.
    m, d = points.shape
    if d == 1:
        return _smaller_counts(points[:, 0])
    ranks = np.column_stack([_smaller_counts(points[:, c]) for c in range(d)])
    order = np.argsort(ranks[:, 0] * m + (m - 1 - ranks[:, 1]))
    rest = ranks[order, 1:]
    pos = np.arange(m)
    partial = np.zeros(m, dtype=np.int64)
    inner = np.zeros(m, dtype=np.int64)
    width = 1
    while width < m:
        size = 2 * width
        seg = pos // size
        outer = _strict_counts(rest + (seg * m)[:, None]) - seg * size
        right = pos % size >= width
        partial[right] += outer[right] - inner[right]
        inner = outer
        width = size
    counts = np.empty(m, dtype=np.int64)
    counts[order] = partial
    return counts


def _brute_counts(points, queries, strict):
    # counts, for each query row, the reference rows componentwise below it;
    # strict=True uses < on every coordinate, strict=False uses <=.
    n = points.shape[0]
    nq = queries.shape[0]
    order = np.argsort(points[:, 0], kind="stable")
    ref = points[order]
    side = "left" if strict else "right"
    prefix = np.searchsorted(ref[:, 0], queries[:, 0], side=side)
    counts = np.zeros(nq, dtype=np.int64)
    chunk = max(1, int(_CHUNK_CELLS // max(1, n)))
    for a in range(0, nq, chunk):
        b = min(nq, a + chunk)
        pre = prefix[a:b]
        top = int(pre.max()) if b > a else 0
        if top == 0:
            continue
        mask = np.arange(top)[None, :] < pre[:, None]
        for col in range(1, points.shape[1]):
            if strict:
                mask &= ref[:top, col][None, :] < queries[a:b, col][:, None]
            else:
                mask &= ref[:top, col][None, :] <= queries[a:b, col][:, None]
        counts[a:b] = mask.sum(axis=1)
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
    column and O(m log^d m) for d >= 2, exact with column ties.
    """
    return _strict_counts(_as_points(points))


def weak_dominance_counts(points):
    """Count rows weakly below each row (``<=`` in all coordinates).

    The row itself always satisfies the comparison, so every count is at
    least 1; dividing by ``m`` gives the empirical joint CDF evaluated at
    the sample points.
    """
    pts = _as_points(points)
    if has_column_ties(pts):
        return _brute_counts(pts, pts, strict=False)
    return strict_dominance_counts(pts) + 1


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
    """
    ref = _as_points(reference)
    qry = _as_points(queries)
    if ref.shape[1] != qry.shape[1]:
        raise ValueError("reference and queries must share a column count")
    return _brute_counts(ref, qry, strict=False)
