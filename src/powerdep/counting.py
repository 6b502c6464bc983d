"""Componentwise dominance counting on multivariate samples.

These counters back the empirical Kendall function and the tail
conditioning estimators.  Strict counts take O(m log^2 m) for two
columns, through a bottom-up merge pass, and O(m log^3 m) for three,
through Bentley's (1980) divide-and-conquer over column 0 with one merge
pass per level.  Inputs with column ties, four or more columns and
``cross_weak_counts`` take an exact chunked O(m^2) scan that prunes on
the first coordinate.

Counts are exact.  The merge pass keys each value by its exact rank
(integers in float64), so neighbouring doubles stay distinct however
close they are.  The fast paths require tie-free columns (the continuous
samples produced elsewhere in the package never tie).
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


def _prior_smaller_counts(values):
    # counts[p] = #{q < p : values[q] < values[p]} for a tie-free 1-d array,
    # via bottom-up merge counting with per-block key offsets so that one
    # global searchsorted serves every block at each level.
    n = values.size
    if n < 2:
        return np.zeros(n, dtype=np.int64)
    # exact integer keys: ranks in [0, n), padding n, block offsets
    # (n + 1) * block, all far below 2**53
    size = 1 << int(n - 1).bit_length()
    buf = np.full(size, float(n))
    buf[np.argsort(values)] = np.arange(n)
    idx = np.arange(size)
    counts = np.zeros(size, dtype=np.int64)
    width = 1
    while width < size:
        nblocks = size // (2 * width)
        block_vals = buf.reshape(nblocks, 2 * width)
        block_idx = idx.reshape(nblocks, 2 * width)
        offsets = (n + 1.0) * np.arange(nblocks)
        left_keys = (block_vals[:, :width] + offsets[:, None]).ravel()
        right_keys = (block_vals[:, width:] + offsets[:, None]).ravel()
        pos = np.searchsorted(left_keys, right_keys, side="left")
        pos = pos - np.repeat(np.arange(nblocks) * width, width)
        counts[block_idx[:, width:].ravel()] += pos
        order = np.argsort(block_vals, axis=1, kind="stable")
        buf = np.take_along_axis(block_vals, order, axis=1).ravel()
        idx = np.take_along_axis(block_idx, order, axis=1).ravel()
        width *= 2
    return counts[:n]


def _strict_2d(points):
    order = np.argsort(points[:, 0], kind="stable")
    partial = _prior_smaller_counts(points[order, 1])
    counts = np.empty(points.shape[0], dtype=np.int64)
    counts[order] = partial
    return counts


def _strict_3d(points):
    # Bentley's offline dominance count over rows sorted by column 0: at
    # each level w a row in the right half of its size-2w segment gains the
    # left-half rows below it in columns 1 and 2, S_2w - S_w, where S_s
    # counts those rows within the row's size-s segment by one 2-D merge
    # pass over the rows ordered by (segment, rank in column 1).
    m = points.shape[0]
    order = np.argsort(points[:, 0], kind="stable")
    pts = points[order]
    rank1 = np.argsort(np.argsort(pts[:, 1]))
    rank2 = np.argsort(np.argsort(pts[:, 2]))
    pos = np.arange(m)
    partial = np.zeros(m, dtype=np.int64)
    inner = np.zeros(m, dtype=np.int64)
    width = 1
    while width < m:
        size = 2 * width
        seg = pos // size
        by_rank1 = np.argsort(seg * m + rank1)
        seg_sorted = seg[by_rank1]
        outer = np.empty(m, dtype=np.int64)
        # the seg * size rows of earlier segments come first, all with
        # smaller keys
        outer[by_rank1] = (
            _prior_smaller_counts(seg_sorted * m + rank2[by_rank1])
            - seg_sorted * size
        )
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
    Tie-free inputs take O(m log^2 m) for two columns and O(m log^3 m)
    for three; column ties and four or more columns take the exact
    O(m^2) scan.
    """
    pts = _as_points(points)
    m, d = pts.shape
    if d == 1:
        order = np.sort(pts[:, 0])
        return np.searchsorted(order, pts[:, 0], side="left").astype(np.int64)
    if d in (2, 3) and not has_column_ties(pts):
        return _strict_2d(pts) if d == 2 else _strict_3d(pts)
    return _brute_counts(pts, pts, strict=True)


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
