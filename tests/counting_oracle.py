"""Chunked O(m·q) dominance scan, the oracle for ``powerdep.counting``.

``brute_counts(points, queries, strict)`` compares every query row with
every reference row that precedes it in column 0, a chunk of queries at
a time, so it is exact for any input and needs no ranking.
"""

import numpy as np

# upper bound on the number of cells materialised per brute-force chunk
_CHUNK_CELLS = 40_000_000


def brute_counts(points, queries, strict):
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
