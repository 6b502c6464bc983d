"""Induced Spearman matrix from ``scipy.stats.rankdata`` ranks, the oracle for ``vine``.

``induced_spearman(sample, n_mc)`` is the estimate and stream standard
error of ``vine.induced_spearman``, with every block (the ``n_mc`` prefix
and each of the 16 streams, rows r, r + 16, ... of the first
16 * (n_mc // 16) rows) ranked by ``stats.rankdata``, average ranks for
ties.
"""

import numpy as np
from scipy import stats

from powerdep.errors import DomainError
from powerdep.vine import sample_prefix


def _rank_corr(block):
    # Spearman matrix of the columns, exactly symmetric with a unit diagonal
    rho = np.corrcoef(stats.rankdata(block, axis=0), rowvar=False)
    upper = np.triu(rho, 1)
    return upper + upper.T + np.eye(block.shape[1])


def induced_spearman(sample, n_mc):
    """Model-implied Spearman matrix from the first ``n_mc`` rows of a vine sample.

    Returns the estimate matrix and its Monte Carlo standard error
    matrix, the spread of the estimate over 16 interleaved streams.
    """
    n_mc = int(n_mc)
    if n_mc < 10_000:
        raise DomainError("n_mc must be at least 10000")
    u = sample_prefix(sample, n_mc)
    n_streams = 16
    head = u[: n_streams * (n_mc // n_streams)]
    streams = [_rank_corr(head[r::n_streams]) for r in range(n_streams)]
    stderr = np.std(streams, axis=0, ddof=1) / np.sqrt(n_streams)
    return _rank_corr(u), stderr
