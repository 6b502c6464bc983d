"""Induced Spearman matrix from ``scipy.stats.rankdata`` ranks, the oracle for ``vine``.

``induced_spearman(sample, n_mc)`` is the estimate and batch standard
error that ``vine.induced_spearman`` returned before it ranked by
argsort: every block (the ``n_mc`` prefix and each of 20 batches) is
ranked with ``stats.rankdata``, average ranks for ties.
"""

import numpy as np
from scipy import stats

from powerdep.errors import DomainError
from powerdep.taildep import sample_prefix


def _rank_corr(block):
    # Spearman matrix of the columns, exactly symmetric with a unit diagonal
    rho = np.corrcoef(stats.rankdata(block, axis=0), rowvar=False)
    upper = np.triu(rho, 1)
    return upper + upper.T + np.eye(block.shape[1])


def induced_spearman(sample, n_mc):
    """Model-implied Spearman matrix from the first ``n_mc`` rows of a vine sample.

    Returns the estimate matrix and its Monte Carlo standard error
    matrix, the spread of the estimate over 20 equal batches.
    """
    n_mc = int(n_mc)
    if n_mc < 10_000:
        raise DomainError("n_mc must be at least 10000")
    u = sample_prefix(sample, n_mc)
    n_batches = 20
    size = n_mc // n_batches
    batches = [_rank_corr(u[k * size : (k + 1) * size]) for k in range(n_batches)]
    stderr = np.std(batches, axis=0, ddof=1) / np.sqrt(n_batches)
    return _rank_corr(u), stderr
