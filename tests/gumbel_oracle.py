"""Bisection inverse of the Gumbel h-function, the oracle for its closed form.

``bisect_hinv(p, v, theta)`` halves the bracket [1e-12, 1 - 1e-12] 64
times on the monotone conditional CDF, so it needs no algebra beyond
``_gumbel_hfunc_base``.
"""

import numpy as np

from powerdep.bicop import EPS, _gumbel_hfunc_base


def bisect_hinv(p, v, theta):
    p_arr, v_arr = np.broadcast_arrays(
        np.asarray(p, dtype=np.float64), np.asarray(v, dtype=np.float64)
    )
    lo = np.full(p_arr.shape, EPS)
    hi = np.full(p_arr.shape, 1.0 - EPS)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = _gumbel_hfunc_base(mid, v_arr, theta) < p_arr
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)
