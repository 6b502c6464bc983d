"""AR-GARCH maximum likelihood with finite-difference gradients, the oracle for the score.

``fd_fit_negloglik(series, dummies, spec)`` runs the same L-BFGS-B
search as ``marginals.fit_ar_garch`` (same design, start point,
parameterisation, objective and options), but lets scipy take forward
finite differences of the objective instead of passing its exact score.
It returns the optimiser's result, whose ``fun`` is the negative
log-likelihood at its optimum.
"""

import numpy as np
from scipy import optimize

from powerdep.marginals import _design, _dummy_matrix, _negloglik, _pack


def fd_fit_negloglik(series, dummies, spec):
    y = np.asarray(series, dtype=np.float64)
    design, target = _design(y, _dummy_matrix(dummies, spec.n_dummies, y.size), spec.lag_set)
    mean0, *_ = np.linalg.lstsq(design, target, rcond=None)
    var0 = float(np.var(target - design @ mean0))
    return optimize.minimize(
        lambda x: _negloglik(x, design, target)[0],
        _pack(mean0, var0 * (1.0 - 0.05 - 0.85), 0.05, 0.85),
        method="L-BFGS-B",
        options={"maxiter": 500, "ftol": 1e-8},
    )
