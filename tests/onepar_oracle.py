"""One-parameter pair-copula fit by L-BFGS-B, the oracle for the closed-form Newton.

``lbfgsb_fit_one_param(family, u, v, tau_init)`` maximises the summed base
log density of a Gaussian, Clayton, Gumbel or Frank copula over its
parameter bounds with scipy's L-BFGS-B and finite-difference gradients,
from the same start as ``bicop._fit_one_param``.  It returns
``((theta,), loglik, converged)``.
"""

import numpy as np
from scipy import optimize

from powerdep.bicop import _BASE, _LOGPDF, _PARAM_BOUNDS


def lbfgsb_fit_one_param(family, u, v, tau_init):
    lo, hi = _PARAM_BOUNDS[family][0]
    logpdf = _BASE[family][_LOGPDF]
    res = optimize.minimize(
        lambda theta: -float(np.sum(logpdf(u, v, theta[0]))),
        x0=[float(np.clip(tau_init, lo, hi))],
        method="L-BFGS-B",
        bounds=[(lo, hi)],
        options={"maxiter": 200, "ftol": 1e-10},
    )
    return (float(res.x[0]),), -float(res.fun), bool(res.success)
