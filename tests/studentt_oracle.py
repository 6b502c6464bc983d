"""Student-t pair-copula fit with an L-BFGS-B search over rho, the oracle for the Newton profile.

``lbfgsb_fit_studentt(u, v, tau_init)`` profiles the likelihood over the
same 12-point nu grid as ``bicop._fit_studentt`` and always refines nu by
bounded Brent around the grid's best point, also at a bound of nu, where
``_fit_studentt`` stops once one step inward fails to beat the bound.  It
maximises over rho at each nu with scipy's L-BFGS-B and finite-difference
gradients instead of the closed-form score, and returns
``((rho, nu), loglik, converged)``.
"""

import numpy as np
from scipy import optimize, special

from powerdep.bicop import _PARAM_BOUNDS, _t_logpdf_quant


def lbfgsb_fit_studentt(u, v, tau_init):
    rho_bounds = _PARAM_BOUNDS["studentt"][0]
    nu_lo, nu_hi = _PARAM_BOUNDS["studentt"][1]
    rho0 = float(np.clip(tau_init, *rho_bounds))

    def profile(nu):
        qx = special.stdtrit(nu, u)
        qy = special.stdtrit(nu, v)
        res = optimize.minimize(
            lambda x: -float(np.sum(_t_logpdf_quant(qx, qy, x[0], nu))),
            x0=[rho0],
            method="L-BFGS-B",
            bounds=[rho_bounds],
            options={"maxiter": 100, "ftol": 1e-10},
        )
        return float(res.x[0]), -float(res.fun), bool(res.success)

    grid = np.geomspace(nu_lo, nu_hi, 12)
    evals = [profile(nu) for nu in grid]
    logliks = np.array([e[1] for e in evals])
    best = int(np.argmax(logliks))
    refine = optimize.minimize_scalar(
        lambda nu: -profile(nu)[1],
        bounds=(grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]),
        method="bounded",
        options={"xatol": 1e-3},
    )
    nu_hat = float(refine.x)
    rho_hat, loglik, ok = profile(nu_hat)
    if loglik < logliks[best]:
        nu_hat = float(grid[best])
        rho_hat, loglik, ok = evals[best]
    return (rho_hat, nu_hat), loglik, ok
