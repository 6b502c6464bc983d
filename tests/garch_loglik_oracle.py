"""AR-GARCH log-likelihood at given parameters, the oracle for the fit's optimum.

``ar_garch_loglik(series, dummies, spec, phi, psi, omega, alpha, beta)``
builds the design of a raw series and runs the library's one filter,
``marginals._garch_filter``, on it, so its value is directly comparable
with ``MarginalFit.loglik``.  The tests compare fitted log-likelihoods
against it at the fitted point and at random restarts.
"""

import numpy as np

from powerdep.errors import DomainError
from powerdep.marginals import _design, _dummy_matrix, _garch_filter


def ar_garch_loglik(series, dummies, spec, phi, psi, omega, alpha, beta):
    """Gaussian log-likelihood of the AR-GARCH model at given parameters.

    Uses the same effective sample and variance initialisation as
    ``fit_ar_garch``, so values are directly comparable with
    ``MarginalFit.loglik``.  Parameters whose variance path is not
    positive and finite give ``-inf``.
    """
    _, _, nll = _refilter(series, dummies, spec, phi, psi, omega, alpha, beta)
    return -float(nll)


def _refilter(series, dummies, spec, phi, psi, omega, alpha, beta):
    """Build the design of a raw series, then run ``_garch_filter`` on it."""
    y = np.asarray(series, dtype=np.float64)
    if y.size <= spec.max_lag:
        raise DomainError("series shorter than the maximum lag")
    dmat = _dummy_matrix(dummies, spec.n_dummies, y.size)
    design, target = _design(y, dmat, spec.lag_set)
    mean = np.concatenate([np.asarray(phi, float), np.asarray(psi, float)])
    return _garch_filter(design, target, mean, omega, alpha, beta)
