"""Closed-form Kendall functions, the oracle for the empirical one.

``analytic_kendall_fn`` covers independence (any dim >= 2, no
parameter) and the bivariate Clayton (theta > 0) and Gumbel
(theta >= 1) copulas.  Its ``evaluate`` and ``inverse`` follow the
interface of ``taildep.KendallFunction``; the inverse is found by
bisection.
"""

import math

import numpy as np

from powerdep.errors import DomainError


def _independence_kendall(t, dim):
    # K(t) = t * sum_{k<d} (-ln t)^k / k!, with K(0) = 0 taken as the limit.
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros(t.shape)
    pos = t > 0.0
    tp = t[pos]
    acc = np.zeros(tp.shape)
    logs = -np.log(tp)
    for k in range(dim):
        acc += logs**k / math.factorial(k)
    out[pos] = tp * acc
    return np.minimum(out, 1.0)


def _archimedean_kendall(t, family, theta):
    # K(t) = t - phi(t)/phi'(t) for a strict generator phi.
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros(t.shape)
    pos = t > 0.0
    tp = t[pos]
    if family == "clayton":
        out[pos] = tp * (1.0 + (1.0 - tp**theta) / theta)
    else:  # gumbel
        with np.errstate(invalid="ignore"):
            out[pos] = tp - tp * np.log(tp) / theta
    return np.clip(out, 0.0, 1.0)


def _numeric_inverse(evaluate, q):
    # Bisection for the generalized inverse of a nondecreasing CDF on [0,1].
    q = np.asarray(q, dtype=np.float64)
    lo = np.zeros(q.shape)
    hi = np.ones(q.shape)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        ge = evaluate(mid) >= q
        hi = np.where(ge, mid, hi)
        lo = np.where(ge, lo, mid)
    return hi


class AnalyticKendall:
    """K(t) given as a vectorised function of t in [0, 1]."""

    def __init__(self, evaluate_fn):
        self._evaluate = evaluate_fn

    def evaluate(self, t):
        out = self._evaluate(np.asarray(t, dtype=np.float64))
        return float(out) if np.ndim(t) == 0 else out

    def inverse(self, q):
        out = _numeric_inverse(self._evaluate, q)
        return float(out) if np.ndim(q) == 0 else out


def analytic_kendall_fn(family, theta=None, dim=2):
    """Closed-form Kendall function of a copula family."""
    name = str(family).lower()
    if name == "independence":
        if dim < 2:
            raise DomainError("independence Kendall function needs dim >= 2")
        if theta is not None:
            raise DomainError("independence takes no parameter")
        return AnalyticKendall(lambda t: _independence_kendall(t, int(dim)))
    if name not in ("clayton", "gumbel"):
        raise DomainError(f"no analytic Kendall function for family {family!r}")
    if dim != 2:
        raise DomainError(f"{name} Kendall function is available for dim 2 only")
    if theta is None:
        raise DomainError(f"{name} needs a parameter")
    theta = float(theta)
    if name == "clayton" and theta <= 0.0:
        raise DomainError("clayton parameter must be positive")
    if name == "gumbel" and theta < 1.0:
        raise DomainError("gumbel parameter must be at least 1")
    return AnalyticKendall(lambda t: _archimedean_kendall(t, name, theta))
