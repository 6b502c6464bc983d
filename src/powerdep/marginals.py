"""AR(p)-GARCH(1,1) marginal models with calendar dummies.

The mean equation regresses the series on a fixed set of its own lags and
on calendar dummy columns; the innovation variance follows a GARCH(1,1)
recursion with Gaussian innovations.  All parameters are estimated in one
joint maximum-likelihood pass, optimised in an unconstrained
parameterisation (log variance level, simplex-mapped ARCH/GARCH weights)
so stationarity and positivity hold at every iterate.

One filter, ``_garch_filter``, turns (design, target, parameters) into
the mean residuals, the variance path started at their sample variance,
and the Gaussian negative log-likelihood.  The optimiser's objective and
the fitted paths both go through it, so the fit's residuals are the
filter's at the optimum.  The optimiser also gets the exact score:
``_garch_score`` takes the filter's residuals and variance path and
returns the gradient from one reverse pass of the variance recursion
(Fiorentini, Calzolari & Panattoni 1996, J. Appl. Econometrics), in
O(T k) instead of k + 1 filter passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import optimize, special
from scipy.signal import lfilter

from .bicop import EPS
from .errors import (
    DegenerateSeriesError,
    DomainError,
    OptimizationError,
)

#: hard stationarity margin: alpha + beta <= 1 - _STATIONARITY_GAP
_STATIONARITY_GAP = 1e-6

#: floor of the initial variance sigma2[0] = var(eps)
_VAR_FLOOR = 1e-300

_LOG_2PI = np.log(2.0 * np.pi)

DEFAULT_LAG_SETS = {
    "price": (1, 2, 7),
    "demand": (1,),
    "wind": (1,),
    "solar": (1,),
}


@dataclass(frozen=True)
class MarginalSpec:
    """Configuration of one marginal model.

    Parameters
    ----------
    lag_set : tuple of int
        Autoregressive lags of the mean equation, strictly positive,
        strictly increasing.  Need not be contiguous.
    n_dummies : int
        Number of calendar dummy columns expected (14 for the standard
        month/weekend encoding; 0 for plain time-series use).
    """

    lag_set: tuple = (1,)
    n_dummies: int = 14

    def __post_init__(self):
        lags = tuple(int(l) for l in self.lag_set)
        if not lags or any(l <= 0 for l in lags) or list(lags) != sorted(set(lags)):
            raise DomainError("lag_set must be strictly increasing positive integers")
        object.__setattr__(self, "lag_set", lags)
        if self.n_dummies < 0:
            raise DomainError("n_dummies must be non-negative")

    @property
    def max_lag(self):
        return self.lag_set[-1]

    @classmethod
    def for_variable(cls, variable, n_dummies=14):
        return cls(lag_set=DEFAULT_LAG_SETS.get(variable, (1,)), n_dummies=n_dummies)


@dataclass
class MarginalFit:
    """Fitted AR-GARCH marginal.

    ``residuals`` (standardized) has length ``T - max_lag``; the first
    ``max_lag`` observations only feed the lagged regressors.
    """

    spec: MarginalSpec
    phi: np.ndarray
    psi: np.ndarray
    omega: float
    alpha: float
    beta: float
    residuals: np.ndarray
    loglik: float
    converged: bool
    n_iter: int
    boundary: bool
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self):
        return {
            "spec": {
                "lag_set": list(self.spec.lag_set),
                "n_dummies": self.spec.n_dummies,
                "innovation": "gaussian",
            },
            "params": {
                "phi": [float(x) for x in self.phi],
                "psi": [float(x) for x in self.psi],
                "omega": float(self.omega),
                "alpha": float(self.alpha),
                "beta": float(self.beta),
            },
            "loglik": float(self.loglik),
            "diagnostics": {
                "converged": bool(self.converged),
                "n_iter": int(self.n_iter),
                "boundary": bool(self.boundary),
                **self.diagnostics,
            },
        }


def _dummy_matrix(dummies, n_expected, length):
    if n_expected == 0:
        return np.zeros((length, 0))
    if dummies is None:
        raise DomainError("dummies are required when the spec declares dummy columns")
    mat = np.asarray(dummies, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[1] != n_expected:
        raise DomainError(
            f"dummy matrix must have {n_expected} columns, got shape {mat.shape}"
        )
    if mat.shape[0] < length:
        raise DomainError("dummy matrix is shorter than the series")
    return mat[:length]


def _design(series, dmat, lag_set):
    max_lag = lag_set[-1]
    t_eff = series.size - max_lag
    cols = [series[max_lag - lag : max_lag - lag + t_eff] for lag in lag_set]
    return np.column_stack(cols + [dmat[max_lag:]]), series[max_lag:]


def _garch_path(eps, omega, alpha, beta, sigma2_init):
    # sigma2[0] = sigma2_init; sigma2[t] = omega + alpha*eps[t-1]^2 + beta*sigma2[t-1]
    drive = omega + alpha * eps[:-1] ** 2
    if drive.size == 0:
        return np.array([sigma2_init])
    rest = lfilter([1.0], [1.0, -beta], drive, zi=[beta * sigma2_init])[0]
    return np.concatenate(([sigma2_init], rest))


def _garch_filter(design, target, mean, omega, alpha, beta):
    """Mean residuals, GARCH variance path and Gaussian negative log-likelihood.

    The variance recursion starts at the sample variance of the
    residuals.  A variance path that is not finite and positive gets a
    negative log-likelihood of ``inf``; that check runs before any
    logarithm is taken.
    """
    eps = target - design @ mean
    sigma2_init = max(float(np.var(eps)), _VAR_FLOOR)
    sigma2 = _garch_path(eps, omega, alpha, beta, sigma2_init)
    if not np.all(np.isfinite(sigma2)) or np.any(sigma2 <= 0.0):
        return eps, sigma2, np.inf
    return eps, sigma2, 0.5 * np.sum(_LOG_2PI + np.log(sigma2) + eps * eps / sigma2)


def _garch_score(design, eps, sigma2, alpha, beta):
    """Gradient of ``_garch_filter``'s negative log-likelihood.

    Takes the filter's residuals ``eps`` and variance path ``sigma2`` and
    returns the derivatives with respect to (mean, omega, alpha, beta).
    The adjoint lam_t = d nll / d sigma2_t solves lam_t = g_t +
    beta lam_{t+1}, with g_t = (1/sigma2_t - eps_t^2/sigma2_t^2) / 2, in
    one reverse pass of the variance recursion.  A mean coefficient acts
    on eps_t directly, through the ARCH drive of sigma2_{t+1}, and
    through sigma2_0 = var(eps) unless the variance floor binds.
    """
    w = 1.0 / sigma2
    g = 0.5 * w * (1.0 - eps * eps * w)
    lam = lfilter([1.0], [1.0, -beta], g[::-1])[::-1]
    lead = lam[1:]
    # d nll / d eps_t, so that d nll / d mean = -design.T @ d_eps
    d_eps = eps * w
    d_eps[:-1] += 2.0 * alpha * lead * eps[:-1]
    if sigma2[0] > _VAR_FLOOR:
        d_eps += lam[0] * 2.0 / eps.size * (eps - eps.mean())
    return -(design.T @ d_eps), lead.sum(), lead @ (eps[:-1] ** 2), lead @ sigma2[:-1]


def _unpack(x, n_mean):
    mean = x[:n_mean]
    omega = np.exp(x[n_mean])
    total = (1.0 - _STATIONARITY_GAP) * special.expit(x[n_mean + 1])
    frac = special.expit(x[n_mean + 2])
    return mean, omega, total * frac, total * (1.0 - frac)


def _negloglik(x, design, target):
    """Optimiser objective in the unconstrained ``x`` and its exact gradient.

    A variance path that is not finite and positive reads ``1e10`` with
    a zero gradient.
    """
    n_mean = design.shape[1]
    mean, omega, alpha, beta = _unpack(x, n_mean)
    eps, sigma2, val = _garch_filter(design, target, mean, omega, alpha, beta)
    if not np.isfinite(val):
        return 1e10, np.zeros_like(x)
    d_mean, d_omega, d_alpha, d_beta = _garch_score(design, eps, sigma2, alpha, beta)
    # chain rule through _unpack: alpha = total * frac, beta = total * (1 - frac),
    # d total / dx = total * expit(-x), d frac / dx = frac * (1 - frac);
    # d_total is total * d nll / d total
    total, frac = alpha + beta, special.expit(x[n_mean + 2])
    d_total = (d_alpha * frac + d_beta * (1.0 - frac)) * total
    d_frac = (d_alpha - d_beta) * total * frac * (1.0 - frac)
    return val, np.concatenate(
        [d_mean, [d_omega * omega, d_total * special.expit(-x[n_mean + 1]), d_frac]]
    )


def _pack(mean, omega, alpha, beta):
    total = np.clip((alpha + beta) / (1.0 - _STATIONARITY_GAP), 1e-12, 1.0 - 1e-12)
    frac = np.clip(alpha / max(alpha + beta, 1e-300), 1e-12, 1.0 - 1e-12)
    return np.concatenate(
        [mean, [np.log(max(omega, 1e-300)), special.logit(total), special.logit(frac)]]
    )


def fit_ar_garch(series, dummies, spec):
    """Fit the AR-GARCH marginal by joint maximum likelihood.

    Parameters
    ----------
    series : array_like, shape (T,)
        Daily observations of one variable at a fixed hour.
    dummies : array_like or None
        Dummy matrix aligned with ``series`` (``spec.n_dummies`` columns).
    spec : MarginalSpec

    Returns
    -------
    MarginalFit

    Raises
    ------
    DegenerateSeriesError
        For constant input or zero-variance mean residuals.
    OptimizationError
        If the optimiser reports failure; carries the last iterate.
    """
    y = np.asarray(series, dtype=np.float64)
    if y.ndim != 1:
        raise DomainError("series must be one-dimensional")
    if not np.all(np.isfinite(y)):
        raise DomainError("series contains non-finite values")
    max_lag = spec.max_lag
    if y.size <= max_lag + 50:
        raise DomainError(
            f"series length {y.size} is too short for max lag {max_lag} (need > {max_lag + 50})"
        )
    if np.ptp(y) == 0.0:
        raise DegenerateSeriesError("series is constant")

    dmat = _dummy_matrix(dummies, spec.n_dummies, y.size)
    design, target = _design(y, dmat, spec.lag_set)
    t_eff = target.size

    mean0, *_ = np.linalg.lstsq(design, target, rcond=None)
    eps0 = target - design @ mean0
    var0 = float(np.var(eps0))
    if var0 <= 0.0:
        raise DegenerateSeriesError("mean-equation residuals have zero variance")

    alpha0, beta0 = 0.05, 0.85
    omega0 = var0 * (1.0 - alpha0 - beta0)
    res = optimize.minimize(
        _negloglik,
        _pack(mean0, omega0, alpha0, beta0),
        args=(design, target),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 500, "ftol": 1e-8},
    )
    mean, omega, alpha, beta = _unpack(res.x, mean0.size)
    if not res.success and "ABNORMAL" in str(res.message).upper():
        raise OptimizationError(
            f"AR-GARCH optimisation failed: {res.message}",
            last_params={
                "phi": list(mean[: len(spec.lag_set)]),
                "psi": list(mean[len(spec.lag_set) :]),
                "omega": float(omega),
                "alpha": float(alpha),
                "beta": float(beta),
            },
        )

    eps, sigma2, _ = _garch_filter(design, target, mean, omega, alpha, beta)
    eta = eps / np.sqrt(sigma2)
    boundary = bool(alpha + beta > 1.0 - _STATIONARITY_GAP - 1e-4)
    return MarginalFit(
        spec=spec,
        phi=mean[: len(spec.lag_set)].copy(),
        psi=mean[len(spec.lag_set) :].copy(),
        omega=float(omega),
        alpha=float(alpha),
        beta=float(beta),
        residuals=eta,
        loglik=-float(res.fun),
        converged=bool(res.success),
        n_iter=int(res.nit),
        boundary=boundary,
        diagnostics={"t_eff": t_eff, "message": str(res.message)},
    )


def pit_transform(residuals):
    """Probability integral transform of standardized residuals: the
    standard normal CDF, clipped to [EPS, 1 - EPS] inside (0, 1)."""
    u = special.ndtr(np.asarray(residuals, dtype=np.float64))
    return np.clip(u, EPS, 1.0 - EPS)


def simulate_ar_garch(fit, dummies, horizon, seed, shocks=None):
    """Simulate a series from fitted (or hand-built) AR-GARCH parameters.

    Parameters
    ----------
    fit : MarginalFit
        Only the parameter fields and spec are used.
    dummies : array_like or None
        Rows 0..horizon-1 drive the dummy terms of the emitted stretch.
    horizon : int
    seed : int or numpy.random.SeedSequence
        Ignored for the emitted stretch when ``shocks`` is given.
    shocks : array_like, shape (horizon,), optional
        Standard-normal innovations to drive the recursion with; used by
        the copula-coupled synthetic generator.

    Returns
    -------
    ndarray, shape (horizon,)
    """
    if horizon <= 0:
        raise DomainError("horizon must be positive")
    dmat = _dummy_matrix(dummies, fit.spec.n_dummies, horizon)
    rng = np.random.default_rng(seed)
    lag_set = fit.spec.lag_set
    max_lag = fit.spec.max_lag
    burn = 500 + 10 * max_lag

    if shocks is None:
        eta = rng.standard_normal(burn + horizon)
    else:
        shocks = np.asarray(shocks, dtype=np.float64)
        if shocks.shape != (horizon,):
            raise DomainError("shocks must have shape (horizon,)")
        eta = np.concatenate([rng.standard_normal(burn), shocks])

    uncond = fit.omega / max(1.0 - fit.alpha - fit.beta, _STATIONARITY_GAP)
    y = np.zeros(burn + horizon + max_lag)
    sigma2 = uncond
    eps_prev = 0.0
    for t in range(burn + horizon):
        sigma2 = fit.omega + fit.alpha * eps_prev**2 + fit.beta * sigma2
        eps = np.sqrt(sigma2) * eta[t]
        idx = t + max_lag
        ar = sum(fit.phi[i] * y[idx - lag] for i, lag in enumerate(lag_set))
        dummy_term = float(dmat[t - burn] @ fit.psi) if t >= burn else 0.0
        y[idx] = ar + dummy_term + eps
        eps_prev = eps
    return y[max_lag + burn :]


def build_fit_from_params(spec, phi, psi, omega, alpha, beta):
    """Construct a parameter-only MarginalFit (for simulation and synthesis)."""
    if omega <= 0.0:
        raise DomainError("omega must be positive")
    if alpha < 0.0 or beta < 0.0 or alpha + beta >= 1.0:
        raise DomainError("need alpha, beta >= 0 and alpha + beta < 1")
    phi = np.asarray(phi, dtype=np.float64)
    psi = np.asarray(psi, dtype=np.float64)
    if phi.shape != (len(spec.lag_set),):
        raise DomainError("phi length must match the lag set")
    if psi.shape != (spec.n_dummies,):
        raise DomainError("psi length must match n_dummies")
    return MarginalFit(
        spec=spec,
        phi=phi,
        psi=psi,
        omega=float(omega),
        alpha=float(alpha),
        beta=float(beta),
        residuals=np.empty(0),
        loglik=float("nan"),
        converged=True,
        n_iter=0,
        boundary=False,
        diagnostics={"source": "parameters"},
    )
