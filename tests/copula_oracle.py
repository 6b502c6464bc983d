"""Closed-form copula quantities and the vine log-likelihood, the oracle for sampling and fitting.

The analysis reads every model-level measure from a simulated vine
sample, so the library evaluates no copula CDF, density, Kendall tau,
Spearman rho or tail dependence coefficient of its own.  The tests check
the h-functions, their inverses, the sampler and the fits against these
population quantities:

- ``cdf(copula, u, v)``, ``pdf`` and ``log_pdf``, honouring the rotation;
- ``tau_of``, ``spearman_of``, ``lower_tdc`` and ``upper_tdc``;
- ``vine_loglik(model, pseudo_obs)``, which re-evaluates a fitted vine on
  data through the library's own h-function streams;
- ``sample(copula, n, seed)``, which draws pairs by conditional inversion
  through the library's base h-inverses and reflection rule, the data of
  the copula, fit and tail tests.
"""

import numpy as np
from scipy import integrate, special, stats

from powerdep.bicop import (
    EPS,
    _BASE,
    _HINV,
    _LOGPDF,
    _clayton_logs,
    _clip_unit,
    _concordance_sign,
    _frank_g,
    _frank_tau,
    _gumbel_parts,
    _reflect,
    _t_hfunc_base,
)
from powerdep.errors import DomainError, sample_size
from powerdep.vine import _check_columns, _Streams


def _gauss_cdf_base(u, v, rho):
    # Bivariate normal probability via the Plackett identity
    #   d Phi2 / d rho = phi2(h, k; rho)
    # integrated from independence with Gauss-Legendre nodes.  Smooth in
    # rho, no sign special cases, and accurate far below the 1e-4
    # finite-difference tolerance used in the tests.
    h = special.ndtri(u)
    k = special.ndtri(v)
    n_nodes = 64 if abs(rho) <= 0.9 else 256
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    r = 0.5 * rho * (nodes + 1.0)
    w = 0.5 * rho * weights
    hh = h[..., None]
    kk = k[..., None]
    omr2 = 1.0 - r * r
    dens = np.exp(-(hh * hh - 2.0 * r * hh * kk + kk * kk) / (2.0 * omr2))
    dens /= 2.0 * np.pi * np.sqrt(omr2)
    return special.ndtr(h) * special.ndtr(k) + (dens * w).sum(axis=-1)


def _t_cdf_base(u, v, rho, nu):
    # integrate the closed-form conditional over the second coordinate;
    # deterministic quadrature keeps the result smooth enough for
    # finite-difference consistency with the h-function.
    u_arr = np.asarray(u, dtype=np.float64)
    v_arr = np.asarray(v, dtype=np.float64)
    out = np.empty(np.broadcast(u_arr, v_arr).shape)
    flat = out.reshape(-1)
    ub, vb = np.broadcast_arrays(u_arr, v_arr)
    for i, (ui, vi) in enumerate(zip(ub.reshape(-1), vb.reshape(-1))):
        val, _ = integrate.quad(
            lambda w: _t_hfunc_base(ui, w, rho, nu),
            0.0,
            vi,
            epsabs=1e-11,
            epsrel=1e-11,
            limit=200,
        )
        flat[i] = val
    return out if out.ndim else float(flat[0])


def _clayton_cdf_base(u, v, theta):
    return np.exp(-_clayton_logs(u, v, theta) / theta)


def _gumbel_cdf_base(u, v, theta):
    _, log_s = _gumbel_parts(u, v, theta)
    return np.exp(-np.exp(log_s))


def _frank_cdf_base(u, v, theta):
    g1 = _frank_g(1.0, theta)
    return -np.log1p(_frank_g(u, theta) * _frank_g(v, theta) / g1) / theta


def _indep_cdf(u, v):
    return u * v


# family -> unrotated CDF, called as fn(u, v, *params)
_CDF_BASE = {
    "independence": _indep_cdf,
    "gaussian": _gauss_cdf_base,
    "studentt": _t_cdf_base,
    "clayton": _clayton_cdf_base,
    "gumbel": _gumbel_cdf_base,
    "frank": _frank_cdf_base,
}


def cdf(copula, u, v):
    """Copula CDF C(u, v), honouring the stored rotation.

    Parameters
    ----------
    copula : BivariateCopula
    u, v : array_like in [0, 1]

    Returns
    -------
    ndarray or float
        Values within the Frechet-Hoeffding bounds.
    """
    u = _clip_unit(u, "u")
    v = _clip_unit(v, "v")
    base, par, rot = _CDF_BASE[copula.family], copula.params, copula.rotation
    # one branch per rotation keeps each identity's float operation order
    if rot == 0:
        raw = base(u, v, *par)
    elif rot == 90:
        raw = v - base(1.0 - u, v, *par)
    elif rot == 180:
        raw = u + v - 1.0 + base(1.0 - u, 1.0 - v, *par)
    else:
        raw = u - base(u, 1.0 - v, *par)
    lower = np.maximum(u + v - 1.0, 0.0)
    upper = np.minimum(u, v)
    return np.clip(raw, lower, upper)


def pdf(copula, u, v):
    """Copula density c(u, v)."""
    return np.exp(log_pdf(copula, u, v))


def log_pdf(copula, u, v):
    """Natural log of the copula density, stable in the tails."""
    u = _clip_unit(u, "u")
    v = _clip_unit(v, "v")
    ur, vr = _reflect(u, v, copula.rotation)
    return _BASE[copula.family][_LOGPDF](ur, vr, *copula.params)


def _base_tau(family, params):
    if family == "independence":
        return 0.0
    if family in ("gaussian", "studentt"):
        return 2.0 / np.pi * np.arcsin(params[0])
    if family == "clayton":
        return params[0] / (params[0] + 2.0)
    if family == "gumbel":
        return 1.0 - 1.0 / params[0]
    return _frank_tau(params[0])


def tau_of(copula):
    """Population Kendall tau of the copula (sign follows the rotation)."""
    return _concordance_sign(copula.rotation) * _base_tau(copula.family, copula.params)


def _base_spearman(family, params):
    if family == "independence":
        return 0.0
    if family == "gaussian":
        return 6.0 / np.pi * np.arcsin(params[0] / 2.0)
    # numerical 12 * integral of C - 3 on a Gauss-Legendre grid; the t
    # copula CDF is quadrature-based, so fewer nodes keep it tractable
    n_nodes = 32 if family == "studentt" else 128
    nodes, weights = np.polynomial.legendre.leggauss(n_nodes)
    x = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    uu, vv = np.meshgrid(x, x)
    cvals = _CDF_BASE[family](uu, vv, *params)
    integral = float((cvals * np.outer(w, w)).sum())
    return 12.0 * integral - 3.0


def spearman_of(copula):
    """Population Spearman rho; closed form where known, else quadrature."""
    sign = _concordance_sign(copula.rotation)
    return sign * _base_spearman(copula.family, copula.params)


def _base_tail(family, params):
    # (lower, upper) tail dependence coefficients of the unrotated family
    if family == "clayton":
        return 2.0 ** (-1.0 / params[0]), 0.0
    if family == "gumbel":
        return 0.0, 2.0 - 2.0 ** (1.0 / params[0])
    if family == "studentt":
        rho, nu = params
        arg = -np.sqrt((nu + 1.0) * (1.0 - rho) / (1.0 + rho))
        lam = 2.0 * stats.t.cdf(arg, nu + 1.0)
        return lam, lam
    return 0.0, 0.0


def lower_tdc(copula):
    """Lower tail dependence coefficient lim C(t,t)/t as t -> 0."""
    lam_l, lam_u = _base_tail(copula.family, copula.params)
    if copula.rotation == 0:
        return lam_l
    if copula.rotation == 180:
        return lam_u
    return 0.0


def upper_tdc(copula):
    """Upper tail dependence coefficient lim (1-2t+C(t,t))/(1-t) as t -> 1."""
    lam_l, lam_u = _base_tail(copula.family, copula.params)
    if copula.rotation == 0:
        return lam_u
    if copula.rotation == 180:
        return lam_l
    return 0.0


def vine_loglik(model, pseudo_obs):
    """Vine log-likelihood of data under an already-fitted model."""
    u = _check_columns(pseudo_obs)
    n = model.structure.n_vars
    if u.shape[1] != n:
        raise DomainError("column count does not match the model")
    stream = _Streams({(v, frozenset()): u[:, v] for v in range(n)}, model.pair_copulas)
    total = 0.0
    for edge in model.structure.all_edges():
        total += float(np.sum(log_pdf(model.pair_copulas[edge], *stream.pair(edge))))
    return total


def sample(copula, n, seed):
    """Draw ``n`` pairs from the copula, deterministically in ``seed``.

    Uses conditional inversion on the base family and reflects the
    coordinates according to the rotation.

    Returns
    -------
    ndarray, shape (n, 2)
    """
    n = sample_size(n, "n")
    if n <= 0:
        raise DomainError("sample size must be positive")
    rng = np.random.default_rng(seed)
    w = rng.random((n, 2))
    u = np.clip(w[:, 0], EPS, 1.0 - EPS)
    p = np.clip(w[:, 1], EPS, 1.0 - EPS)
    v = _BASE[copula.family][_HINV](p, u, *copula.params)
    return np.clip(np.column_stack(_reflect(u, v, copula.rotation)), EPS, 1.0 - EPS)
