"""Bivariate copula families with rotations, fitting and selection.

Families: independence, gaussian, studentt, clayton, gumbel, frank.
Every family has a log density, which the fit maximises, and
h-functions (conditional CDFs) with their inverses, which vine fitting
and simulation chain.  Rotations of 90/180/270 degrees remap the unit
square so that single-corner families can capture the other corners and
negative dependence.

Each family's unrotated math is one row of ``_BASE``.  One reflection
rule serves every rotation: 90 or 180 reflects u, 180 or 270 reflects v
(x -> 1 - x), and a reflected free argument of an h-function or its
inverse reflects the result.  Every base family is exchangeable, so the
margin-1 h-function is the margin-2 one with u and v swapped.

Evaluation clamps pseudo-observations into [1e-12, 1 - 1e-12]; values
outside [0, 1] raise :class:`~powerdep.errors.DomainError`, and so do
parameters that are not finite.

Student-t quantiles t_nu^-1(p) come from one table, built on first use
in each process: asinh of the quantile on a 512-step grid of
z = Phi^-1(p), interpolated in z by cubic Hermite with the exact slope
and across nu by barycentric interpolation on 32 Chebyshev nodes in
1 / nu, which cover every nu > 2.  Its relative error is below 1e-9.  The
h-functions, their inverses and the nu profile of the fit read the
table; the t CDF (``special.stdtr``) stays exact, and so does the
log-likelihood a Student-t fit reports for its winner, which takes its
quantiles from ``special.stdtrit``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, optimize, special, stats

from .errors import (
    DomainError,
    FamilyInfeasibleError,
    OptimizationError,
    SelectionError,
)

EPS = 1e-12

FAMILIES = ("independence", "gaussian", "studentt", "clayton", "gumbel", "frank")
ROTATIONS = (0, 90, 180, 270)

#: Candidate order used by default in family selection; the order also
#: breaks AIC ties deterministically (first entry wins).
DEFAULT_CANDIDATES = (
    ("independence", 0),
    ("gaussian", 0),
    ("studentt", 0),
    ("clayton", 0),
    ("clayton", 90),
    ("clayton", 180),
    ("clayton", 270),
    ("gumbel", 0),
    ("gumbel", 90),
    ("gumbel", 180),
    ("gumbel", 270),
    ("frank", 0),
)

_N_PARAMS = {
    "independence": 0,
    "gaussian": 1,
    "studentt": 2,
    "clayton": 1,
    "gumbel": 1,
    "frank": 1,
}

_PARAM_BOUNDS = {
    "gaussian": ((-1.0 + 1e-6, 1.0 - 1e-6),),
    "studentt": ((-1.0 + 1e-6, 1.0 - 1e-6), (2.1, 30.0)),
    "clayton": ((1e-5, 28.0),),
    "gumbel": ((1.0, 20.0),),
    "frank": ((-35.0, 35.0),),
}


@dataclass(frozen=True)
class BivariateCopula:
    """A parametric bivariate copula with an orientation.

    Parameters
    ----------
    family : str
        One of ``FAMILIES``.
    rotation : int
        0, 90, 180 or 270 (counter-clockwise rotation of the density mass).
    params : tuple of float
        Family parameters; empty for independence.
    """

    family: str
    rotation: int = 0
    params: tuple = ()

    def __post_init__(self):
        _check_candidate(self.family, self.rotation)
        params = tuple(float(p) for p in self.params)
        object.__setattr__(self, "params", params)
        _validate_params(self.family, params)

    @property
    def n_params(self):
        return _N_PARAMS[self.family]

    def to_json_dict(self):
        return {
            "family": self.family,
            "rotation": self.rotation,
            "params": list(self.params),
        }

    @classmethod
    def from_json_dict(cls, data):
        return cls(
            family=data["family"],
            rotation=int(data["rotation"]),
            params=tuple(data["params"]),
        )


def _validate_params(family, params):
    if len(params) != _N_PARAMS[family]:
        raise DomainError(
            f"{family} expects {_N_PARAMS[family]} parameter(s), got {len(params)}"
        )
    if not all(np.isfinite(params)):
        raise DomainError(f"{family} parameters must be finite, got {params}")
    if family in ("gaussian", "studentt"):
        rho = params[0]
        if not -1.0 < rho < 1.0:
            raise DomainError(f"{family} correlation must lie in (-1, 1), got {rho}")
    if family == "studentt":
        nu = params[1]
        if not nu > 2.0:
            raise DomainError(f"studentt degrees of freedom must exceed 2, got {nu}")
    if family == "clayton" and not params[0] > 0.0:
        raise DomainError(f"clayton parameter must be positive, got {params[0]}")
    if family == "gumbel" and not params[0] >= 1.0:
        raise DomainError(f"gumbel parameter must be >= 1, got {params[0]}")
    if family == "frank" and params[0] == 0.0:
        raise DomainError("frank parameter must be non-zero")


def _clip_unit(x, name="argument"):
    arr = np.asarray(x, dtype=np.float64)
    if np.any(~np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError(f"{name} must lie in [0, 1]")
    return np.clip(arr, EPS, 1.0 - EPS)


# ---------------------------------------------------------------------------
# base-family math (unrotated, exchangeable in (u, v))
# ---------------------------------------------------------------------------


def _gauss_logpdf_base(u, v, rho):
    x = special.ndtri(u)
    y = special.ndtri(v)
    omr2 = 1.0 - rho * rho
    return -0.5 * np.log(omr2) - (
        rho * rho * (x * x + y * y) - 2.0 * rho * x * y
    ) / (2.0 * omr2)


def _gauss_hfunc_base(u, v, rho):
    x = special.ndtri(u)
    y = special.ndtri(v)
    return special.ndtr((x - rho * y) / np.sqrt(1.0 - rho * rho))


def _gauss_hinv_base(p, v, rho):
    y = special.ndtri(v)
    x = special.ndtri(p) * np.sqrt(1.0 - rho * rho) + rho * y
    return special.ndtr(x)


def _t_logpdf_quant(x, y, rho, nu):
    # log density with the t quantiles x, y already computed
    omr2 = 1.0 - rho * rho
    log_joint = (
        special.gammaln((nu + 2.0) / 2.0)
        + special.gammaln(nu / 2.0)
        - 2.0 * special.gammaln((nu + 1.0) / 2.0)
        - 0.5 * np.log(omr2)
    )
    quad_form = (x * x - 2.0 * rho * x * y + y * y) / (nu * omr2)
    log_joint = log_joint - (nu + 2.0) / 2.0 * np.log1p(quad_form)
    log_marg = (nu + 1.0) / 2.0 * (
        np.log1p(x * x / nu) + np.log1p(y * y / nu)
    )
    return log_joint + log_marg


def _t_logpdf_base(u, v, rho, nu):
    # exact quantiles: the reported loglik of a Student-t fit is this sum
    return _t_logpdf_quant(
        special.stdtrit(nu, u), special.stdtrit(nu, v), rho, nu
    )


# Student-t quantiles from one table of y = asinh(t_nu^-1(Phi(z))): a
# uniform grid of _T_STEPS cells from z = 0 down to _T_Z_LO, times _T_NODES
# Chebyshev nodes in s = 1 / nu over [0, 1/2].  The node s = 0 is the
# Gaussian limit x = z and s = 1/2 is nu = 2, so every nu > 2 lies inside.
# The odd symmetry x(-z) = -x(z) serves z > 0, and the grid starts at
# z = 0 so that p = 1/2 gives x = 0 exactly.  Phi(_T_Z_LO) ~ 1e-17 < EPS.
_T_Z_LO = -8.5
_T_STEPS = 512
_T_NODES = 32
_T_STEP = _T_Z_LO / _T_STEPS
_T_CHUNK = 1 << 14


@functools.cache
def _t_table():
    """The nodes in s, their barycentric weights, and y and step * dy/dz at each node.

    Built once per process from ``special.stdtrit``, with the exact slope
    dx/dz = phi(z) / f_nu(x).  The last array has shape (_T_NODES, 2, _T_STEPS + 1).
    """
    z = _T_STEP * np.arange(_T_STEPS + 1)
    k = np.arange(_T_NODES)
    nodes = 0.25 * (1.0 - np.cos(np.pi * k / (_T_NODES - 1)))
    weights = (-1.0) ** k
    weights[[0, -1]] *= 0.5
    nu = 1.0 / nodes[1:, None]
    x = np.vstack([z, special.stdtrit(nu, special.ndtr(z))])
    log_phi = -0.5 * (z * z + np.log(2.0 * np.pi))
    log_f = np.vstack(
        [
            log_phi,
            special.gammaln((nu + 1.0) / 2.0)
            - special.gammaln(nu / 2.0)
            - 0.5 * np.log(np.pi * nu)
            - (nu + 1.0) / 2.0 * np.log1p(x[1:] * x[1:] / nu),
        ]
    )
    slope = _T_STEP * np.exp(log_phi - log_f) / np.hypot(1.0, x)
    table = (nodes, weights, np.stack([np.arcsinh(x), slope], axis=1))
    for a in table:
        a.setflags(write=False)  # every caller shares these arrays
    return table


def _t_cells(nu):
    """Cubic Hermite coefficients of y in each grid cell, one row per entry of ``nu``.

    Barycentric interpolation in s = 1 / nu collapses the table to one row
    per nu.  Returns c of shape (4, k, _T_STEPS): at offset f in [0, 1] of
    cell j, y = c0 + f (c1 + f (c2 + f c3)).
    """
    nodes, weights, values = _t_table()
    diff = 1.0 / np.reshape(nu, (-1, 1)) - nodes
    on_node = diff == 0.0
    with np.errstate(divide="ignore"):
        lam = np.where(on_node.any(axis=1, keepdims=True), on_node, weights / diff)
    lam /= lam.sum(axis=1, keepdims=True)
    # einsum sums the nodes in order, so no row depends on BLAS threading
    y, d = np.einsum("kn,nij->ikj", lam, values)
    y0, d0, d1 = y[:, :-1], d[:, :-1], d[:, 1:]
    dy = np.diff(y, axis=1)
    return np.stack([y0, d0, 3.0 * dy - 2.0 * d0 - d1, d0 + d1 - 2.0 * dy])


def _t_positions(p):
    """z = Phi^-1(p) and the grid cell and offset of -|z|, for a 1-d p in [EPS, 1 - EPS]."""
    z = special.ndtri(p)
    frac = np.abs(z) / -_T_STEP
    cell = np.minimum(frac.astype(np.intp), _T_STEPS - 1)
    frac -= cell
    return z, cell, frac


def _t_evaluate(cells, positions):
    """The quantiles at ``positions`` for each row of ``cells``, shape (k, n)."""
    z, cell, frac = positions
    y = cells[3][:, cell]
    for c in cells[2::-1]:
        y *= frac
        y += c[:, cell]
    return np.copysign(np.sinh(y, out=y), z, out=y)


def _t_quantile(nu, p):
    """t_nu^-1(p) from the table, for one nu > 2 and p in [EPS, 1 - EPS]."""
    p = np.asarray(p, dtype=np.float64)
    flat = p.ravel()
    cells = _t_cells(nu)
    out = np.empty_like(flat)
    # chunks keep the temporaries of a long draw small
    for lo in range(0, flat.size, _T_CHUNK):
        out[lo : lo + _T_CHUNK] = _t_evaluate(cells, _t_positions(flat[lo : lo + _T_CHUNK]))[0]
    return out.reshape(p.shape)


def _t_hfunc_base(u, v, rho, nu):
    x = _t_quantile(nu, u)
    y = _t_quantile(nu, v)
    scale = np.sqrt((nu + y * y) * (1.0 - rho * rho) / (nu + 1.0))
    return special.stdtr(nu + 1.0, (x - rho * y) / scale)


def _t_hinv_base(p, v, rho, nu):
    y = _t_quantile(nu, v)
    scale = np.sqrt((nu + y * y) * (1.0 - rho * rho) / (nu + 1.0))
    x = _t_quantile(nu + 1.0, p) * scale + rho * y
    return special.stdtr(nu, x)


def _clayton_logs(u, v, theta):
    # log of s = u^-theta + v^-theta - 1 = e^hi (1 + e^(lo - hi) (1 - e^-lo)),
    # computed without overflow and without cancellation as theta -> 0
    a = -theta * np.log(u)
    b = -theta * np.log(v)
    hi = np.maximum(a, b)
    lo = np.minimum(a, b)
    return hi + np.log1p(-np.exp(lo - hi) * np.expm1(-lo))


def _clayton_logpdf_base(u, v, theta):
    log_s = _clayton_logs(u, v, theta)
    return (
        np.log1p(theta)
        - (theta + 1.0) * (np.log(u) + np.log(v))
        - (1.0 / theta + 2.0) * log_s
    )


def _clayton_hfunc_base(u, v, theta):
    log_s = _clayton_logs(u, v, theta)
    return np.exp(-(theta + 1.0) * np.log(v) - (1.0 / theta + 1.0) * log_s)


def _clayton_hinv_base(p, v, theta):
    # solve p = v^-(theta+1) * s^-(1/theta + 1) for u
    frac = -theta / (1.0 + theta)
    inner = np.logaddexp(
        -theta * np.log(v) + np.log(np.expm1(frac * np.log(p))), 0.0
    )
    return np.exp(-inner / theta)


def _gumbel_parts(u, v, theta):
    la = theta * np.log(-np.log(u))
    lb = theta * np.log(-np.log(v))
    log_sum = np.logaddexp(la, lb)  # log((-ln u)^theta + (-ln v)^theta)
    log_s = log_sum / theta  # log of the generator inverse argument
    return log_sum, log_s


def _gumbel_logpdf_base(u, v, theta):
    log_sum, log_s = _gumbel_parts(u, v, theta)
    s = np.exp(log_s)
    return (
        -s
        - np.log(u)
        - np.log(v)
        + (theta - 1.0) * (np.log(-np.log(u)) + np.log(-np.log(v)))
        + (2.0 / theta - 2.0) * log_sum
        + np.log1p((theta - 1.0) / s)
    )


def _gumbel_hfunc_base(u, v, theta):
    log_sum, log_s = _gumbel_parts(u, v, theta)
    s = np.exp(log_s)
    log_h = (
        -s
        + (theta - 1.0) * np.log(-np.log(v))
        + (1.0 / theta - 1.0) * log_sum
        - np.log(v)
    )
    return np.exp(log_h)


def _gumbel_hinv_base(p, v, theta):
    # h(u|v) = p fixes s = ((-ln u)^theta + (-ln v)^theta)^(1/theta) through
    # s + (theta - 1) ln s = b, so s = (theta - 1) W(b / (theta - 1) - ln(theta - 1))
    # with W Wright's omega (W + ln W = z), and s = b when theta = 1
    log_y = np.log(-np.log(v))
    c = theta - 1.0
    b = c * log_y - np.log(v) - np.log(p)
    if c == 0.0:
        log_s = np.log(b)
    else:
        log_s = np.log(c) + np.log(special.wrightomega(b / c - np.log(c)))
    # s >= -ln v; rounding where u -> 1 could otherwise give NaN below
    log_s = np.maximum(log_s, log_y)
    with np.errstate(divide="ignore"):
        log_x = log_s + np.log1p(-np.exp(theta * (log_y - log_s))) / theta
    return np.exp(-np.exp(log_x))


def _frank_g(x, theta):
    return np.expm1(-theta * x)


# Taylor coefficients of F(z) = f(z) / z and its first two derivatives for
# f = expm1 and f = log1p: F^(j)(z) = sum_k c[k, j] z^k
_TAYLOR_K = np.arange(10.0)[:, None]
_TAYLOR = {
    np.expm1: 1.0 / (special.factorial(_TAYLOR_K) * (_TAYLOR_K + np.arange(1.0, 4.0))),
    np.log1p: (-1.0) ** (_TAYLOR_K + np.arange(3.0))
    * special.poch(_TAYLOR_K + 1.0, np.arange(3.0))
    / (_TAYLOR_K + np.arange(1.0, 4.0)),
}
# the first two derivatives of each f
_F_DERIVS = {
    np.expm1: (np.exp, np.exp),
    np.log1p: (lambda z: 1.0 / (1.0 + z), lambda z: -1.0 / (1.0 + z) ** 2),
}


def _over_z(f, z, order=0):
    """F(z) = f(z) / z and its derivatives up to ``order`` (at most 2).

    ``f`` is ``np.expm1`` or ``np.log1p``, so F extends smoothly through
    z = 0.  Away from 0 the derivatives follow F^(k) = (f^(k) - k F^(k-1)) / z;
    within |z| < 0.01, where that recursion cancels, a 10-term Taylor series
    replaces all of them.
    """
    shape = np.shape(z)
    z = np.atleast_1d(np.asarray(z, dtype=np.float64))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = [f(z) / z]
        for k in range(1, order + 1):
            out.append((_F_DERIVS[f][k - 1](z) - k * out[-1]) / z)
    small = np.abs(z) < 0.01
    if small.any():
        powers = np.ones((np.count_nonzero(small), _TAYLOR_K.size))
        powers[:, 1:] = z[small, None]
        series = np.cumprod(powers, axis=1) @ _TAYLOR[f]
        for j, values in enumerate(out):
            values[small] = series[:, j]
    return [values.reshape(shape) for values in out]


def _scaled_expm1_ratio(c, x, k, theta, order=0):
    """f = x e^(-c theta) E(k theta), E(z) = expm1(z) / z; with ``order=2`` also f' and f''."""
    e = _over_z(np.expm1, k * theta, order)
    scale = x * np.exp(-c * theta)
    if order == 0:
        return [scale * e[0]]
    return [
        scale * e[0],
        scale * (k * e[1] - c * e[0]),
        scale * (c * c * e[0] - 2.0 * c * k * e[1] + k * k * e[2]),
    ]


def _frank_terms(u, v, theta, order=0):
    """The two terms of the Frank density's denominator, as ``_scaled_expm1_ratio`` lists.

    With E(z) = expm1(z) / z the density is e^(-theta (u + v)) E(-theta)
    / (t1 + t2)^2 for t1 = e^(-theta) (1 - u) E(theta (1 - u)) and
    t2 = u e^(-theta v) E(-theta u).  Both terms are positive for every
    theta, so no digit cancels at large |theta| or near theta = 0, where
    the density is 1.
    """
    return (
        _scaled_expm1_ratio(1.0, 1.0 - u, 1.0 - u, theta, order),
        _scaled_expm1_ratio(v, u, -u, theta, order),
    )


def _frank_logpdf_base(u, v, theta):
    (t1,), (t2,) = _frank_terms(u, v, theta)
    (e_theta,) = _over_z(np.expm1, -theta)
    return np.log(e_theta) - 2.0 * np.log(t1 + t2) - theta * (u + v)


def _frank_hfunc_base(u, v, theta):
    (t1,), (t2,) = _frank_terms(u, v, theta)
    return t2 / (t1 + t2)


def _frank_hinv_base(p, v, theta):
    g1 = _frank_g(1.0, theta)
    gv = _frank_g(v, theta)
    gu = p * g1 / (np.exp(-theta * v) - p * gv)
    return -np.log1p(gu) / theta


def _indep_logpdf(u, v):
    return np.zeros(np.broadcast(u, v).shape)


def _indep_hfunc(u, v):
    return u * np.ones_like(v)


# family -> (logpdf, hfunc, hinv), each called as fn(u, v, *params); hfunc
# conditions u on v and hinv inverts it in u, so independence's hinv is its hfunc
_LOGPDF, _HFUNC, _HINV = range(3)
_BASE = {
    "independence": (_indep_logpdf, _indep_hfunc, _indep_hfunc),
    "gaussian": (_gauss_logpdf_base, _gauss_hfunc_base, _gauss_hinv_base),
    "studentt": (_t_logpdf_base, _t_hfunc_base, _t_hinv_base),
    "clayton": (_clayton_logpdf_base, _clayton_hfunc_base, _clayton_hinv_base),
    "gumbel": (_gumbel_logpdf_base, _gumbel_hfunc_base, _gumbel_hinv_base),
    "frank": (_frank_logpdf_base, _frank_hfunc_base, _frank_hinv_base),
}


# ---------------------------------------------------------------------------
# rotation plumbing
# ---------------------------------------------------------------------------


def _reflects(rotation):
    """(reflect u, reflect v): 90 or 180 reflects u, 180 or 270 reflects v."""
    return rotation in (90, 180), rotation in (180, 270)


def _reflect(u, v, rotation):
    flip_u, flip_v = _reflects(rotation)
    return (1.0 - u if flip_u else u), (1.0 - v if flip_v else v)


def _concordance_sign(rotation):
    # reflecting exactly one margin reverses the sign of tau and rho_S
    flip_u, flip_v = _reflects(rotation)
    return -1.0 if flip_u != flip_v else 1.0


def _conditional(copula, column, x, w, margin):
    # the free argument x is u at margin 2 and v at margin 1 (u, v swapped)
    flip_u, flip_v = _reflects(copula.rotation)
    flip_x, flip_w = (flip_u, flip_v) if margin == 2 else (flip_v, flip_u)
    fn = _BASE[copula.family][column]
    if flip_w:
        w = 1.0 - w
    if flip_x:
        return 1.0 - fn(1.0 - x, w, *copula.params)
    return fn(x, w, *copula.params)


def hfunc(copula, u, v, margin=2):
    """Conditional CDF (h-function) of the copula.

    ``margin=2`` returns P(U <= u | V = v) = dC/dv, ``margin=1`` returns
    P(V <= v | U = u) = dC/du.  Both are strictly increasing in the free
    argument.
    """
    if margin not in (1, 2):
        raise DomainError("margin must be 1 or 2")
    u = _clip_unit(u, "u")
    v = _clip_unit(v, "v")
    x, w = (u, v) if margin == 2 else (v, u)
    return np.clip(_conditional(copula, _HFUNC, x, w, margin), 0.0, 1.0)


def hinv(copula, p, w, margin=2):
    """Inverse of :func:`hfunc` in its free argument.

    For ``margin=2`` solves hfunc(u, w) = p for u; for ``margin=1`` solves
    hfunc(w, v) = p for v.
    """
    if margin not in (1, 2):
        raise DomainError("margin must be 1 or 2")
    p = _clip_unit(p, "p")
    w = _clip_unit(w, "w")
    return np.clip(_conditional(copula, _HINV, p, w, margin), EPS, 1.0 - EPS)


# ---------------------------------------------------------------------------
# fitting and selection
# ---------------------------------------------------------------------------


@dataclass
class FitResult:
    """Outcome of a maximum-likelihood fit of one family/rotation."""

    copula: BivariateCopula
    loglik: float
    aic: float
    n_obs: int
    converged: bool
    boundary: bool
    diagnostics: dict = field(default_factory=dict)


def _check_pseudo_obs(pseudo_obs):
    arr = np.asarray(pseudo_obs, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DomainError("pseudo observations must form an (n, 2) array")
    if arr.shape[0] < 10:
        raise DomainError("need at least 10 pseudo observations to fit")
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("pseudo observations must lie strictly inside (0, 1)")
    return arr


def _frank_tau(theta):
    """Population Kendall tau of the Frank copula, the fit's start-value map."""
    if abs(theta) < 1e-8:
        return theta / 9.0
    a = abs(theta)
    debye, _ = integrate.quad(lambda t: t / np.expm1(t), 0.0, a, limit=200)
    tau = 1.0 - 4.0 / a * (1.0 - debye / a)
    return tau if theta > 0 else -tau


def _tau_init(family, tau):
    tau = float(np.clip(tau, -0.95, 0.95))
    if family == "gaussian" or family == "studentt":
        return np.sin(np.pi * tau / 2.0)
    if family == "clayton":
        t = max(tau, 0.05)
        return float(np.clip(2.0 * t / (1.0 - t), *_PARAM_BOUNDS["clayton"][0]))
    if family == "gumbel":
        t = max(tau, 0.05)
        return float(np.clip(1.0 / (1.0 - t), *_PARAM_BOUNDS["gumbel"][0]))
    if family == "frank":
        if abs(tau) < 1e-3:
            return np.copysign(0.01, tau if tau != 0 else 1.0)
        lo, hi = (1e-4, 35.0) if tau > 0 else (-35.0, -1e-4)
        try:
            return optimize.brentq(
                lambda th: _frank_tau(th) - tau, lo, hi, xtol=1e-6
            )
        except ValueError:
            return hi if tau > 0 else lo
    return 0.0


def _required_sign(family, rotation):
    # families concentrated in a single corner can only express one
    # dependence sign per orientation
    if family in ("clayton", "gumbel"):
        return _concordance_sign(rotation)
    return 0


def _check_candidate(family, rotation):
    if family not in FAMILIES:
        raise DomainError(f"unknown copula family {family!r}")
    if rotation not in ROTATIONS:
        raise DomainError(f"rotation must be one of {ROTATIONS}")


def _kendall_tau(obs):
    """Kendall's tau of the two columns of checked pseudo-observations."""
    return float(stats.kendalltau(obs[:, 0], obs[:, 1]).statistic)


def _fit_mle(family, rotation, obs, tau_hat):
    """Fit one family/rotation by maximum likelihood.

    ``obs`` are checked pseudo-observations and ``tau_hat`` their Kendall
    tau.  Raises ``FamilyInfeasibleError`` when the tau sign is outside
    the family's range for the rotation, and ``OptimizationError``,
    carrying the last iterate, when the optimiser does not converge.
    """
    n = obs.shape[0]
    sign = _required_sign(family, rotation)
    if sign > 0 and tau_hat < 0:
        raise FamilyInfeasibleError(
            f"{family} at rotation {rotation} needs tau >= 0, got {tau_hat:.4f}"
        )
    if sign < 0 and tau_hat > 0:
        raise FamilyInfeasibleError(
            f"{family} at rotation {rotation} needs tau <= 0, got {tau_hat:.4f}"
        )

    if family == "independence":
        copula = BivariateCopula("independence", 0, ())
        return FitResult(
            copula=copula,
            loglik=0.0,
            aic=0.0,
            n_obs=n,
            converged=True,
            boundary=False,
            diagnostics={"tau": tau_hat},
        )

    # fit the base family on data reflected into its native orientation
    u, v = _reflect(
        np.clip(obs[:, 0], EPS, 1.0 - EPS),
        np.clip(obs[:, 1], EPS, 1.0 - EPS),
        rotation,
    )
    tau_init = _tau_init(family, _concordance_sign(rotation) * tau_hat)

    if family == "studentt":
        params, loglik, converged, extra = _fit_studentt(u, v, tau_init)
    else:
        params, loglik, converged, extra = _fit_one_param(family, u, v, tau_init)

    if not converged:
        raise OptimizationError(
            f"maximum-likelihood fit of {family} did not converge",
            last_params=params,
        )

    bounds = _PARAM_BOUNDS[family]
    boundary = any(
        min(p - lo, hi - p) < 1e-4 * (hi - lo)
        for p, (lo, hi) in zip(params, bounds)
    )

    copula = BivariateCopula(family, rotation, tuple(params))
    k = copula.n_params
    return FitResult(
        copula=copula,
        loglik=float(loglik),
        aic=2.0 * k - 2.0 * float(loglik),
        n_obs=n,
        converged=True,
        boundary=boundary,
        diagnostics={"tau": tau_hat, "tau_init": tau_init, **extra},
    )


def _newton(derivs, x, bounds, cap):
    """Safeguarded Newton ascent, one independent solve per entry of ``x``.

    ``derivs(rows, x)`` returns the score and curvature of the objective of
    each listed row at ``x``.  Steps are clipped to +-``cap``, a
    non-negative curvature gives a ``cap / 4`` step uphill, and x stays
    within ``bounds``.  A row stops once its step falls below 1e-12 times
    max(1, |x|), so an optimum at a bound stops there.

    Returns
    -------
    x : ndarray
    converged : ndarray of bool
    iters : ndarray of int
        Newton steps taken by each row.
    """
    lo, hi = bounds
    x = np.array(x, dtype=np.float64)
    converged = np.zeros(x.size, dtype=bool)
    iters = np.zeros(x.size, dtype=np.int64)
    active = np.arange(x.size)
    for _ in range(100):
        r = x[active]
        score, curv = derivs(active, r)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = np.clip(-score / curv, -cap, cap)
        step = np.where(curv < 0.0, newton, 0.25 * cap * np.sign(score))
        new = np.clip(r + step, lo, hi)
        x[active] = new
        iters[active] += 1
        done = np.abs(new - r) < 1e-12 * np.maximum(1.0, np.abs(r))
        converged[active[done]] = True
        active = active[~done]
        if active.size == 0:
            break
    return x, converged, iters


def _gauss_derivs(u, v):
    # the summed log density depends on the data only through n, sum(x^2 + y^2)
    # and sum(x y); its score is P / s^2 with s = 1 - rho^2
    x = special.ndtri(u)
    y = special.ndtri(v)
    n, sq, cross = x.size, float(np.sum(x * x + y * y)), float(np.sum(x * y))

    def derivs(rho):
        s = 1.0 - rho * rho
        p = n * rho * s - rho * sq + (1.0 + rho * rho) * cross
        dp = n * (1.0 - 3.0 * rho * rho) - sq + 2.0 * rho * cross
        return p / (s * s), dp / (s * s) + 4.0 * rho * p / (s * s * s)

    return derivs


def _clayton_derivs(u, v):
    # with a = -ln u, b = -ln v and G = ln(e^(theta a) + e^(theta b) - 1) / theta,
    # the log density is ln(1 + theta) + (theta + 1)(a + b) - (1 + 2 theta) G.
    # For hi = max(a, b) and lo = min(a, b), G = hi + g ln(1 + theta g) / (theta g)
    # with g = lo e^(-theta (hi - lo)) E(-theta lo), which is smooth as theta -> 0
    a = -np.log(u)
    b = -np.log(v)
    hi, lo = np.maximum(a, b), np.minimum(a, b)
    n, ab = u.size, float(np.sum(a + b))

    def derivs(theta):
        g, g1, g2 = _scaled_expm1_ratio(hi - lo, lo, -lo, theta, 2)
        x1 = g + theta * g1
        lam, lam1, lam2 = _over_z(np.log1p, theta * g, 2)
        big_g = np.sum(hi + g * lam)
        big_g1 = np.sum(g1 * lam + g * lam1 * x1)
        big_g2 = np.sum(
            g2 * lam
            + 2.0 * g1 * lam1 * x1
            + g * lam2 * x1 * x1
            + g * lam1 * (2.0 * g1 + theta * g2)
        )
        score = n / (1.0 + theta) + ab - 2.0 * big_g - (1.0 + 2.0 * theta) * big_g1
        curv = -n / (1.0 + theta) ** 2 - 4.0 * big_g1 - (1.0 + 2.0 * theta) * big_g2
        return score, curv

    return derivs


def _gumbel_derivs(u, v):
    # with lx = ln(-ln u), ly = ln(-ln v), M = ln(e^(theta lx) + e^(theta ly))
    # and s = e^(M / theta), the log density is -s + (theta - 1)(lx + ly)
    # + M / theta - 2 M + ln(s + theta - 1), up to a constant in theta
    lx = np.log(-np.log(u))
    ly = np.log(-np.log(v))
    lxy = float(np.sum(lx + ly))
    d = lx - ly

    def derivs(theta):
        big_m = np.logaddexp(theta * lx, theta * ly)
        w = np.exp(theta * lx - big_m)
        m1 = ly + w * d
        m2 = w * (1.0 - w) * d * d
        k = big_m / theta
        k1 = (m1 - k) / theta
        k2 = (m2 - 2.0 * k1) / theta
        s = np.exp(k)
        s1 = s * k1
        s2 = s * (k2 + k1 * k1)
        r = 1.0 / (s + theta - 1.0)
        score = lxy + np.sum(-s1 + k1 - 2.0 * m1 + (s1 + 1.0) * r)
        curv = np.sum(-s2 + k2 - 2.0 * m2 + s2 * r - ((s1 + 1.0) * r) ** 2)
        return score, curv

    return derivs


def _frank_derivs(u, v):
    # the log density is ln E(-theta) - 2 ln(t1 + t2) - theta (u + v)
    n, uv = u.size, float(np.sum(u + v))

    def derivs(theta):
        a0, a1, a2 = (float(e) for e in _over_z(np.expm1, -theta, 2))
        t, t1, t2 = (p + q for p, q in zip(*_frank_terms(u, v, theta, order=2)))
        r1 = t1 / t
        score = -n * a1 / a0 - 2.0 * r1.sum() - uv
        curv = n * (a2 / a0 - (a1 / a0) ** 2) - 2.0 * np.sum(t2 / t - r1 * r1)
        return score, curv

    return derivs


# family -> (derivs(u, v), which returns theta -> score and curvature of the
# summed log density, and the Newton step cap in theta)
_ONE_PARAM = {
    "gaussian": (_gauss_derivs, 0.2),
    "clayton": (_clayton_derivs, 2.0),
    "gumbel": (_gumbel_derivs, 1.0),
    "frank": (_frank_derivs, 4.0),
}


def _fit_one_param(family, u, v, tau_init):
    # safeguarded Newton on the closed-form score; the loglik is the base density's
    bounds = _PARAM_BOUNDS[family][0]
    make_derivs, cap = _ONE_PARAM[family]
    derivs = make_derivs(u, v)
    x, converged, iters = _newton(
        lambda _, t: derivs(float(t[0])), [np.clip(tau_init, *bounds)], bounds, cap
    )
    theta = float(x[0])
    loglik = float(np.sum(_BASE[family][_LOGPDF](u, v, theta)))
    return (theta,), loglik, bool(converged[0]), {"newton_iters": int(iters[0])}


def _t_rho_derivs(sq, cross, nu, rho):
    """Score and curvature in rho of the summed Student-t copula log density.

    ``sq`` is x^2 + y^2 and ``cross`` is x * y for the t quantiles x, y, one
    row per nu; ``nu`` and ``rho`` are (k, 1) columns.  With s = 1 - rho^2
    and D = nu s + sq - 2 rho cross, the log density is a constant plus
    (nu + 1)/2 log s - (nu + 2)/2 log D.  Returns two length-k arrays.
    """
    n = sq.shape[1]
    omr2 = 1.0 - rho * rho
    denom = nu * omr2 + sq - 2.0 * rho * cross
    ratio = (nu * rho + cross) / denom
    score = -n * (nu + 1.0) * rho / omr2 + (nu + 2.0) * ratio.sum(axis=1, keepdims=True)
    curv = -n * (nu + 1.0) * (1.0 + rho * rho) / (omr2 * omr2) + (nu + 2.0) * (
        nu / denom + 2.0 * ratio * ratio
    ).sum(axis=1, keepdims=True)
    return score[:, 0], curv[:, 0]


def _t_profile(qx, qy, nu, rho0):
    """Maximise the Student-t copula log-likelihood in rho for each row of nu.

    ``qx`` and ``qy`` hold the t quantiles of the two margins, shape (k, n),
    one row per entry of the (k, 1) column ``nu``.  Every row starts at
    ``rho0`` and takes the safeguarded Newton steps of ``_newton`` on the
    closed-form score, clipped to +-0.2; rows are solved independently.

    Returns
    -------
    rho, loglik : ndarray, shape (k,)
    converged : ndarray of bool, shape (k,)
    iters : ndarray of int, shape (k,)
        Newton steps taken by each row.
    """
    sq = qx * qx + qy * qy
    cross = qx * qy

    def derivs(rows, rho):
        return _t_rho_derivs(sq[rows], cross[rows], nu[rows], rho[:, None])

    rho, converged, iters = _newton(
        derivs, np.full(qx.shape[0], float(rho0)), _PARAM_BOUNDS["studentt"][0], 0.2
    )
    loglik = _t_logpdf_quant(qx, qy, rho[:, None], nu).sum(axis=1)
    return rho, loglik, converged, iters


def _fit_studentt(u, v, tau_init):
    # profile likelihood over a log-spaced nu grid, then a local refinement;
    # each profile point is a Newton solve in rho on the nu-dependent quantiles
    nu_lo, nu_hi = _PARAM_BOUNDS["studentt"][1]
    rho0 = float(np.clip(tau_init, *_PARAM_BOUNDS["studentt"][0]))
    evals = {}  # nu -> (rho, loglik, converged, Newton steps)
    # the search reads its quantiles from the table; each column's grid
    # cells and offsets are found once for every nu it evaluates
    at_u, at_v = _t_positions(u), _t_positions(v)

    def profile(nus):
        col = np.reshape(nus, (-1, 1))
        cells = _t_cells(col)
        fit = _t_profile(_t_evaluate(cells, at_u), _t_evaluate(cells, at_v), col, rho0)
        evals.update(zip(col[:, 0].tolist(), zip(*(a.tolist() for a in fit))))
        return fit[1]

    grid = np.geomspace(nu_lo, nu_hi, 12)
    logliks = profile(grid)
    best = int(np.argmax(logliks))

    # a grid winner at a bound stands if one xatol step inward does not beat
    # it: the unimodality that Brent assumes puts the optimum within xatol
    xatol = 1e-3
    inward = {0: nu_lo + xatol, len(grid) - 1: nu_hi - xatol}.get(best)
    if inward is None or profile(inward)[0] > logliks[best]:
        optimize.minimize_scalar(
            lambda nu: -profile(nu)[0],
            bounds=(grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]),
            method="bounded",
            options={"xatol": xatol},
        )
    # the best point evaluated on the grid, by the inward step or by Brent
    nu_hat = max(evals, key=lambda nu: evals[nu][1])
    rho_hat, _, ok, _ = evals[nu_hat]
    # the winner's reported loglik is exact
    loglik = float(np.sum(_t_logpdf_base(u, v, rho_hat, nu_hat)))
    diagnostics = {
        "nu_evals": len(evals),
        "newton_iters": sum(e[3] for e in evals.values()),
    }
    return (rho_hat, nu_hat), loglik, ok, diagnostics


@dataclass
class SelectionResult:
    """Winner and per-candidate table from AIC family selection."""

    best: FitResult
    table: list
    warnings: list = field(default_factory=list)


def select_family_aic(pseudo_obs, candidates=DEFAULT_CANDIDATES, *, tau=None):
    """Pick the AIC-best family among candidates.

    Candidates failing with a feasibility or convergence error are skipped
    and recorded in ``warnings``.  Ties in AIC resolve to the earliest
    candidate in the given order.  Every candidate fit reads one Kendall
    tau: ``tau`` when the caller already has it for these
    pseudo-observations, else the one computed here.

    Returns
    -------
    SelectionResult
    """
    obs = _check_pseudo_obs(pseudo_obs)
    tau_hat = _kendall_tau(obs) if tau is None else float(tau)
    table = []
    warnings = []
    fits = []
    for order, (family, rotation) in enumerate(candidates):
        _check_candidate(family, rotation)
        try:
            fit = _fit_mle(family, rotation, obs, tau_hat)
        except (FamilyInfeasibleError, OptimizationError) as exc:
            warnings.append(f"{family}@{rotation}: {exc.message}")
            table.append(
                {
                    "family": family,
                    "rotation": rotation,
                    "aic": None,
                    "loglik": None,
                    "status": exc.code,
                }
            )
            continue
        table.append(
            {
                "family": family,
                "rotation": rotation,
                "aic": fit.aic,
                "loglik": fit.loglik,
                "status": "ok",
            }
        )
        fits.append((fit.aic, order, fit))
    if not fits:
        raise SelectionError("every candidate family failed to fit")
    fits.sort(key=lambda item: (item[0], item[1]))
    return SelectionResult(best=fits[0][2], table=table, warnings=warnings)
