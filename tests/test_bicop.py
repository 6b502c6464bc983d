import json

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose
from scipy import integrate, special, stats

from powerdep import bicop
from powerdep.bicop import EPS, BivariateCopula
from powerdep.errors import DomainError, FamilyInfeasibleError, OptimizationError
import copula_oracle
from gumbel_oracle import bisect_hinv
from onepar_oracle import lbfgsb_fit_one_param
from studentt_oracle import lbfgsb_fit_studentt


def make(family, rotation=0, params=()):
    return BivariateCopula(family, rotation, params)


def fit_mle(family, rotation, data):
    # one candidate's fit, reached the way select_family_aic reaches it
    obs = bicop._check_pseudo_obs(data)
    return bicop._fit_mle(family, rotation, obs, bicop._kendall_tau(obs))


REFERENCE_COPULAS = [
    make("independence"),
    make("gaussian", 0, (0.5,)),
    make("gaussian", 0, (-0.6,)),
    make("studentt", 0, (0.5, 4.0)),
    make("clayton", 0, (2.0,)),
    make("clayton", 90, (2.0,)),
    make("clayton", 180, (2.0,)),
    make("clayton", 270, (2.0,)),
    make("gumbel", 0, (2.0,)),
    make("gumbel", 90, (1.7,)),
    make("gumbel", 180, (2.0,)),
    make("gumbel", 270, (1.7,)),
    make("frank", 0, (5.0,)),
    make("frank", 0, (-3.0,)),
]

# closed-form values, worked out by hand from the family formulas
FROZEN_CDF = [
    ("independence", (), 0.5, 0.5, 0.25),
    ("gaussian", (0.5,), 0.5, 0.5, 1.0 / 3.0),
    ("studentt", (0.5, 4.0), 0.5, 0.5, 1.0 / 3.0),
    ("clayton", (2.0,), 0.5, 0.5, 7.0 ** -0.5),
    ("gumbel", (2.0,), 0.5, 0.5, 0.37521422724648174),
    ("frank", (5.0,), 0.5, 0.5, 0.3771485107465207),
]

FROZEN_PDF = [
    ("independence", (), 0.3, 0.8, 1.0),
    ("gaussian", (0.5,), 0.5, 0.5, 1.1547005383792517),
    ("clayton", (2.0,), 0.5, 0.5, 1.481003649342278),
]


@pytest.mark.parametrize("family,params,u,v,expected", FROZEN_CDF)
def test_cdf_closed_forms(family, params, u, v, expected):
    cop = make(family, 0, params)
    assert_allclose(copula_oracle.cdf(cop, u, v), expected, atol=1e-9)


@pytest.mark.parametrize("family,params,u,v,expected", FROZEN_PDF)
def test_pdf_closed_forms(family, params, u, v, expected):
    cop = make(family, 0, params)
    assert_allclose(copula_oracle.pdf(cop, u, v), expected, rtol=1e-10)


def test_gaussian_cdf_against_scipy_mvn():
    cop = make("gaussian", 0, (0.5,))
    pts = [(0.3, 0.7), (0.1, 0.9), (0.45, 0.2), (0.8, 0.85)]
    mv = stats.multivariate_normal(mean=[0, 0], cov=[[1, 0.5], [0.5, 1]])
    for u, v in pts:
        expected = float(mv.cdf(stats.norm.ppf([u, v])))
        assert_allclose(float(copula_oracle.cdf(cop, u, v)), expected, atol=5e-7)


@pytest.mark.parametrize("cop", REFERENCE_COPULAS, ids=str)
def test_cdf_within_frechet_bounds_on_grid(cop):
    grid = np.linspace(0.02, 0.98, 25)
    uu, vv = np.meshgrid(grid, grid)
    c = copula_oracle.cdf(cop, uu, vv)
    assert np.all(c >= np.maximum(uu + vv - 1.0, 0.0) - 1e-12)
    assert np.all(c <= np.minimum(uu, vv) + 1e-12)


@pytest.mark.parametrize("cop", REFERENCE_COPULAS, ids=str)
def test_cdf_uniform_margins(cop):
    u = np.linspace(0.05, 0.95, 10)
    near_one = 1.0 - 1e-12
    assert_allclose(copula_oracle.cdf(cop, u, near_one), u, atol=1e-7)
    assert_allclose(copula_oracle.cdf(cop, near_one, u), u, atol=1e-7)
    assert_allclose(copula_oracle.cdf(cop, u, 1e-12), 0.0, atol=1e-7)


@pytest.mark.parametrize("cop", REFERENCE_COPULAS, ids=str)
@pytest.mark.parametrize("margin", [1, 2])
def test_hfunc_matches_finite_difference_of_cdf(cop, margin):
    # 20x20 interior grid, central differences with delta = 1e-5
    grid = np.linspace(0.04, 0.96, 20)
    uu, vv = [a.ravel() for a in np.meshgrid(grid, grid)]
    delta = 1e-5
    if margin == 2:
        fd = (copula_oracle.cdf(cop, uu, vv + delta) - copula_oracle.cdf(cop, uu, vv - delta)) / (
            2 * delta
        )
    else:
        fd = (copula_oracle.cdf(cop, uu + delta, vv) - copula_oracle.cdf(cop, uu - delta, vv)) / (
            2 * delta
        )
    h = bicop.hfunc(cop, uu, vv, margin=margin)
    assert np.max(np.abs(fd - h)) < 1e-4


@pytest.mark.parametrize("cop", REFERENCE_COPULAS, ids=str)
@pytest.mark.parametrize("margin", [1, 2])
def test_hinv_round_trip(cop, margin):
    rng = np.random.default_rng(12)
    p = rng.uniform(0.01, 0.99, 50)
    w = rng.uniform(0.01, 0.99, 50)
    x = bicop.hinv(cop, p, w, margin=margin)
    if margin == 2:
        back = bicop.hfunc(cop, x, w, margin=2)
    else:
        back = bicop.hfunc(cop, w, x, margin=1)
    assert_allclose(back, p, atol=1e-8)


@given(
    st.sampled_from(["gaussian", "clayton", "gumbel", "frank"]),
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.1, max_value=0.85),
)
def test_hfunc_values_are_probabilities(family, rot_idx, u, v, strength):
    params = {
        "gaussian": (2.0 * strength - 0.9,),
        "clayton": (4.0 * strength + 0.1,),
        "gumbel": (1.0 + 3.0 * strength,),
        "frank": (14.0 * strength - 7.0 if abs(14.0 * strength - 7.0) > 0.05 else 0.5,),
    }[family]
    cop = make(family, (0, 90, 180, 270)[rot_idx], params)
    for margin in (1, 2):
        h = bicop.hfunc(cop, u, v, margin=margin)
        assert 0.0 <= float(h) <= 1.0


# a grid reaching 1e-12 from either end, plus random interior points
_EDGE_GRID = np.concatenate(
    [
        [1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.1, 0.5, 0.9, 0.99],
        1.0 - np.array([1e-3, 1e-6, 1e-9, 1e-12]),
        np.random.default_rng(3).random(20),
    ]
)


@pytest.mark.parametrize("theta", [1.0, 1.0 + 1e-12, 1.001, 1.3, 7.0, 20.0])
def test_gumbel_hinv_closed_form_matches_bisection(theta):
    p, v = (a.ravel() for a in np.meshgrid(_EDGE_GRID, _EDGE_GRID))
    u = bicop._gumbel_hinv_base(p, v, theta)
    oracle = bisect_hinv(p, v, theta)
    assert not np.any(np.isnan(u))
    # where h is flat or steep the two inverses may differ in u, but the
    # closed form must then round-trip no worse than the bisection
    close = np.abs(u - oracle) <= 1e-12
    miss = np.abs(bicop._gumbel_hfunc_base(np.clip(u, EPS, 1 - EPS), v, theta) - p)
    oracle_miss = np.abs(bicop._gumbel_hfunc_base(oracle, v, theta) - p)
    assert np.all(close | (miss <= oracle_miss + 1e-12))


def test_survival_rotation_identity():
    base = make("clayton", 0, (2.0,))
    rot = make("clayton", 180, (2.0,))
    rng = np.random.default_rng(0)
    u, v = rng.uniform(0.02, 0.98, (2, 200))
    lhs = copula_oracle.cdf(rot, u, v)
    rhs = u + v - 1.0 + copula_oracle.cdf(base, 1.0 - u, 1.0 - v)
    assert_allclose(lhs, rhs, atol=1e-12)


def test_rotation_90_270_identities():
    base = make("gumbel", 0, (2.0,))
    rng = np.random.default_rng(1)
    u, v = rng.uniform(0.02, 0.98, (2, 100))
    assert_allclose(
        copula_oracle.cdf(make("gumbel", 90, (2.0,)), u, v),
        v - copula_oracle.cdf(base, 1.0 - u, v),
        atol=1e-12,
    )
    assert_allclose(
        copula_oracle.cdf(make("gumbel", 270, (2.0,)), u, v),
        u - copula_oracle.cdf(base, u, 1.0 - v),
        atol=1e-12,
    )


ORACLE_PARAMS = {
    "independence": (),
    "gaussian": (0.5,),
    "studentt": (0.5, 4.0),
    "clayton": (2.0,),
    "gumbel": (1.7,),
    "frank": (-3.0,),
}

# One explicit branch per (margin, rotation), as hfunc and hinv once spelled
# them out; both had these eight branches in (free x, given w) form.  f is
# the rotation-0 function at margin 2.
CONDITIONAL_ORACLE = {
    (2, 0): lambda f, x, w: f(x, w),
    (2, 90): lambda f, x, w: 1.0 - f(1.0 - x, w),
    (2, 180): lambda f, x, w: 1.0 - f(1.0 - x, 1.0 - w),
    (2, 270): lambda f, x, w: f(x, 1.0 - w),
    (1, 0): lambda f, x, w: f(x, w),
    (1, 90): lambda f, x, w: f(x, 1.0 - w),
    (1, 180): lambda f, x, w: 1.0 - f(1.0 - x, 1.0 - w),
    (1, 270): lambda f, x, w: 1.0 - f(1.0 - x, w),
}


@pytest.mark.parametrize("family", ORACLE_PARAMS)
@pytest.mark.parametrize("rotation", bicop.ROTATIONS)
@pytest.mark.parametrize("margin", [1, 2])
def test_reflection_rule_matches_per_rotation_branches(family, rotation, margin):
    # interior points, where no clip fires, so the two agree bit for bit
    base = make(family, 0, ORACLE_PARAMS[family])
    cop = make(family, rotation, ORACLE_PARAMS[family])
    x, w = np.random.default_rng(40).uniform(0.01, 0.99, (2, 200))
    branch = CONDITIONAL_ORACLE[margin, rotation]
    u, v = (x, w) if margin == 2 else (w, x)
    assert np.array_equal(
        bicop.hfunc(cop, u, v, margin=margin),
        branch(lambda a, b: bicop.hfunc(base, a, b, margin=2), x, w),
    )
    assert np.array_equal(
        bicop.hinv(cop, x, w, margin=margin),
        branch(lambda a, b: bicop.hinv(base, a, b, margin=2), x, w),
    )


def test_sample_deterministic_and_in_unit_square():
    # the test sampler draws the same data for the same seed
    cop = make("gumbel", 0, (2.0,))
    a = copula_oracle.sample(cop, 1000, seed=5)
    b = copula_oracle.sample(cop, 1000, seed=5)
    c = copula_oracle.sample(cop, 1000, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.all((a > 0.0) & (a < 1.0))


@pytest.mark.parametrize("family", ORACLE_PARAMS)
@pytest.mark.parametrize("rotation", bicop.ROTATIONS)
def test_sample_reflects_the_rotation_zero_sample(family, rotation):
    params = ORACLE_PARAMS[family]
    s = copula_oracle.sample(make(family, 0, params), 2000, seed=19)
    u, v = s[:, 0], s[:, 1]
    reflected = {
        0: (u, v),
        90: (1.0 - u, v),
        180: (1.0 - u, 1.0 - v),
        270: (u, 1.0 - v),
    }
    assert np.array_equal(
        copula_oracle.sample(make(family, rotation, params), 2000, seed=19),
        np.column_stack(reflected[rotation]),
    )


def test_pdf_mass_matches_cdf_inclusion_exclusion():
    # numeric double integral of the density over [0.01, 0.99]^2 against
    # the inclusion-exclusion mass of the same square
    cop = make("clayton", 0, (2.0,))
    mass, _ = integrate.dblquad(
        lambda y, x: float(copula_oracle.pdf(cop, x, y)),
        0.01,
        0.99,
        0.01,
        0.99,
        epsabs=1e-6,
    )
    lo, hi = 0.01, 0.99
    expected = (
        float(copula_oracle.cdf(cop, hi, hi))
        - float(copula_oracle.cdf(cop, lo, hi))
        - float(copula_oracle.cdf(cop, hi, lo))
        + float(copula_oracle.cdf(cop, lo, lo))
    )
    assert abs(mass - expected) < 1e-3


def test_log_pdf_matches_pdf():
    cop = make("gumbel", 180, (2.5,))
    rng = np.random.default_rng(2)
    u, v = rng.uniform(0.05, 0.95, (2, 50))
    assert_allclose(
        np.exp(copula_oracle.log_pdf(cop, u, v)), copula_oracle.pdf(cop, u, v), rtol=1e-12
    )


TAU_CASES = [
    (make("gaussian", 0, (0.5,)), 1.0 / 3.0),
    (make("studentt", 0, (0.5, 4.0)), 1.0 / 3.0),
    (make("clayton", 0, (2.0,)), 0.5),
    (make("gumbel", 0, (2.0,)), 0.5),
    (make("clayton", 90, (2.0,)), -0.5),
    (make("gumbel", 270, (2.0,)), -0.5),
    (make("independence"), 0.0),
]


@pytest.mark.parametrize("cop,expected", TAU_CASES, ids=str)
def test_tau_closed_forms(cop, expected):
    assert_allclose(copula_oracle.tau_of(cop), expected, atol=1e-12)


def test_frank_tau_against_direct_double_integral():
    theta = 5.0
    cop = make("frank", 0, (theta,))
    # tau = 4 * E[C(U,V)] - 1 evaluated by direct quadrature
    val, _ = integrate.dblquad(
        lambda y, x: float(copula_oracle.cdf(cop, x, y) * copula_oracle.pdf(cop, x, y)),
        0.0,
        1.0,
        0.0,
        1.0,
        epsabs=1e-9,
    )
    assert_allclose(copula_oracle.tau_of(cop), 4.0 * val - 1.0, atol=1e-4)
    assert_allclose(copula_oracle.tau_of(make("frank", 0, (-theta,))), -copula_oracle.tau_of(cop))


def test_spearman_gaussian_closed_form():
    assert_allclose(
        copula_oracle.spearman_of(make("gaussian", 0, (0.5,))),
        6.0 / np.pi * np.arcsin(0.25),
        rtol=1e-12,
    )


@pytest.mark.parametrize(
    "cop",
    [make("clayton", 0, (2.0,)), make("gumbel", 0, (2.0,)), make("frank", 0, (5.0,))],
    ids=str,
)
def test_spearman_quadrature_matches_sampling(cop):
    rho_s = copula_oracle.spearman_of(cop)
    s = copula_oracle.sample(cop, 1_000_000, seed=99)
    emp = stats.spearmanr(s[:, 0], s[:, 1]).statistic
    assert abs(rho_s - emp) < 0.004


TDC_CASES = [
    (make("clayton", 0, (2.0,)), 2.0 ** -0.5, 0.0),
    (make("clayton", 180, (2.0,)), 0.0, 2.0 ** -0.5),
    (make("clayton", 90, (2.0,)), 0.0, 0.0),
    (make("gumbel", 0, (2.0,)), 0.0, 2.0 - 2.0 ** 0.5),
    (make("gumbel", 180, (2.0,)), 2.0 - 2.0 ** 0.5, 0.0),
    (make("gaussian", 0, (0.5,)), 0.0, 0.0),
    (make("frank", 0, (5.0,)), 0.0, 0.0),
    (make("studentt", 0, (0.5, 4.0)), 0.25316999510032273, 0.25316999510032273),
]


@pytest.mark.parametrize("cop,lower,upper", TDC_CASES, ids=str)
def test_tail_dependence_coefficients(cop, lower, upper):
    assert_allclose(copula_oracle.lower_tdc(cop), lower, atol=1e-12)
    assert_allclose(copula_oracle.upper_tdc(cop), upper, atol=1e-12)


@pytest.mark.parametrize("cop", REFERENCE_COPULAS, ids=str)
def test_sample_reproduces_tau(cop):
    s = copula_oracle.sample(cop, 1_000_000, seed=77)
    tau_emp = stats.kendalltau(s[:, 0], s[:, 1]).statistic
    assert abs(tau_emp - copula_oracle.tau_of(cop)) < 0.005


FIT_CASES = [
    ("gaussian", 0, (0.6,), 0.05),
    ("clayton", 0, (2.0,), 0.2),
    ("gumbel", 0, (2.0,), 0.15),
    ("frank", 0, (5.0,), 0.5),
    ("clayton", 90, (2.0,), 0.25),
    ("gumbel", 180, (2.0,), 0.15),
]


@pytest.mark.parametrize("family,rotation,params,tol", FIT_CASES)
def test_fit_mle_recovers_parameters(family, rotation, params, tol):
    true = make(family, rotation, params)
    data = copula_oracle.sample(true, 5000, seed=21)
    fit = fit_mle(family, rotation, data)
    assert fit.converged
    assert fit.copula.rotation == rotation
    assert_allclose(fit.copula.params[0], params[0], atol=tol)
    assert fit.aic == pytest.approx(2 * fit.copula.n_params - 2 * fit.loglik)


def test_fit_studentt_recovers_rho_and_nu():
    true = make("studentt", 0, (0.5, 4.0))
    data = copula_oracle.sample(true, 4000, seed=8)
    fit = fit_mle("studentt", 0, data)
    assert_allclose(fit.copula.params[0], 0.5, atol=0.05)
    assert 2.5 < fit.copula.params[1] < 8.0


def _data_with_rho(family, rho, n, seed):
    """Pairs whose Kendall tau is that of a Gaussian copula with correlation rho."""
    if family == "studentt":
        cop = make("studentt", 0, (rho, 4.0))
    elif family == "gaussian":
        cop = make("gaussian", 0, (rho,))
    else:
        tau = abs(2.0 / np.pi * np.arcsin(rho))
        cop = make("clayton", 0 if rho > 0 else 90, (2.0 * tau / (1.0 - tau),))
    return copula_oracle.sample(cop, n, seed=seed)


ORACLE_CASES = [
    (family, n, rho)
    for family in ("studentt", "gaussian", "clayton")
    for n in (50, 730, 1000)
    for rho in (-0.9, -0.3, 0.1, 0.6, 0.95)
]


def _assert_matches_oracle(data):
    fit = fit_mle("studentt", 0, data)
    u, v = np.clip(data, EPS, 1.0 - EPS).T
    (rho, nu), loglik, ok = lbfgsb_fit_studentt(u, v, fit.diagnostics["tau_init"])
    assert ok
    assert abs(fit.copula.params[0] - rho) <= 1e-6
    # the refinement over nu stops at xatol 1e-3
    assert abs(fit.copula.params[1] - nu) <= 5e-3
    assert fit.loglik >= loglik - 1e-8
    return nu


@pytest.mark.parametrize("family,n,rho", ORACLE_CASES)
def test_studentt_fit_matches_profile_oracle(family, n, rho):
    _assert_matches_oracle(_data_with_rho(family, rho, n, seed=ORACLE_CASES.index((family, n, rho))))


def test_studentt_fit_matches_profile_oracle_at_the_nu_bounds():
    # Gaussian data push nu to its upper bound, heavy t tails below 3
    assert _assert_matches_oracle(_data_with_rho("gaussian", 0.5, 2000, seed=70)) == 30.0
    heavy = copula_oracle.sample(make("studentt", 0, (0.3, 2.5)), 2000, seed=71)
    assert _assert_matches_oracle(heavy) < 3.0


@pytest.mark.parametrize(
    "data,nu",
    [
        (_data_with_rho("gaussian", 0.5, 2000, seed=70), 30.0),
        (copula_oracle.sample(make("studentt", 0, (0.3, 2.1)), 2000, seed=0), 2.1),
    ],
    ids=["upper", "lower"],
)
def test_studentt_nu_search_stops_at_a_confirmed_bound(data, nu):
    # the grid's best point is a bound and one xatol step inward does not beat it
    fit = fit_mle("studentt", 0, data)
    assert fit.diagnostics["nu_evals"] == 13
    assert fit.copula.params[1] == nu
    assert fit.boundary


@pytest.mark.parametrize(
    "data",
    [
        copula_oracle.sample(make("studentt", 0, (0.5, 25.0)), 2000, seed=21),
        copula_oracle.sample(make("studentt", 0, (0.3, 2.1)), 2000, seed=1),
    ],
    ids=["upper", "lower"],
)
def test_studentt_nu_search_refines_when_the_inward_step_beats_the_bound(data):
    fit = fit_mle("studentt", 0, data)
    # the grid, the inward step and the bracket refinement
    assert fit.diagnostics["nu_evals"] > 13
    _assert_matches_oracle(data)


def _five_point(fun, x, h):
    """Central differences of order h^4: first and second derivative."""
    f = {k: fun(x + k * h) for k in (-2, -1, 0, 1, 2)}
    first = (f[-2] - 8.0 * f[-1] + 8.0 * f[1] - f[2]) / (12.0 * h)
    second = (-f[-2] + 16.0 * f[-1] - 30.0 * f[0] + 16.0 * f[1] - f[2]) / (12.0 * h * h)
    return first, second


EDGE = 1.0 - 1e-6
SCORE_RHOS = [
    *np.random.default_rng(5).uniform(-0.99, 0.99, 4).tolist(),
    EDGE - 3e-6,
    -(EDGE - 8e-6),
    EDGE - 1e-5,
]


@pytest.mark.parametrize("nu", [2.1, 5.0, 30.0])
@pytest.mark.parametrize("rho", SCORE_RHOS)
def test_t_profile_score_and_curvature_match_central_differences(nu, rho):
    u, v = copula_oracle.sample(make("studentt", 0, (0.4, 4.0)), 300, seed=17).T
    x = special.stdtrit(nu, u)
    y = special.stdtrit(nu, v)
    score, curv = bicop._t_rho_derivs(
        (x * x + y * y)[None], (x * y)[None], np.array([[nu]]), np.array([[rho]])
    )
    # a step 1% of the distance to +-1: rounding noise grows as the step shrinks
    first, second = _five_point(
        lambda r: float(np.sum(bicop._t_logpdf_quant(x, y, r, nu))), rho, 1e-2 * (1.0 - abs(rho))
    )
    assert_allclose(score[0], first, rtol=1e-6)
    assert_allclose(curv[0], second, rtol=1e-6)


def test_t_profile_rows_are_independent_newton_solves():
    u, v = copula_oracle.sample(make("studentt", 0, (-0.6, 6.0)), 500, seed=23).T
    nus = np.geomspace(2.1, 30.0, 12)[:, None]
    qx, qy = special.stdtrit(nus, u), special.stdtrit(nus, v)
    rho, loglik, ok, iters = bicop._t_profile(qx, qy, nus, -0.3)
    assert ok.all() and (iters > 0).all()
    for i in range(nus.shape[0]):
        one = bicop._t_profile(qx[i : i + 1], qy[i : i + 1], nus[i : i + 1], -0.3)
        assert (one[0][0], one[1][0]) == (rho[i], loglik[i])
        score, _ = bicop._t_rho_derivs(
            (qx[i] ** 2 + qy[i] ** 2)[None], (qx[i] * qy[i])[None], nus[i : i + 1], rho[i : i + 1, None]
        )
        assert abs(score[0]) < 1e-6 * u.size


def test_studentt_fit_reports_profile_work():
    data = copula_oracle.sample(make("studentt", 0, (0.5, 4.0)), 730, seed=8)
    fit = fit_mle("studentt", 0, data)
    # the 12-point grid, then the refinement's own evaluations
    assert fit.diagnostics["nu_evals"] > 12
    assert fit.diagnostics["newton_iters"] >= fit.diagnostics["nu_evals"]


def test_unconverged_t_profile_raises_optimization_error(monkeypatch):
    profile = bicop._t_profile

    def never_converges(qx, qy, nu, rho0):
        rho, loglik, ok, iters = profile(qx, qy, nu, rho0)
        return rho, loglik, np.zeros_like(ok), iters

    monkeypatch.setattr(bicop, "_t_profile", never_converges)
    data = copula_oracle.sample(make("studentt", 0, (0.5, 4.0)), 500, seed=8)
    with pytest.raises(OptimizationError) as info:
        fit_mle("studentt", 0, data)
    rho, nu = info.value.last_params
    assert -1.0 < rho < 1.0 and 2.1 <= nu <= 30.0


def _table_nus():
    """nu at every Chebyshev node of the table but s = 0, and midway between neighbours."""
    s = bicop._t_table()[0]
    return [*(1.0 / s[1:]), *(2.0 / (s[1:-1] + s[2:]))]


# p from EPS to 1 - EPS, dense in both tails, with 0.5 and one ulp either
# side; more values than one chunk of a long evaluation
QUANTILE_PS = np.unique(
    np.concatenate(
        [
            np.geomspace(EPS, 0.5, 10001),
            1.0 - np.geomspace(EPS, 0.5, 10001),
            [EPS, 1.0 - EPS, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0)],
        ]
    )
)


@pytest.mark.parametrize(
    "nu", [2.0 + 1e-9, 2.1, 30.0, 31.0, 1e4, *_table_nus()], ids=lambda nu: f"{nu:.6g}"
)
def test_t_quantile_matches_stdtrit(nu):
    # |dx| / max(|x|, 1) <= 1e-9: cubic Hermite on 512 z steps, 32 nodes in 1 / nu
    assert QUANTILE_PS.size > bicop._T_CHUNK
    exact = special.stdtrit(nu, QUANTILE_PS)
    table = bicop._t_quantile(nu, QUANTILE_PS)
    assert np.all(np.abs(table - exact) <= 1e-9 * np.maximum(np.abs(exact), 1.0))
    assert bicop._t_quantile(nu, 0.5) == 0.0


@pytest.mark.parametrize("nu", [2.05, 60.0, 1e4])
def test_studentt_h_functions_off_the_fit_bounds_match_exact_quantiles(nu):
    # nu outside [2.1, 30] is never fitted, but a stored model may hold it
    rho = 0.7
    cop = make("studentt", 0, (rho, nu))
    p, w = np.meshgrid(np.geomspace(1e-9, 1.0 - 1e-9, 41), np.linspace(1e-6, 1.0 - 1e-6, 41))
    p, w = p.ravel(), w.ravel()
    y = special.stdtrit(nu, w)
    scale = np.sqrt((nu + y * y) * (1.0 - rho * rho) / (nu + 1.0))
    exact_h = special.stdtr(nu + 1.0, (special.stdtrit(nu, p) - rho * y) / scale)
    exact_hinv = special.stdtr(nu, special.stdtrit(nu + 1.0, p) * scale + rho * y)

    u = bicop.hinv(cop, p, w)
    assert_allclose(u, np.clip(exact_hinv, EPS, 1.0 - EPS), rtol=1e-8, atol=1e-12)
    assert_allclose(bicop.hfunc(cop, p, w), exact_h, rtol=1e-8, atol=1e-12)
    # where hinv's clip to [EPS, 1 - EPS] does not bind, hfunc undoes it
    inside = (u > EPS) & (u < 1.0 - EPS)
    assert inside.mean() > 0.9
    assert_allclose(bicop.hfunc(cop, u[inside], w[inside]), p[inside], rtol=1e-8, atol=1e-12)


ONE_PARAM_DATA = {
    "gaussian": make("gaussian", 0, (0.5,)),
    "clayton": make("clayton", 0, (2.0,)),
    "gumbel": make("gumbel", 0, (1.8,)),
    "frank": make("frank", 0, (4.0,)),
}

# (family, theta, five-point step): interior points, then points near each
# bound; Frank crosses theta = 0 and Gumbel reaches its bound at 1
ONE_PARAM_POINTS = [
    ("gaussian", -0.7, 1e-3),
    ("gaussian", 0.3, 1e-3),
    ("gaussian", 1.0 - 1e-5, 1e-7),
    ("gaussian", -(1.0 - 1e-5), 1e-7),
    ("clayton", 0.5, 1e-3),
    ("clayton", 4.0, 1e-3),
    ("clayton", 27.9, 1e-2),
    ("clayton", 3e-5, 7e-6),
    ("clayton", 1e-3, 2e-4),
    ("gumbel", 1.0, 1e-5),
    ("gumbel", 1.0 + 1e-6, 1e-5),
    ("gumbel", 2.5, 1e-3),
    ("gumbel", 19.9, 1e-2),
    ("frank", -34.9, 1e-2),
    ("frank", -3.0, 1e-3),
    ("frank", -1e-7, 1e-3),
    ("frank", 1e-7, 1e-3),
    ("frank", 5e-3, 1e-3),
    ("frank", 8.0, 1e-3),
    ("frank", 34.9, 1e-2),
]


@pytest.mark.parametrize("family,theta,h", ONE_PARAM_POINTS)
def test_one_param_score_and_curvature_match_central_differences(family, theta, h):
    u, v = np.clip(copula_oracle.sample(ONE_PARAM_DATA[family], 300, seed=19), EPS, 1.0 - EPS).T
    score, curv = bicop._ONE_PARAM[family][0](u, v)(theta)
    logpdf = bicop._BASE[family][bicop._LOGPDF]
    first, second = _five_point(lambda t: float(np.sum(logpdf(u, v, t))), theta, h)
    assert_allclose(score, first, rtol=1e-6, atol=1e-6)
    # the difference quotient loses digits to rounding in the log density
    assert_allclose(curv, second, rtol=1e-5)


@pytest.mark.parametrize(
    "f,at_zero", [(np.expm1, (1.0, 0.5, 1.0 / 3.0)), (np.log1p, (1.0, -0.5, 2.0 / 3.0))]
)
def test_over_z_series_meets_the_recursion(f, at_zero):
    assert_allclose([d[0] for d in bicop._over_z(f, np.zeros(1), 2)], at_zero, rtol=1e-15)
    # either side of the |z| = 0.01 switch from the Taylor series to the recursion
    for edge in (0.01, -0.01):
        inside, outside = bicop._over_z(f, np.array([edge * (1 - 1e-9), edge * (1 + 1e-9)]), 2)[2]
        assert_allclose(inside, outside, rtol=1e-9)


def test_frank_log_density_keeps_its_digits_at_large_theta():
    # the textbook denominator expm1(-theta) + expm1(-theta u) expm1(-theta v)
    # cancels where u and v are both near 1; extended precision shows the truth
    theta = 20.0
    u, v = np.meshgrid(np.linspace(0.5, 0.999, 25), np.linspace(0.5, 0.999, 25))
    t, ul, vl = np.longdouble(theta), u.astype(np.longdouble), v.astype(np.longdouble)
    denom = np.expm1(-t) + np.expm1(-t * ul) * np.expm1(-t * vl)
    exact = np.log(t * -np.expm1(-t)) - t * (ul + vl) - 2.0 * np.log(np.abs(denom))
    assert_allclose(bicop._frank_logpdf_base(u, v, theta), exact.astype(np.float64), rtol=1e-10)


ONE_PARAM_ORACLE_CASES = [
    (family, *case) for family in ("gaussian", "clayton", "gumbel", "frank") for case in ORACLE_CASES
]


@pytest.mark.parametrize("family,data_family,n,rho", ONE_PARAM_ORACLE_CASES)
def test_one_param_newton_matches_lbfgsb_oracle(family, data_family, n, rho):
    data = _data_with_rho(data_family, rho, n, seed=ORACLE_CASES.index((data_family, n, rho)))
    tau = stats.kendalltau(data[:, 0], data[:, 1]).statistic
    for rotation in (0, 90, 180, 270) if family in ("clayton", "gumbel") else (0,):
        if bicop._required_sign(family, rotation) * tau < 0:
            continue
        fit = fit_mle(family, rotation, data)
        u, v = bicop._reflect(*np.clip(data, EPS, 1.0 - EPS).T, rotation)
        # L-BFGS-B may end its line search "abnormally" on finite-difference
        # noise next to the optimum; its iterate still bounds the loglik
        (theta,), loglik, _ = lbfgsb_fit_one_param(family, u, v, fit.diagnostics["tau_init"])
        assert fit.loglik >= loglik - 1e-8
        # L-BFGS-B stops on a 1e-10 relative change in the objective
        assert abs(fit.copula.params[0] - theta) <= 1e-4 * max(1.0, abs(theta))
        assert 0 < fit.diagnostics["newton_iters"] <= 20


def test_unconverged_one_param_newton_raises_optimization_error(monkeypatch):
    newton = bicop._newton

    def never_converges(derivs, x, bounds, cap):
        x, ok, iters = newton(derivs, x, bounds, cap)
        return x, np.zeros_like(ok), iters

    monkeypatch.setattr(bicop, "_newton", never_converges)
    data = copula_oracle.sample(make("clayton", 0, (2.0,)), 500, seed=8)
    for family in ("gaussian", "clayton", "gumbel", "frank"):
        with pytest.raises(OptimizationError) as info:
            fit_mle(family, 0, data)
        (theta,) = info.value.last_params
        lo, hi = bicop._PARAM_BOUNDS[family][0]
        assert lo <= theta <= hi


def test_fit_clayton_on_negative_tau_is_infeasible():
    data = copula_oracle.sample(make("gaussian", 0, (-0.5,)), 500, seed=2)
    with pytest.raises(FamilyInfeasibleError):
        fit_mle("clayton", 0, data)
    with pytest.raises(FamilyInfeasibleError):
        fit_mle("gumbel", 0, data)
    # the reflected orientation accepts the same data
    fit = fit_mle("clayton", 90, data)
    assert fit.converged


def test_fit_comonotone_ranks_flags_boundary():
    n = 400
    u = (np.arange(1, n + 1)) / (n + 1.0)
    data = np.column_stack([u, u])
    fit = fit_mle("gaussian", 0, data)
    assert fit.boundary
    assert fit.copula.params[0] > 0.999


def test_select_family_aic_picks_clayton_on_clayton_data():
    data = copula_oracle.sample(make("clayton", 0, (2.0,)), 1000, seed=31)
    sel = bicop.select_family_aic(
        data, candidates=(("gaussian", 0), ("clayton", 0), ("gumbel", 0))
    )
    assert sel.best.copula.family == "clayton"
    again = bicop.select_family_aic(
        data, candidates=(("gaussian", 0), ("clayton", 0), ("gumbel", 0))
    )
    assert again.best.copula.params == sel.best.copula.params


def test_select_family_skips_infeasible_candidates_with_warning():
    data = copula_oracle.sample(make("gaussian", 0, (-0.5,)), 800, seed=4)
    sel = bicop.select_family_aic(
        data, candidates=(("clayton", 0), ("gaussian", 0), ("clayton", 90))
    )
    assert sel.best.copula.family in ("gaussian", "clayton")
    assert any("clayton@0" in w for w in sel.warnings)
    statuses = {(r["family"], r["rotation"]): r["status"] for r in sel.table}
    assert statuses[("clayton", 0)] == "family_infeasible"


def test_aic_of_independence_is_zero():
    data = copula_oracle.sample(make("independence"), 500, seed=14)
    fit = fit_mle("independence", 0, data)
    assert fit.aic == 0.0
    assert fit.loglik == 0.0


def test_json_round_trip_is_bit_exact():
    cop = make("clayton", 90, (2.0000000000000004,))
    payload = json.dumps(cop.to_json_dict())
    restored = BivariateCopula.from_json_dict(json.loads(payload))
    assert restored == cop
    assert repr(restored.params[0]) == repr(cop.params[0])

    cop2 = make("studentt", 0, (0.123456789012345678, 7.00000000000001))
    restored2 = BivariateCopula.from_json_dict(json.loads(json.dumps(cop2.to_json_dict())))
    assert restored2.params == cop2.params


def test_domain_errors():
    with pytest.raises(DomainError):
        make("gaussian", 0, (1.5,))
    with pytest.raises(DomainError):
        make("clayton", 0, (-1.0,))
    with pytest.raises(DomainError):
        make("gumbel", 0, (0.5,))
    with pytest.raises(DomainError):
        make("frank", 0, (0.0,))
    with pytest.raises(DomainError):
        make("studentt", 0, (0.5, 1.5))
    with pytest.raises(DomainError):
        make("gaussian", 45, (0.5,))
    cop = make("gaussian", 0, (0.5,))
    with pytest.raises(DomainError):
        copula_oracle.cdf(cop, 1.2, 0.5)
    with pytest.raises(DomainError):
        bicop.hfunc(cop, 0.5, 0.5, margin=3)


@pytest.mark.parametrize(
    "family,params",
    [
        ("studentt", (0.5, np.inf)),
        ("studentt", (0.5, np.nan)),
        ("gaussian", (np.nan,)),
        ("clayton", (np.inf,)),
        ("gumbel", (np.inf,)),
        ("frank", (np.inf,)),
        ("frank", (-np.inf,)),
        ("frank", (np.nan,)),
    ],
    ids=str,
)
def test_non_finite_parameters_are_refused(family, params):
    # h-functions of such a copula would return NaN
    with pytest.raises(DomainError):
        make(family, 0, params)
    with pytest.raises(DomainError):
        BivariateCopula.from_json_dict({"family": family, "rotation": 0, "params": list(params)})
