
import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose
from scipy import stats

from garch_fd_oracle import fd_fit_negloglik
from garch_loglik_oracle import _refilter, ar_garch_loglik
from powerdep import cli, pipeline
from powerdep.data_ingest import build_dummies, slice_hour
from powerdep.errors import DegenerateSeriesError, DomainError
from powerdep.marginals import (
    MarginalSpec,
    _design,
    _garch_filter,
    _negloglik,
    _pack,
    build_fit_from_params,
    fit_ar_garch,
    pit_transform,
    simulate_ar_garch,
)

SPEC1 = MarginalSpec(lag_set=(1,), n_dummies=0)

# phi, omega, alpha, beta used by the recovery checks
TRUE_PARAMS = (0.5, 0.1, 0.1, 0.8)


def make_series(params, horizon, seed, spec=SPEC1, dummies=None, psi=()):
    phi, omega, alpha, beta = params
    fit = build_fit_from_params(
        spec, [phi] * len(spec.lag_set), psi, omega, alpha, beta
    )
    return simulate_ar_garch(fit, dummies, horizon, seed=seed)


class TestFit:
    def test_recovery_single_series(self):
        y = make_series(TRUE_PARAMS, 5000, seed=42)
        fit = fit_ar_garch(y, None, SPEC1)
        assert fit.converged
        assert abs(fit.phi[0] - 0.5) < 0.05
        assert abs((fit.alpha + fit.beta) - 0.9) < 0.08
        assert fit.omega > 0
        assert fit.alpha >= 0 and fit.beta >= 0
        assert fit.alpha + fit.beta < 1

    def test_recovery_with_higher_lags_and_dummies(self):
        rng = np.random.default_rng(5)
        T = 2000
        dmat = np.zeros((T, 14))
        dmat[:, 0] = (np.arange(T) % 31 < 5).astype(float)
        dmat[:, 12] = (np.arange(T) % 7 == 5).astype(float)
        dmat[:, 13] = (np.arange(T) % 7 == 6).astype(float)
        spec = MarginalSpec(lag_set=(1, 2, 7), n_dummies=14)
        psi = rng.normal(scale=0.5, size=14)
        true = build_fit_from_params(spec, [0.4, 0.2, 0.1], psi, 0.1, 0.1, 0.8)
        y = simulate_ar_garch(true, dmat, T, seed=5)
        fit = fit_ar_garch(y, dmat, spec)
        assert_allclose(fit.phi, [0.4, 0.2, 0.1], atol=0.1)
        assert abs(fit.alpha - 0.1) < 0.08
        assert abs(fit.beta - 0.8) < 0.15

    def test_iid_noise_alpha_near_zero(self):
        y = np.random.default_rng(7).standard_normal(3000)
        fit = fit_ar_garch(y, None, SPEC1)
        assert fit.alpha < 0.02
        assert abs(fit.phi[0]) < 0.05
        assert fit.alpha + fit.beta < 1

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateSeriesError):
            fit_ar_garch(np.full(500, 3.0), None, SPEC1)

    def test_too_short_series(self):
        with pytest.raises(DomainError):
            fit_ar_garch(np.arange(40.0), None, SPEC1)

    def test_nan_rejected(self):
        y = np.ones(300)
        y[10] = np.nan
        with pytest.raises(DomainError):
            fit_ar_garch(y, None, SPEC1)

    def test_local_optimality_against_random_restarts(self):
        y = make_series(TRUE_PARAMS, 2000, seed=9)
        fit = fit_ar_garch(y, None, SPEC1)
        rng = np.random.default_rng(99)
        for _ in range(20):
            phi = rng.uniform(-0.9, 0.9)
            omega = rng.uniform(0.01, 1.0)
            alpha = rng.uniform(0.0, 0.5)
            beta = rng.uniform(0.0, 0.99 - alpha)
            ll = ar_garch_loglik(y, None, SPEC1, [phi], [], omega, alpha, beta)
            assert fit.loglik >= ll - 1e-6

    def test_loglik_matches_evaluator(self):
        y = make_series(TRUE_PARAMS, 1500, seed=3)
        fit = fit_ar_garch(y, None, SPEC1)
        ll = ar_garch_loglik(
            y, None, SPEC1, fit.phi, fit.psi, fit.omega, fit.alpha, fit.beta
        )
        assert_allclose(ll, fit.loglik, rtol=1e-12)

    @pytest.mark.parametrize("length", [0, 5, 7])
    def test_loglik_rejects_series_not_longer_than_max_lag(self, length):
        # the filter needs at least one row after the max_lag lagged rows
        spec = MarginalSpec(lag_set=(1, 2, 7), n_dummies=0)
        y = make_series((0.3, 0.1, 0.05, 0.85), 400, seed=2, spec=spec)[:length]
        with pytest.raises(DomainError, match="shorter than the maximum lag"):
            ar_garch_loglik(y, None, spec, [0.3, 0.1, 0.05], [], 0.1, 0.05, 0.85)

    def test_residual_length_drops_the_lagged_rows(self):
        spec = MarginalSpec(lag_set=(1, 2, 7), n_dummies=0)
        y = make_series((0.3, 0.1, 0.05, 0.85), 1200, seed=2, spec=spec)
        fit = fit_ar_garch(y, None, spec)
        assert fit.residuals.size == y.size - 7


def ar1_series():
    return make_series(TRUE_PARAMS, 2000, seed=11), None, SPEC1


def ar127_series_with_dummies():
    T = 1500
    dmat = np.zeros((T, 14))
    dmat[:, 3] = (np.arange(T) % 23 < 4).astype(float)
    spec = MarginalSpec(lag_set=(1, 2, 7), n_dummies=14)
    true = build_fit_from_params(
        spec, [0.4, 0.2, 0.1], np.linspace(-1, 1, 14), 0.1, 0.1, 0.8
    )
    return simulate_ar_garch(true, dmat, T, seed=5), dmat, spec


class TestFilter:
    @pytest.mark.parametrize("make", [ar1_series, ar127_series_with_dummies])
    def test_refilter_training_data_reproduces_residuals(self, make):
        # the loglik oracle's design and filter, at the fitted parameters,
        # give back the fit's own standardized residuals
        y, dmat, spec = make()
        fit = fit_ar_garch(y, dmat, spec)
        eps, sigma2, _ = _refilter(y, dmat, spec, fit.phi, fit.psi, fit.omega, fit.alpha, fit.beta)
        assert np.array_equal(eps / np.sqrt(sigma2), fit.residuals)

    def test_residual_moments(self):
        y = make_series(TRUE_PARAMS, 5000, seed=13)
        fit = fit_ar_garch(y, None, SPEC1)
        assert abs(fit.residuals.mean()) < 0.1
        assert abs(fit.residuals.var() - 1.0) < 0.1

    def test_constant_variance_case(self):
        # alpha = beta = 0 makes sigma2 equal omega from t=1 on
        y = make_series(TRUE_PARAMS, 800, seed=17)
        design, target = _design(y, np.zeros((y.size, 0)), SPEC1.lag_set)
        filtered, sigma2, _ = _garch_filter(design, target, np.array([0.5]), 0.25, 0.0, 0.0)
        eta = filtered / np.sqrt(sigma2)
        eps = y[1:] - 0.5 * y[:-1]
        assert_allclose(eta[1:], eps[1:] / 0.5, rtol=0, atol=0)

    def test_eta_refit_has_no_dynamics(self):
        y = make_series(TRUE_PARAMS, 5000, seed=19)
        fit = fit_ar_garch(y, None, SPEC1)
        refit = fit_ar_garch(fit.residuals, None, SPEC1)
        assert abs(refit.phi[0]) < 0.05
        assert refit.alpha < 0.05

    def test_ljung_box_whiteness_monte_carlo(self):
        # 99% critical value of chi-square with 10 df
        crit = stats.chi2.ppf(0.99, 10)
        ok = 0
        reps = 200
        for seed in range(reps):
            y = make_series(TRUE_PARAMS, 1000, seed=1000 + seed)
            fit = fit_ar_garch(y, None, SPEC1)
            eta = fit.residuals
            n = eta.size
            centered = eta - eta.mean()
            denom = centered @ centered
            acf = np.array(
                [centered[:-k] @ centered[k:] for k in range(1, 11)]
            ) / denom
            q = n * (n + 2) * np.sum(acf**2 / (n - np.arange(1, 11)))
            ok += q < crit
        assert ok >= 0.95 * reps

    def test_recursion_is_deterministic(self):
        y = make_series(TRUE_PARAMS, 1000, seed=23)
        fit = fit_ar_garch(y, None, SPEC1)
        design, target = _design(y, np.zeros((y.size, 0)), SPEC1.lag_set)
        params = (np.concatenate([fit.phi, fit.psi]), fit.omega, fit.alpha, fit.beta)
        first = _garch_filter(design, target, *params)
        second = _garch_filter(design, target, *params)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))


def _price_like_design(seed, length=730):
    """Design and target of a simulated price-like series: lags (1, 2, 7), 14 dummies."""
    spec = MarginalSpec(lag_set=(1, 2, 7), n_dummies=14)
    rng = np.random.default_rng(seed)
    dmat = (rng.random((length, 14)) < 0.3).astype(float)
    true = build_fit_from_params(
        spec, [0.4, 0.2, 0.1], rng.normal(scale=0.5, size=14), 0.1, 0.1, 0.8
    )
    y = simulate_ar_garch(true, dmat, length, seed=seed)
    return _design(y, dmat, spec.lag_set)


def _central_differences(fun, x):
    grad = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = 1e-5 * max(1.0, abs(x[i]))
        grad[i] = (fun(x + step) - fun(x - step)) / (2.0 * step[i])
    return grad


class TestScore:
    # x = (mean..., log omega, logit total, logit frac); +-12 puts frac
    # within 1e-5 of 0 or 1 and alpha + beta within 1e-5 of its cap
    @pytest.mark.parametrize(
        "logit_total,logit_frac",
        [(0.5, 0.3), (2.0, -12.0), (2.0, 12.0), (12.0, -1.0), (12.0, 12.0), (-3.0, 0.0)],
    )
    @pytest.mark.parametrize("seed", [1, 2])
    def test_score_matches_central_differences(self, seed, logit_total, logit_frac):
        design, target = _price_like_design(seed)
        rng = np.random.default_rng(100 + seed)
        mean = rng.normal(scale=0.3, size=design.shape[1])
        x = np.concatenate([mean, [rng.normal(-1.0, 0.5), logit_total, logit_frac]])
        val, score = _negloglik(x, design, target)
        assert np.isfinite(val) and val < 1e10
        numeric = _central_differences(lambda z: _negloglik(z, design, target)[0], x)
        # atol: the rounding noise of the differences, val * 1e-16 / step
        assert_allclose(score, numeric, rtol=1e-6, atol=1e-8 * np.abs(numeric).max())

    def test_score_at_the_fitted_optimum_is_small(self):
        y = make_series(TRUE_PARAMS, 1500, seed=3)
        fit = fit_ar_garch(y, None, SPEC1)
        design, target = _design(y, np.zeros((y.size, 0)), SPEC1.lag_set)
        x = _pack(fit.phi, fit.omega, fit.alpha, fit.beta)
        val, score = _negloglik(x, design, target)
        assert_allclose(-val, fit.loglik, rtol=1e-9)
        assert np.abs(score).max() < 1e-2

    def test_non_finite_variance_path_reads_1e10_with_zero_score(self):
        design, target = _price_like_design(1)
        x = np.concatenate([np.zeros(design.shape[1]), [800.0, 0.0, 0.0]])
        with np.errstate(over="ignore"):  # omega = exp(800) is inf
            val, score = _negloglik(x, design, target)
        assert val == 1e10
        assert np.array_equal(score, np.zeros_like(x))


@pytest.fixture(scope="module")
def rolling_quad_windows():
    """Window panels of the rolling study on 750 synthetic days at hour 12."""
    records = cli.generate_synthetic_records(750, 1, flavor="gaussian", hours=(12,))
    panel = slice_hour(records, 12)
    return [pipeline._window_panel(panel, w, 730) for w in (0, 10, 20)] + [panel]


class TestScoreFit:
    def test_fit_matches_finite_difference_fit_on_rolling_windows(
        self, rolling_quad_windows
    ):
        for panel in rolling_quad_windows:
            dummies = build_dummies(panel.dates)
            for name in panel.variable_names:
                spec = MarginalSpec.for_variable(name)
                fit = fit_ar_garch(panel.column(name), dummies, spec)
                reference = fd_fit_negloglik(panel.column(name), dummies, spec)
                assert fit.converged and reference.success
                assert abs(fit.loglik + reference.fun) <= 1e-3, (name, panel.dates[-1])


PIT_CASES = [
    (0.0, 0.5),
    (1.96, 0.9750021048517795),
    (-1.96, 0.024997895148220484),
    (1.0, 0.8413447460685429),
]


class TestPit:
    @pytest.mark.parametrize("eta,expected", PIT_CASES)
    def test_gaussian_values(self, eta, expected):
        assert_allclose(pit_transform(np.array([eta]))[0], expected, rtol=1e-12)

    def test_output_strictly_inside_unit_interval(self):
        u = pit_transform(np.array([-40.0, 0.0, 40.0]))
        assert np.all(u > 0) and np.all(u < 1)

    @given(st.floats(-6, 6))
    def test_monotone(self, x):
        lo, hi = pit_transform(np.array([x, x + 0.5]))
        assert lo < hi


class TestSimulate:
    def test_iid_unit_variance(self):
        fit = build_fit_from_params(SPEC1, [0.0], [], 1.0, 0.0, 0.0)
        y = simulate_ar_garch(fit, None, 50000, seed=1)
        assert abs(y.var() - 1.0) < 0.02
        assert abs(y.mean()) < 0.02

    def test_determinism(self):
        fit = build_fit_from_params(SPEC1, [0.5], [], 0.1, 0.1, 0.8)
        a = simulate_ar_garch(fit, None, 500, seed=77)
        b = simulate_ar_garch(fit, None, 500, seed=77)
        assert np.array_equal(a, b)
        c = simulate_ar_garch(fit, None, 500, seed=78)
        assert not np.array_equal(a, c)

    def test_garch_excess_kurtosis(self):
        fit = build_fit_from_params(SPEC1, [0.0], [], 0.05, 0.15, 0.8)
        y = simulate_ar_garch(fit, None, 20000, seed=11)
        assert stats.kurtosis(y, fisher=False) > 3.0

    def test_shock_injection_reproduces_recursion(self):
        fit = build_fit_from_params(SPEC1, [0.5], [], 0.1, 0.1, 0.8)
        shocks = np.random.default_rng(41).standard_normal(200)
        a = simulate_ar_garch(fit, None, 200, seed=5, shocks=shocks)
        b = simulate_ar_garch(fit, None, 200, seed=5, shocks=shocks)
        assert np.array_equal(a, b)

    def test_bad_horizon(self):
        fit = build_fit_from_params(SPEC1, [0.0], [], 1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            simulate_ar_garch(fit, None, 0, seed=1)


class TestSpecDefaults:
    @pytest.mark.parametrize(
        "variable,lags",
        [("price", (1, 2, 7)), ("demand", (1,)), ("wind", (1,)), ("solar", (1,))],
    )
    def test_default_lag_sets(self, variable, lags):
        assert MarginalSpec.for_variable(variable, n_dummies=14).lag_set == lags

    def test_bad_lag_sets(self):
        with pytest.raises(DomainError):
            MarginalSpec(lag_set=(0,))
        with pytest.raises(DomainError):
            MarginalSpec(lag_set=(2, 1))
        with pytest.raises(DomainError):
            MarginalSpec(lag_set=())
