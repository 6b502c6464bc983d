import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from powerdep import taildep, vine
from powerdep.bicop import BivariateCopula
from powerdep.counting import has_column_ties, strict_dominance_counts
from powerdep.errors import DomainError, ResolutionError
from powerdep.taildep import (
    DEFAULT_ALPHA_GRID,
    KendallFunction,
    lambda_kendall,
    multivariate_pit,
    scenario_tail_coefficient,
)
from powerdep.vine import VineEdge, VineModel, VineStructure

import copula_oracle
from counting_oracle import brute_counts
from kendall_oracle import analytic_kendall_fn

GRID_99 = np.linspace(0.01, 0.99, 99)

# family, theta, dim, t, K(t)
ANALYTIC_CASES = [
    ("independence", None, 2, 0.5, 0.8465735902799727),
    ("independence", None, 2, 0.25, 0.5965735902799727),
    ("independence", None, 3, 0.5, 0.9666868437595231),
    ("clayton", 2.0, 2, 0.5, 0.6875),
    ("clayton", 1.0, 2, 0.5, 0.75),
    ("clayton", 2.0, 2, 0.2, 0.296),
    ("gumbel", 2.0, 2, 0.5, 0.6732867951399863),
    ("gumbel", 1.5, 2, 0.3, 0.5407945608651872),
]


def uniform_sample(m, d, seed):
    rng = np.random.default_rng(seed)
    return rng.random((m, d)) * 0.999998 + 1e-6


def comonotone_sample(m, d=2, shuffle_seed=None):
    u = np.arange(1, m + 1) / (m + 1)
    if shuffle_seed is not None:
        np.random.default_rng(shuffle_seed).shuffle(u)
    return np.column_stack([u] * d)


def y_first(sample):
    # a sample written with Y last, moved to the estimators' layout: Y in
    # column 0, the X columns after it in their order
    return np.roll(np.asarray(sample, dtype=np.float64), 1, axis=1)


def brute_q(sample, alpha, beta, side):
    # independent recount of the documented conventions, row by row, on a
    # sample with Y last
    arr = np.asarray(sample, float)
    x, y = arr[:, :-1], arr[:, -1]
    m = len(arr)
    w = np.array([np.sum(np.all(x < x[i], axis=1)) for i in range(m)]) / m
    v = np.array([np.sum(np.all(x <= x[i], axis=1)) for i in range(m)]) / m
    uy = np.array([np.sum(y <= y[i]) for i in range(m)]) / m
    sorted_w = np.sort(w)
    if side == "lower":
        t = sorted_w[max(math.ceil(alpha * m) - 1, 0)]
        cond = v <= t
        hit = uy <= beta
    else:
        t = sorted_w[max(math.ceil((1.0 - alpha) * m) - 1, 0)]
        cond = v >= t
        hit = uy > 1.0 - beta
    n_cond = int(cond.sum())
    return float((cond & hit).sum()) / n_cond, n_cond


def kendall_fn(sample):
    # the Kendall function the tail measures read their thresholds from
    u = np.asarray(sample, dtype=np.float64)
    return KendallFunction(strict_dominance_counts(u), u.shape[1])


def level(sample, alpha, side):
    # lambda_kendall's value, stderr and conditioning count at alpha = beta
    res = lambda_kendall(y_first(sample), (alpha,))[side]
    return res.values[0], res.stderrs[0], res.n_conditioning[0]


def upper_measure(sample, alpha, beta):
    # the scenario path's upper measure of the last column given all the
    # others, none reflected; the scenario path reads its target from column 0
    u = y_first(sample)
    n_cond = u.shape[1] - 1
    (result,) = scenario_tail_coefficient(u, (("H" * n_cond, "H"),), alpha, beta)
    return result


def manual_model(trees, copulas):
    structure = VineStructure(
        n_vars=max(max(e.constraint) for t in trees for e in t) + 1,
        trees=tuple(tuple(t) for t in trees),
    )
    meta = {
        e: {"loglik": 0.0, "aic": 0.0, "warnings": []}
        for e in structure.all_edges()
    }
    return VineModel(
        structure=structure,
        pair_copulas=dict(copulas),
        fit_meta=meta,
        n_obs=0,
        loglik=0.0,
    )


def simulated_scenario(model, pattern, n_mc=20_000, seed=0, alpha=0.05, beta=0.05):
    (result,) = scenario_tail_coefficient(
        vine.simulate(model, n_mc, seed), (pattern,), alpha, beta
    )
    return result


def three_var_model(pair_01):
    e01, e02 = VineEdge((0, 1)), VineEdge((0, 2))
    t2 = VineEdge((1, 2), (0,))
    indep = BivariateCopula("independence")
    return manual_model(
        ((e01, e02), (t2,)), {e01: pair_01, e02: indep, t2: indep}
    )


class TestAnalyticKendall:
    @pytest.mark.parametrize("family,theta,dim,t,expected", ANALYTIC_CASES)
    def test_values(self, family, theta, dim, t, expected):
        fn = analytic_kendall_fn(family, theta, dim=dim)
        assert_allclose(fn.evaluate(t), expected, rtol=1e-12)

    @pytest.mark.parametrize(
        "family,theta",
        [("independence", None), ("clayton", 2.0), ("gumbel", 2.0)],
    )
    def test_boundaries(self, family, theta):
        fn = analytic_kendall_fn(family, theta)
        assert fn.evaluate(1.0) == 1.0
        assert fn.evaluate(0.0) == 0.0

    def test_vectorised_and_monotone(self):
        fn = analytic_kendall_fn("gumbel", 1.7)
        vals = fn.evaluate(GRID_99)
        assert vals.shape == GRID_99.shape
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all(vals >= GRID_99)

    @pytest.mark.parametrize(
        "family,theta", [("clayton", 2.0), ("gumbel", 2.0), ("independence", None)]
    )
    def test_inverse_round_trip(self, family, theta):
        fn = analytic_kendall_fn(family, theta)
        t = np.linspace(0.05, 0.95, 19)
        assert_allclose(fn.inverse(fn.evaluate(t)), t, atol=1e-9)
        q = np.linspace(0.05, 0.95, 19)
        assert np.all(fn.evaluate(fn.inverse(q)) >= q - 1e-9)

    def test_unsupported_family(self):
        with pytest.raises(DomainError):
            analytic_kendall_fn("frank", 3.0)
        with pytest.raises(DomainError):
            analytic_kendall_fn("studentt", 0.5)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            analytic_kendall_fn("clayton", -1.0)
        with pytest.raises(DomainError):
            analytic_kendall_fn("clayton", None)
        with pytest.raises(DomainError):
            analytic_kendall_fn("gumbel", 0.8)
        with pytest.raises(DomainError):
            analytic_kendall_fn("gumbel", 2.0, dim=3)
        with pytest.raises(DomainError):
            analytic_kendall_fn("independence", 2.0)
        with pytest.raises(DomainError):
            analytic_kendall_fn("independence", dim=1)


class TestEmpiricalKendall:
    def test_comonotone_matches_diagonal(self):
        m = 400
        fn = kendall_fn(comonotone_sample(m))
        vals = fn.evaluate(GRID_99)
        assert np.all(vals >= GRID_99)
        assert np.all(vals <= GRID_99 + 1.0 / m + 1e-12)

    def test_independence_oracle(self):
        fn = kendall_fn(uniform_sample(30_000, 2, seed=7))
        oracle = analytic_kendall_fn("independence")
        assert np.max(np.abs(fn.evaluate(GRID_99) - oracle.evaluate(GRID_99))) < 0.02
        assert_allclose(fn.evaluate(0.5), 0.8465735902799727, atol=0.02)

    def test_clayton_oracle(self):
        sample = copula_oracle.sample(BivariateCopula("clayton", 0, (2.0,)), 30_000, 11)
        fn = kendall_fn(sample)
        oracle = analytic_kendall_fn("clayton", 2.0)
        assert np.max(np.abs(fn.evaluate(GRID_99) - oracle.evaluate(GRID_99))) < 0.02
        assert_allclose(fn.evaluate(0.5), 0.6875, atol=0.02)

    def test_three_dim_independence(self):
        fn = kendall_fn(uniform_sample(8000, 3, seed=3))
        oracle = analytic_kendall_fn("independence", dim=3)
        assert abs(fn.evaluate(0.5) - oracle.evaluate(0.5)) < 0.02

    @given(st.integers(0, 10_000), st.sampled_from(["uniform", "clayton", "tied"]))
    def test_dominates_diagonal(self, seed, kind):
        if kind == "uniform":
            sample = uniform_sample(300, 2, seed)
        elif kind == "clayton":
            sample = copula_oracle.sample(BivariateCopula("clayton", 0, (1.5,)), 300, seed)
        else:
            base = uniform_sample(150, 2, seed)
            sample = np.vstack([base, base])  # every row duplicated
        fn = kendall_fn(sample)
        assert np.all(fn.evaluate(GRID_99) >= GRID_99)

    def test_right_continuous_step(self):
        sample = uniform_sample(500, 2, seed=2)
        fn = kendall_fn(sample)
        w = np.sort(strict_dominance_counts(sample) / 500)
        t0 = w[200]
        assert fn.evaluate(t0) > fn.evaluate(t0 - 1e-9)

    def test_inverse_is_generalized(self):
        fn = kendall_fn(comonotone_sample(500))
        # smallest t with K(t) >= 0.05 is the 25th order statistic 24/500
        assert fn.inverse(0.05) == 24 / 500
        sample = uniform_sample(500, 2, seed=9)
        fn2 = kendall_fn(sample)
        support = np.sort(strict_dominance_counts(sample) / 500)
        for q in (0.1, 0.33, 0.9):
            t = fn2.inverse(q)
            assert t in support
            assert fn2.evaluate(t) >= q

    def test_metadata_fields(self):
        fn = kendall_fn(uniform_sample(250, 3, seed=1))
        assert fn.n_obs == 250
        assert fn.dim == 3
        assert "empirical" in repr(fn)

    def test_evaluate_rejects_outside_unit_interval(self):
        fn = kendall_fn(uniform_sample(300, 2, seed=0))
        with pytest.raises(DomainError):
            fn.evaluate(1.5)
        with pytest.raises(DomainError):
            fn.evaluate(-0.1)
        with pytest.raises(DomainError):
            fn.inverse(1.2)


class TestMultivariatePit:
    def test_dominating_row(self):
        ref = uniform_sample(200, 2, seed=4) * 0.9
        assert multivariate_pit(np.array([0.99, 0.99]), ref) == 1.0

    def test_row_below_everything(self):
        ref = uniform_sample(200, 2, seed=4) * 0.9 + 0.05
        assert multivariate_pit(np.array([0.01, 0.01]), ref) == 0.0

    def test_independent_reference_midpoint(self):
        ref = uniform_sample(40_000, 2, seed=5)
        assert_allclose(multivariate_pit(np.array([0.5, 0.5]), ref), 0.25, atol=0.01)

    def test_self_inclusion(self):
        ref = np.array([[0.2, 0.3], [0.5, 0.6]])
        assert multivariate_pit(np.array([0.2, 0.3]), ref) == 0.5
        assert multivariate_pit(np.array([0.5, 0.6]), ref) == 1.0

    def test_batch_and_scalar_shapes(self):
        ref = uniform_sample(1000, 3, seed=6)
        rows = uniform_sample(50, 3, seed=7)
        vals = multivariate_pit(rows, ref)
        assert vals.shape == (50,)
        assert isinstance(multivariate_pit(rows[0], ref), float)

    def test_dimension_mismatch(self):
        ref = uniform_sample(100, 2, seed=0)
        with pytest.raises(DomainError):
            multivariate_pit(np.array([0.5, 0.5, 0.5]), ref)
        with pytest.raises(DomainError):
            multivariate_pit(np.array([0.5, 0.5]), np.empty((0, 2)))


class TestTailMeasures:
    def test_lower_independence_identity(self):
        sample = uniform_sample(40_000, 3, seed=3)
        res = lambda_kendall(y_first(sample), (0.05,))["lower"]
        assert abs(res.values[0] - 0.05) < 3 * res.stderrs[0]
        assert res.side == "lower"
        assert res.reliable == (True,)

    def test_upper_independence_identity(self):
        sample = uniform_sample(40_000, 3, seed=3)
        res = upper_measure(sample, 0.05, 0.05)
        assert abs(res.value - 0.05) < 3 * res.mc_stderr
        assert res.metadata["remark_ratio"] == res.value / 0.95
        assert res.side == "upper"

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_independence_coverage(self, side):
        hits = 0
        for rep in range(50):
            rng = np.random.default_rng(1000 + rep if side == "lower" else 3000 + rep)
            sample = rng.random((5000, 3))
            value, stderr, _ = level(sample, 0.05, side)
            if abs(value - 0.05) < 3 * stderr:
                hits += 1
        assert hits >= 46

    def test_comonotone_lower_is_one(self):
        sample = comonotone_sample(5000, d=3, shuffle_seed=8)
        assert level(sample, 0.05, "lower")[0] == 1.0

    def test_countermonotone_upper_is_zero(self):
        u = comonotone_sample(5000, d=2, shuffle_seed=8)
        sample = np.column_stack([u, 1.0 - u[:, 0]])
        assert level(sample, 0.05, "upper")[0] == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_exactly(self, seed):
        rng = np.random.default_rng(seed)
        # at m >= 1000, alpha >= 0.05 keeps alpha * m above the reliability
        # floor of the scenario path
        m = int(rng.integers(1000, 2000))
        x_cols = int(rng.integers(1, 4))
        kind = seed % 3
        if kind == 0:
            arr = rng.random((m, x_cols + 1))
        elif kind == 1:
            pair = copula_oracle.sample(BivariateCopula("clayton", 0, (2.0,)), m, seed + 50)
            extra = rng.random((m, x_cols - 1)) if x_cols > 1 else np.empty((m, 0))
            arr = np.column_stack([pair[:, 0], extra, pair[:, 1]])
        else:
            arr = np.round(rng.random((m, x_cols + 1)), 2) * 0.98 + 0.01
        alpha = float(rng.uniform(0.05, 0.45))
        beta = float(rng.uniform(0.05, 0.45))
        # lambda_kendall: both sides, alpha = beta, at every level of its grid
        grid = (0.1, float(rng.uniform(0.05, 0.1)))
        res = lambda_kendall(y_first(arr), grid)
        for side in ("lower", "upper"):
            for a, value, n_cond in zip(grid, res[side].values, res[side].n_conditioning):
                assert (value, n_cond) == brute_q(arr, a, a, side)
        # the scenario path: the upper side, alpha != beta
        up = upper_measure(arr, alpha, beta)
        value, n_cond = brute_q(arr, alpha, beta, "upper")
        assert up.value == value
        assert up.n_conditioning == n_cond

    def test_clayton_example_against_brute(self):
        pair = copula_oracle.sample(BivariateCopula("clayton", 0, (2.0,)), 2000, 13)
        sample = np.column_stack([pair[:, 0], pair[:, 1], pair[:, 0]])
        value, _, n_cond = level(sample, 0.05, "lower")
        assert (value, n_cond) == brute_q(sample, 0.05, 0.05, "lower")
        assert value > 0.3  # strong lower dependence carried by Y = X1

    def test_gumbel_max_example_against_brute(self):
        pair = copula_oracle.sample(BivariateCopula("gumbel", 0, (2.0,)), 2000, 14)
        sample = np.column_stack([pair, pair.max(axis=1)])
        value, _, n_cond = level(sample, 0.05, "upper")
        assert (value, n_cond) == brute_q(sample, 0.05, 0.05, "upper")
        assert value > 0.5

    def test_ratio_definitions(self):
        sample = uniform_sample(2000, 2, seed=21)
        up = upper_measure(sample, 0.1, 0.2)
        assert up.ratio_vs_independence == up.value / 0.2
        assert up.metadata["remark_ratio"] == up.value / 0.8

    def test_level_validation(self):
        sample = uniform_sample(2000, 2, seed=0)
        for bad in (0.0, 0.5, 0.7, -0.1):
            with pytest.raises(DomainError):
                upper_measure(sample, bad, 0.05)
            with pytest.raises(DomainError):
                upper_measure(sample, 0.05, bad)

    def test_thin_tail_rejected(self):
        sample = uniform_sample(1000, 2, seed=0)
        with pytest.raises(ResolutionError):
            upper_measure(sample, 0.015, 0.05)  # 15 expected points

    def test_sample_validation(self):
        with pytest.raises(DomainError):
            lambda_kendall(np.random.default_rng(0).random((100, 1)))
        bad = uniform_sample(200, 3, seed=0)
        bad[0, 0] = np.nan
        with pytest.raises(DomainError):
            lambda_kendall(y_first(bad))

    def test_json_dict(self):
        res = upper_measure(uniform_sample(2000, 2, seed=1), 0.1, 0.1)
        data = res.to_json_dict()
        assert data["side"] == "upper"
        assert data["value"] == res.value
        assert data["alpha"] == 0.1
        assert data["n_conditioning"] == res.n_conditioning
        assert data["reliable"] is True
        assert isinstance(data["metadata"], dict)


class TestLambdaKendall:
    def test_independence_extrapolates_to_zero(self):
        sample = uniform_sample(40_000, 3, seed=17)
        res = lambda_kendall(y_first(sample))["lower"]
        for a, v, se in zip(res.alphas, res.values, res.stderrs):
            assert abs(v - a) < 4 * se
        assert res.extrapolated < 0.05

    def test_comonotone_is_one_everywhere(self):
        sample = comonotone_sample(5000, d=3, shuffle_seed=1)
        res = lambda_kendall(y_first(sample))["lower"]
        assert res.values == (1.0, 1.0, 1.0, 1.0)
        assert res.extrapolated == 1.0
        assert res.point_estimate == 1.0
        assert res.smallest_reliable_alpha == 0.01

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_independence_tracks_alpha(self, side, d):
        res = lambda_kendall(y_first(uniform_sample(100_000, d, seed=12)))[side]
        for a, v, se in zip(res.alphas, res.values, res.stderrs):
            assert abs(v - a) < 4 * se

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_family_ordering_near_zero(self, side):
        # tau matched to 1/3 across families, as in the published figure:
        # clayton leads the lower tail and gumbel the upper, at every level
        values = {
            name: lambda_kendall(y_first(copula_oracle.sample(cop, 300_000, 77)))[
                side
            ].values
            for name, cop in (
                ("gaussian", BivariateCopula("gaussian", 0, (0.5,))),
                ("gumbel", BivariateCopula("gumbel", 0, (1.5,))),
                ("clayton", BivariateCopula("clayton", 0, (1.0,))),
            )
        }
        order = ("clayton", "gaussian", "gumbel")
        if side == "upper":
            order = order[::-1]
        for j in range(len(DEFAULT_ALPHA_GRID)):
            assert values[order[0]][j] > values[order[1]][j] > values[order[2]][j]

    def test_clayton_collapsed_pair(self):
        pair = copula_oracle.sample(BivariateCopula("clayton", 0, (2.0,)), 1_000_000, 5)
        res = lambda_kendall(y_first(pair))["lower"]
        assert abs(res.extrapolated - 2 ** -0.5) < 0.05

    def test_gumbel_collapsed_pair_upper(self):
        pair = copula_oracle.sample(BivariateCopula("gumbel", 0, (2.0,)), 1_000_000, 8)
        res = lambda_kendall(y_first(pair))["upper"]
        assert abs(res.extrapolated - (2.0 - 2 ** 0.5)) < 0.05

    @pytest.mark.parametrize("ties", [False, True], ids=["tie-free", "ties"])
    def test_grid_values_equal_the_q_measures(self, ties):
        sample = uniform_sample(3000, 3, seed=5)
        if ties:
            sample = np.round(sample, 3)
        assert has_column_ties(sample[:, :-1]) == ties
        res = lambda_kendall(y_first(sample))
        alphas = res["lower"].alphas
        assert res["lower"].values == tuple(brute_q(sample, a, a, "lower")[0] for a in alphas)
        assert res["upper"].values == tuple(upper_measure(sample, a, a).value for a in alphas)

    def test_partial_reliability(self):
        sample = uniform_sample(1600, 2, seed=2)
        res = lambda_kendall(y_first(sample), (0.1, 0.01))["lower"]
        assert res.reliable == (True, False)
        assert res.smallest_reliable_alpha == 0.1
        assert res.point_estimate == res.values[0]
        assert res.extrapolated == min(max(res.values[0], 0.0), 1.0)

    def test_entirely_unreliable_grid(self):
        sample = uniform_sample(300, 2, seed=2)
        with pytest.raises(ResolutionError):
            lambda_kendall(y_first(sample), (0.01,))

    def test_grid_validation(self):
        sample = uniform_sample(2000, 2, seed=2)
        with pytest.raises(DomainError):
            lambda_kendall(y_first(sample), ())
        with pytest.raises(DomainError):
            lambda_kendall(y_first(sample), (0.01, 0.05))
        with pytest.raises(DomainError):
            lambda_kendall(y_first(sample), (0.2, 0.1))

    @pytest.mark.parametrize(
        "bad",
        [
            np.full(300, 0.5),
            np.array([[0.2, 0.3]]),
            np.where(np.eye(300, 2) > 0, np.inf, 0.5),
        ],
        ids=["one-dimensional", "one-row", "infinite"],
    )
    def test_sample_validation(self, bad):
        with pytest.raises(DomainError, match="sample"):
            lambda_kendall(bad)

    def test_json_dict(self):
        sample = y_first(uniform_sample(4000, 2, seed=3))
        res = lambda_kendall(sample, (0.1, 0.05))["upper"]
        data = res.to_json_dict()
        assert data["side"] == "upper"
        assert data["alphas"] == [0.1, 0.05]
        assert len(data["values"]) == 2
        assert data["extrapolated"] == res.extrapolated


class TestScenarioPattern:
    def test_validation(self):
        u = uniform_sample(2000, 3, seed=0)
        for pattern in (("", "H"), ("HLH", "H"), ("HX", "H"), ("HL", "X")):
            with pytest.raises(DomainError):
                scenario_tail_coefficient(u, (pattern,), 0.05, 0.05)
        with pytest.raises(DomainError):
            scenario_tail_coefficient(u, (("H", "H"),), 0.5, 0.05)
        with pytest.raises(DomainError):
            scenario_tail_coefficient(u, (("H", "H"),), 0.05, 0.0)

    @pytest.mark.parametrize("shape", [(2000,), (2000, 1)], ids=repr)
    def test_sample_needs_a_target_and_a_conditioning_column(self, shape):
        u = uniform_sample(2000, 2, seed=2)[:, 0].reshape(shape)
        with pytest.raises(DomainError, match="2-d with a target"):
            scenario_tail_coefficient(u, (("H", "H"),), 0.05, 0.05)

    def test_only_the_columns_the_patterns_use_must_be_finite(self):
        u = uniform_sample(2000, 4, seed=1)
        u[5, 3] = np.nan
        (ok,) = scenario_tail_coefficient(u, (("HL", "H"),), 0.05, 0.05)
        (ref,) = scenario_tail_coefficient(u[:, :3], (("HL", "H"),), 0.05, 0.05)
        assert ok == ref
        with pytest.raises(DomainError, match="finite"):
            scenario_tail_coefficient(u, (("HLH", "H"),), 0.05, 0.05)


class TestScenarioCoefficient:
    def test_independence_all_high(self):
        model = three_var_model(BivariateCopula("independence"))
        res = simulated_scenario(model, ("HH", "H"), n_mc=50_000, seed=4)
        assert abs(res.value - 0.05) < 3 * res.mc_stderr

    def test_reflecting_irrelevant_coordinate(self):
        # price (0) depends only on demand (1); wind (2) is independent,
        # so turning its direction around must not move the estimate
        model = three_var_model(BivariateCopula("gaussian", 0, (0.7,)))
        a = simulated_scenario(model, ("HH", "H"), n_mc=80_000, seed=21)
        b = simulated_scenario(model, ("HL", "H"), n_mc=80_000, seed=22)
        assert abs(a.value - b.value) < 2 * math.hypot(a.mc_stderr, b.mc_stderr)

    def test_reversed_pattern_agrees_under_radial_symmetry(self):
        # a Gaussian vine is radially symmetric, so turning every
        # direction around, target included, keeps the coefficient
        e01, e02 = VineEdge((0, 1)), VineEdge((0, 2))
        t2 = VineEdge((1, 2), (0,))
        model = manual_model(
            ((e01, e02), (t2,)),
            {
                e01: BivariateCopula("gaussian", 0, (0.6,)),
                e02: BivariateCopula("gaussian", 0, (-0.4,)),
                t2: BivariateCopula("gaussian", 0, (0.2,)),
            },
        )
        a = simulated_scenario(model, ("HL", "H"), n_mc=80_000, seed=41)
        b = simulated_scenario(model, ("LH", "L"), n_mc=80_000, seed=42)
        assert a.value > 0.05
        assert abs(a.value - b.value) < 3 * math.hypot(a.mc_stderr, b.mc_stderr)

    def test_low_target_mirrors_negated_dependence(self):
        low = simulated_scenario(
            three_var_model(BivariateCopula("gaussian", 0, (-0.6,))),
            ("H", "L"),
            n_mc=80_000,
            seed=31,
        )
        high = simulated_scenario(
            three_var_model(BivariateCopula("gaussian", 0, (0.6,))),
            ("H", "H"),
            n_mc=80_000,
            seed=32,
        )
        assert abs(low.value - high.value) < 3 * math.hypot(low.mc_stderr, high.mc_stderr)

    def test_metadata_and_determinism(self):
        model = three_var_model(BivariateCopula("gumbel", 0, (1.6,)))
        p = ("HL", "H")
        a = simulated_scenario(model, p, n_mc=20_000, seed=3, beta=0.1)
        b = simulated_scenario(model, p, n_mc=20_000, seed=3, beta=0.1)
        assert a == b
        assert a.metadata["pattern"] == "HL"
        assert a.metadata["n_mc"] == 20_000
        assert a.metadata["conditioning"] == [(1, "H"), (2, "L")]
        assert a.beta == 0.1

    def test_variable_range_checked(self):
        # three variables leave two conditioning letters; the long forms
        # of the directions are not letters
        model = three_var_model(BivariateCopula("independence"))
        with pytest.raises(DomainError):
            simulated_scenario(model, ("HHH", "H"))
        with pytest.raises(DomainError):
            simulated_scenario(model, ("H", "high"))

    def test_resolution_propagates(self):
        model = three_var_model(BivariateCopula("independence"))
        p = ("H", "H")
        with pytest.raises(ResolutionError):
            simulated_scenario(model, p, n_mc=1000, seed=0, alpha=0.01)
        with pytest.raises(ResolutionError):
            simulated_scenario(model, p, n_mc=500, seed=0, alpha=0.01)


def direction_patterns(n_cond):
    # every High/Low direction of conditioning columns 1..n_cond, with both
    # target directions, target column 0
    return tuple(
        ("".join(letters), target)
        for letters in product("HL", repeat=n_cond)
        for target in "HL"
    )


def reflected(u, pattern):
    # the pattern's working sample: Low columns reflected, target last
    letters, target = pattern
    cols = list(range(1, len(letters) + 1)) + [0]
    dirs = list(letters) + [target]
    return np.column_stack(
        [1.0 - u[:, v] if d == "L" else u[:, v] for v, d in zip(cols, dirs)]
    )


def reference_json(u, pattern, alpha=0.05, beta=0.05):
    # today's definition: the upper measure on the explicitly reflected sample
    letters, target = pattern
    ref = upper_measure(reflected(u, pattern), alpha, beta)
    out = ref.to_json_dict()
    out["metadata"].update(
        {
            "pattern": letters,
            "target": 0,
            "target_direction": target,
            "conditioning": [(k + 1, c) for k, c in enumerate(letters)],
            "n_mc": u.shape[0],
        }
    )
    return out


def recording_counts(monkeypatch):
    calls = []
    real = taildep.strict_dominance_counts

    def record(points):
        calls.append(np.array(points))
        return real(points)

    monkeypatch.setattr(taildep, "strict_dominance_counts", record)
    return calls


class TestScenarioOrthants:
    @pytest.mark.parametrize("n_cond", [1, 2, 3])
    def test_every_direction_matches_the_reflected_reference(
        self, n_cond, monkeypatch
    ):
        u = uniform_sample(2000, n_cond + 1, seed=60 + n_cond)
        assert not has_column_ties(u) and not has_column_ties(1.0 - u)
        patterns = direction_patterns(n_cond)
        calls = recording_counts(monkeypatch)
        results = scenario_tail_coefficient(u, patterns, 0.05, 0.1)
        # one lower-orthant count per non-empty column subset, shared by
        # all 2^(n_cond + 1) patterns
        assert len(calls) == 2**n_cond - 1
        monkeypatch.undo()
        assert len(results) == len(patterns)
        for pattern, result in zip(patterns, results):
            assert result.to_json_dict() == reference_json(u, pattern, beta=0.1)

    @pytest.mark.parametrize("n_cond", [1, 2, 3])
    def test_orthant_counts_match_brute_force(self, n_cond):
        u = uniform_sample(1500, n_cond + 1, seed=70 + n_cond)
        lower_counts = {(): 1500}
        for pattern in direction_patterns(n_cond)[::2]:
            x = reflected(u, pattern)[:, :-1]
            counts = taildep._orthant_counts(u, pattern[0], lower_counts)
            assert np.array_equal(counts, brute_counts(x, x, True))

    def test_same_conditioning_letters_share_one_count(self, monkeypatch):
        u = uniform_sample(2000, 4, seed=80)
        high, low = ("LHH", "H"), ("LHH", "L")
        calls = recording_counts(monkeypatch)
        both = scenario_tail_coefficient(u, (high, low), 0.05, 0.05)
        # LHH needs M_{w,s} and M_{d,w,s}; LHH:L adds nothing
        assert sorted(c.shape[1] for c in calls) == [2, 3]
        monkeypatch.undo()
        assert [r.to_json_dict() for r in both] == [
            reference_json(u, high),
            reference_json(u, low),
        ]

    def test_column_ties_fall_back_to_direct_counts(self, monkeypatch):
        u = np.clip(np.round(uniform_sample(2000, 3, seed=81), 2), 0.005, 0.995)
        assert has_column_ties(u[:, 1:])
        patterns = direction_patterns(2)
        # inclusion-exclusion is wrong here, so the fallback must run
        hl = patterns[2]
        x = reflected(u, hl)[:, :-1]
        ie = taildep._orthant_counts(u, hl[0], {(): 2000})
        assert not np.array_equal(ie, brute_counts(x, x, True))
        calls = recording_counts(monkeypatch)
        results = scenario_tail_coefficient(u, patterns, 0.05, 0.05)
        # one direct count per conditioning pattern, on its reflected columns
        assert len(calls) == 4
        assert np.array_equal(calls[1], x)
        monkeypatch.undo()
        for pattern, result in zip(patterns, results):
            assert result.to_json_dict() == reference_json(u, pattern)

    def test_reflection_merge_falls_back_to_direct_counts(self, monkeypatch):
        # 1e-17 and 2e-17 are distinct, but 1 - u maps both to 1.0
        u = uniform_sample(2000, 2, seed=82)
        u[0, 1], u[1, 1] = 1e-17, 2e-17
        assert not has_column_ties(u)
        assert has_column_ties(1.0 - u[:, 1:])
        low = ("L", "H")
        x = reflected(u, low)[:, :-1]
        ie = taildep._orthant_counts(u, low[0], {(): 2000})
        assert not np.array_equal(ie, brute_counts(x, x, True))
        calls = recording_counts(monkeypatch)
        (result,) = scenario_tail_coefficient(u, (low,), 0.05, 0.05)
        assert len(calls) == 1
        assert np.array_equal(calls[0], x)
        monkeypatch.undo()
        assert result.to_json_dict() == reference_json(u, low)

    def test_every_pattern_is_checked_before_the_first_count(self, monkeypatch):
        u = uniform_sample(2000, 4, seed=83)
        good = direction_patterns(3)[:4]
        calls = recording_counts(monkeypatch)
        far = ("HLLL", "H")
        with pytest.raises(DomainError):
            scenario_tail_coefficient(u, good + (far,), 0.05, 0.05)
        with pytest.raises(ResolutionError):
            scenario_tail_coefficient(u, good, 0.005, 0.05)
        bad = u.copy()
        bad[0, 1] = np.nan
        with pytest.raises(DomainError, match="finite"):
            scenario_tail_coefficient(bad, good, 0.05, 0.05)
        assert calls == []

    def test_a_data_sized_sample_is_counted_whole(self):
        # the 993 rows of a 1000-day hour, fewer than any Monte Carlo size
        # of the study; alpha * m = 49.65 still clears the reliability floor
        u = uniform_sample(993, 4, seed=84)
        patterns = direction_patterns(3)
        results = scenario_tail_coefficient(u, patterns, 0.05, 0.05)
        for pattern, result in zip(patterns, results):
            assert result.to_json_dict() == reference_json(u, pattern)
            value, n_cond = brute_q(reflected(u, pattern), 0.05, 0.05, "upper")
            assert (result.value, result.n_conditioning) == (value, n_cond)
        grid = (0.1, 0.05)
        res = lambda_kendall(u, grid)
        y_last = np.roll(u, -1, axis=1)
        for side in ("lower", "upper"):
            for a, value, n_cond in zip(grid, res[side].values, res[side].n_conditioning):
                assert (value, n_cond) == brute_q(y_last, a, a, side)
