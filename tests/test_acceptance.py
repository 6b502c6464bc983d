"""Acceptance suite: one check per release criterion.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s``)
and asserts the same condition, so the suite is green exactly when every
criterion holds at its stated tolerance.
"""

import math
import time

import numpy as np
from scipy import optimize, special

from powerdep import bicop, cli, counting, pipeline, taildep, vine
from powerdep.bicop import BivariateCopula, select_family_aic
from powerdep.data_ingest import slice_hour
from powerdep.marginals import (
    MarginalSpec,
    build_fit_from_params,
    fit_ar_garch,
    simulate_ar_garch,
)

import copula_oracle
from copula_oracle import lower_tdc, upper_tdc
from kendall_oracle import analytic_kendall_fn


def report(name, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_ar_garch_parameter_recovery():
    spec = MarginalSpec(lag_set=(1,), n_dummies=0)
    true = build_fit_from_params(spec, [0.5], [], 0.1, 0.1, 0.8)
    started = time.time()
    phi_errors, persistence_errors = [], []
    for seed in range(50):
        series = simulate_ar_garch(true, None, 5000, seed=seed)
        fit = fit_ar_garch(series, None, spec)
        phi_errors.append(abs(fit.phi[0] - 0.5))
        persistence_errors.append(abs(fit.alpha + fit.beta - 0.9))
    elapsed = time.time() - started
    med_phi = float(np.median(phi_errors))
    med_pers = float(np.median(persistence_errors))
    report(
        "garch recovery",
        med_phi <= 0.05 and med_pers <= 0.08 and elapsed < 120.0,
        f"median |phi err| {med_phi:.4f} (<=0.05), "
        f"median |alpha+beta err| {med_pers:.4f} (<=0.08), {elapsed:.1f}s (<120s)",
    )


def test_tail_coefficient_closed_forms():
    clayton = BivariateCopula("clayton", 0, (2.0,))
    gumbel = BivariateCopula("gumbel", 0, (2.0,))
    t = 1e-4
    numeric_lower = float(copula_oracle.cdf(clayton, np.array([t]), np.array([t]))[0]) / t
    s = 1.0 - t
    numeric_upper = (
        1.0 - 2.0 * s + float(copula_oracle.cdf(gumbel, np.array([s]), np.array([s]))[0])
    ) / (1.0 - s)
    lower_gap = abs(lower_tdc(clayton) - numeric_lower)
    upper_gap = abs(upper_tdc(gumbel) - numeric_upper)
    exact = (
        abs(lower_tdc(clayton) - 2.0 ** -0.5) < 1e-12
        and abs(upper_tdc(gumbel) - (2.0 - math.sqrt(2.0))) < 1e-12
    )
    report(
        "copula closed forms",
        exact and lower_gap < 2e-2 and upper_gap < 2e-2,
        f"clayton lower gap {lower_gap:.2e}, gumbel upper gap {upper_gap:.2e} (<2e-2)",
    )


def test_clayton_family_selection_rate():
    clayton = BivariateCopula("clayton", 0, (2.0,))
    hits = 0
    for seed in range(200):
        sample = copula_oracle.sample(clayton, 1000, seed=seed)
        selected = select_family_aic(sample, bicop.DEFAULT_CANDIDATES)
        hits += selected.best.copula.family == "clayton"
    report(
        "family selection",
        hits >= 190,
        f"clayton selected {hits}/200 (>=190)",
    )


def kendall_fn(sample):
    # the Kendall function the tail measures read their thresholds from
    return taildep.KendallFunction(counting.strict_dominance_counts(sample), sample.shape[1])


def test_kendall_function_empirical_vs_analytic():
    started = time.time()
    grid = np.linspace(0.01, 0.99, 99)
    clayton = BivariateCopula("clayton", 0, (2.0,))
    emp_clayton = kendall_fn(copula_oracle.sample(clayton, 100_000, seed=5))
    ana_clayton = analytic_kendall_fn("clayton", theta=2.0)
    sup_clayton = float(
        np.max(np.abs(emp_clayton.evaluate(grid) - ana_clayton.evaluate(grid)))
    )
    rng = np.random.default_rng(6)
    emp_indep = kendall_fn(rng.random((100_000, 2)) * 0.999998 + 1e-6)
    ana_indep = analytic_kendall_fn("independence", dim=2)
    sup_indep = float(
        np.max(np.abs(emp_indep.evaluate(grid) - ana_indep.evaluate(grid)))
    )
    elapsed = time.time() - started
    report(
        "kendall function oracle",
        sup_clayton < 0.02 and sup_indep < 0.02 and elapsed < 30.0,
        f"sup distance clayton {sup_clayton:.4f}, independence {sup_indep:.4f} "
        f"(<0.02), {elapsed:.1f}s (<30s)",
    )


def test_independence_identity_coverage():
    covered = 0
    for seed in range(100):
        rng = np.random.default_rng(10_000 + seed)
        sample = rng.random((100_000, 2)) * 0.999998 + 1e-6
        result = taildep.lambda_kendall(np.roll(sample, 1, axis=1), (0.05,))["lower"]
        covered += abs(result.values[0] - 0.05) < 3.0 * result.stderrs[0]
    report(
        "independence identity",
        covered >= 95,
        f"|q_L - beta| < 3 stderr in {covered}/100 replications (>=95)",
    )


def brute_lower_count(sample, alpha, beta):
    # row-by-row recount of the documented counting conventions
    arr = np.asarray(sample, float)
    x, y = arr[:, :-1], arr[:, -1]
    m = len(arr)
    w = np.array([np.sum(np.all(x < x[i], axis=1)) for i in range(m)]) / m
    v = np.array([np.sum(np.all(x <= x[i], axis=1)) for i in range(m)]) / m
    u_y = np.array([np.sum(y <= y[i]) for i in range(m)]) / m
    threshold = np.sort(w)[max(math.ceil(alpha * m) - 1, 0)]
    conditioning = v <= threshold
    n_cond = int(conditioning.sum())
    return float((conditioning & (u_y <= beta)).sum()) / n_cond, n_cond


def test_conditional_count_exactness():
    mismatches = []
    for case in range(20):
        rng = np.random.default_rng(5000 + case)
        m = int(rng.integers(400, 1800))
        d = int(rng.integers(1, 4))
        sample = rng.random((m, d + 1)) * 0.999998 + 1e-6
        if case % 3 == 0:
            sample = np.round(sample, 2)  # force heavy ties
            sample = np.clip(sample, 0.001, 0.999)
        if case % 4 == 0:
            sample[: m // 3] = sample[m // 3 : 2 * (m // 3)]  # duplicated rows
        # lambda_kendall's lower side at alpha = beta, every level of its grid
        grid = (0.1, float(rng.uniform(0.05, 0.1)))
        result = taildep.lambda_kendall(np.roll(sample, 1, axis=1), grid)["lower"]
        counted = list(zip(result.values, result.n_conditioning))
        if counted != [brute_lower_count(sample, a, a) for a in grid]:
            mismatches.append(case)
    report(
        "exact counting equality",
        not mismatches,
        f"lambda_kendall lower == brute force on 20/20 randomized cases"
        if not mismatches
        else f"mismatch in cases {mismatches}",
    )


def test_vine_induced_spearman_round_trip():
    corr = np.array([[1.0, 0.6, 0.4], [0.6, 1.0, 0.3], [0.4, 0.3, 1.0]])
    rng = np.random.default_rng(17)
    z = rng.multivariate_normal(np.zeros(3), corr, size=20_000)
    model = vine.fit_auto(special.ndtr(z))
    worst = 0.0
    for i, j in ((0, 1), (0, 2), (1, 2)):
        u = vine.simulate(model, 200_000, seed=100 + 3 * i + j)
        rho, _ = vine.induced_spearman(u, n_mc=200_000)
        target = 6.0 / math.pi * math.asin(corr[i, j] / 2.0)
        worst = max(worst, abs(rho[i, j] - target))
    report(
        "vine round trip",
        worst < 0.04,
        f"max |induced - analytic| spearman {worst:.4f} (<0.04)",
    )


def test_lambda_kendall_curve_ordering():
    def spearman_half_theta(family):
        return float(
            optimize.brentq(
                lambda th: copula_oracle.spearman_of(BivariateCopula(family, 0, (th,))) - 0.5,
                1.001 if family == "gumbel" else 0.05,
                12.0,
                xtol=1e-10,
            )
        )

    copulas = {
        "gaussian": BivariateCopula("gaussian", 0, (2.0 * math.sin(math.pi / 12.0),)),
        "gumbel": BivariateCopula("gumbel", 0, (spearman_half_theta("gumbel"),)),
        "clayton": BivariateCopula("clayton", 0, (spearman_half_theta("clayton"),)),
    }
    curves = {
        name: taildep.lambda_kendall(
            np.roll(copula_oracle.sample(cop, 1_000_000, seed=88), 1, axis=1)
        )
        for name, cop in copulas.items()
    }
    lower = {name: np.array(c["lower"].values) for name, c in curves.items()}
    upper = {name: np.array(c["upper"].values) for name, c in curves.items()}
    clayton_leads_lower = bool(
        np.all(lower["clayton"] > lower["gaussian"]) and np.all(lower["clayton"] > lower["gumbel"])
    )
    gumbel_leads_upper = bool(
        np.all(upper["gumbel"] > upper["gaussian"]) and np.all(upper["gumbel"] > upper["clayton"])
    )
    report(
        "lambda_K curve ordering",
        clayton_leads_lower and gumbel_leads_upper,
        "clayton dominates lambda_K lower and gumbel lambda_K upper at every level "
        f"(alpha grid {list(curves['gaussian']['lower'].alphas)}, spearman 0.5, 1e6 pairs)",
    )


def test_rolling_window_mechanics():
    cases = [
        (732, 730, 1, 3), (731, 730, 1, 2), (730, 730, 1, 1),
        (1000, 730, 1, 271), (1000, 730, 7, 39), (1000, 730, 30, 10),
        (365, 200, 50, 4), (900, 100, 100, 9), (5000, 730, 365, 12),
        (200, 100, 1, 101),
    ]
    formula_exact = all(
        pipeline.window_count(total, window, step) == expected
        for total, window, step, expected in cases
    )

    records = cli.generate_synthetic_records(300, seed=21, flavor="gaussian", hours=(3,))
    panel = slice_hour(records, 3)
    config = pipeline.AnalysisConfig(
        hours=(3,), window_days=200, step_days=20,
        n_mc_spearman=20_000, n_mc_tdc=40_000, n_mc_lambda=8_000,
        n_mc_scenario=5_000, n_mc_rolling=20_000, seed=9,
    )
    roll = pipeline.run_rolling({3: panel}, config)[0]
    # combined error band: window sampling error plus Monte Carlo error
    band = 1.0 / math.sqrt(config.window_days) + 1.0 / math.sqrt(config.n_mc_rolling)
    worst = max(
        abs(value - roll.reference[pair])
        for pair, values in roll.series.items()
        for value in values
    )
    report(
        "rolling mechanics",
        formula_exact and worst < 3.0 * band,
        f"window formula exact on {len(cases)} combos; "
        f"max |rolling - reference| {worst:.4f} (<{3.0 * band:.4f})",
    )


def test_report_bundle_determinism(tmp_path):
    records = cli.generate_synthetic_records(300, seed=11, flavor="gaussian", hours=(3, 12))
    panels = {h: slice_hour(records, h) for h in (3, 12)}
    config = pipeline.AnalysisConfig(
        hours=(3, 12), window_days=200, step_days=60,
        n_mc_spearman=20_000, n_mc_tdc=40_000, n_mc_lambda=8_000,
        n_mc_scenario=5_000, n_mc_rolling=10_000, seed=5,
    )
    rolling_config = pipeline.AnalysisConfig.from_json_dict(
        {**config.to_json_dict(), "hours": [3]}
    )
    bundles = []
    for name in ("first", "second"):
        out = tmp_path / name
        global_result = pipeline.run_global(panels, config)
        rolling = pipeline.run_rolling({3: panels[3]}, rolling_config)
        paths = pipeline.write_report_bundle(out, config, global_result, rolling)
        bundles.append({n: open(p, "rb").read() for n, p in paths.items()})
    identical = bundles[0] == bundles[1]
    report(
        "end-to-end determinism",
        identical,
        f"two full runs produced byte-identical bundles "
        f"({sorted(bundles[0])})",
    )
