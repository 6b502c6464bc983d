import json
import math
import os
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from powerdep import cli, pipeline, taildep
from powerdep.bicop import EPS
from powerdep.data_ingest import HourlyPanel, slice_hour
from powerdep.errors import ConfigError, DomainError, SelectionError
from powerdep.marginals import pit_transform
from powerdep.pipeline import (
    AnalysisConfig,
    HourlyAnalysisResult,
    RollingResult,
    window_count,
)
from conftest import blas_threads
from counting_oracle import brute_counts


def small_config(**overrides):
    base = dict(
        hours=(3, 12),
        window_days=200,
        step_days=60,
        n_mc_spearman=20_000,
        n_mc_tdc=40_000,
        n_mc_lambda=8_000,
        n_mc_scenario=5_000,
        n_mc_rolling=10_000,
        seed=5,
    )
    base.update(overrides)
    return AnalysisConfig(**base)


def by_hour(result):
    return {res.hour: res for res in result.results}


def gaussian_spearman(rho):
    return 6.0 / math.pi * math.asin(rho / 2.0)


@pytest.fixture(scope="module")
def panels():
    records = cli.generate_synthetic_records(
        420, seed=11, flavor="gaussian", hours=(3, 12)
    )
    return {h: slice_hour(records, h) for h in (3, 12)}


@pytest.fixture(scope="module")
def global_result(panels):
    return pipeline.run_global(panels, small_config())


# total days, window, step -> expected number of windows
WINDOW_CASES = [
    (732, 730, 1, 3),
    (731, 730, 1, 2),
    (730, 730, 1, 1),
    (1000, 730, 1, 271),
    (1000, 730, 7, 39),
    (1000, 730, 30, 10),
    (365, 200, 50, 4),
    (900, 100, 100, 9),
    (5000, 730, 365, 12),
    (200, 100, 1, 101),
]


class TestWindowCount:
    @pytest.mark.parametrize("total,window,step,expected", WINDOW_CASES)
    def test_frozen_cases(self, total, window, step, expected):
        assert window_count(total, window, step) == expected

    def test_window_longer_than_sample(self):
        with pytest.raises(DomainError):
            window_count(100, 101, 1)

    @pytest.mark.parametrize("window,step", [(0, 1), (10, 0), (-5, 3)])
    def test_rejects_nonpositive(self, window, step):
        with pytest.raises(DomainError):
            window_count(100, window, step)

    @given(
        total=st.integers(10, 5000),
        window=st.integers(1, 2000),
        step=st.integers(1, 400),
    )
    def test_last_window_fits_and_next_does_not(self, total, window, step):
        if window > total:
            return
        count = window_count(total, window, step)
        assert (count - 1) * step + window <= total
        assert count * step + window > total


class TestAnalysisConfig:
    def test_defaults_are_valid(self):
        cfg = AnalysisConfig()
        assert cfg.hours == tuple(range(24))
        assert cfg.window_days == 730
        assert cfg.step_days == 1
        assert cfg.scenarios == ("HLL", "HHL", "HLH", "LHH", "LHL")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hours": (24,)},
            {"hours": (3, 3)},
            {"window_days": 30},
            {"step_days": 0},
            {"alpha": 0.0},
            {"beta": 0.6},
            {"n_mc_spearman": 5000},
            {"n_mc_rolling": 9999},
            {"n_mc_scenario": 500},
            {"jobs": 0},
            {"scenarios": ("HXL",)},
            {"scenarios": ("HLL:Q",)},
            {"scenarios": ("",)},
            {"alpha": 0.01, "n_mc_scenario": 1000},
            {"alpha_grid": (0.01,), "n_mc_lambda": 1000},
            {"tdc_grid": (0.005,), "n_mc_tdc": 2000},
            {"alpha_grid": ()},
            {"alpha_grid": (0.2,)},
            {"tdc_grid": ()},
            {"tdc_grid": (0.05, 0.0)},
            {"alpha_grid": (0.01, 0.05)},
            {"seed": 1.5},
            {"seed": -1},
            {"hours": (3.7,)},
            {"hours": ()},
            {"window_days": 200.5},
            {"n_mc_lambda": 40000.5},
            {"jobs": True},
            {"hours": "12"},
            {"scenarios": "HLL"},
            {"alpha_grid": "0.1"},
            {"tdc_grid": 0.05},
            {"tdc_grid": (0.05, 0.05)},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            AnalysisConfig(**kwargs)

    # the scenarios count every row analyze_hour hands them, so their Monte
    # Carlo size is read and checked here alone
    @pytest.mark.parametrize("bad", [0.5, 2.9, True, 10_000.0], ids=repr)
    def test_non_integer_scenario_size_is_refused(self, bad):
        with pytest.raises(ConfigError, match="cannot read n_mc_scenario"):
            AnalysisConfig(n_mc_scenario=bad)

    @pytest.mark.parametrize("size", [np.int64(12_000), "12000"], ids=repr)
    def test_integer_scenario_size_is_read_as_an_int(self, size):
        cfg = AnalysisConfig(n_mc_scenario=size)
        assert type(cfg.n_mc_scenario) is int
        assert cfg == AnalysisConfig(n_mc_scenario=12_000)

    def test_pattern_needs_a_letter_per_conditioning_variable(self):
        # a quadrivariate hour conditions on demand, wind and solar
        with pytest.raises(ConfigError, match="shorter than the 3"):
            AnalysisConfig(scenarios=("HL",), hours=(12,))
        with pytest.raises(ConfigError, match="shorter than the 3"):
            AnalysisConfig(scenarios=("HLL", "LH:L"), hours=(3, 12))
        with pytest.raises(ConfigError, match="shorter than the 2"):
            AnalysisConfig(scenarios=("H",), hours=(3,))
        assert AnalysisConfig(scenarios=("HL",), hours=(3,)).scenarios == ("HL",)

    def test_pattern_normalization(self):
        cfg = AnalysisConfig(scenarios=("hll", "LHH:l", "HHL:H"))
        assert cfg.scenarios == ("HLL", "LHH:L", "HHL")

    def test_json_round_trip(self):
        cfg = small_config(scenarios=("HLL", "LHH:L"), jobs=2)
        clone = AnalysisConfig.from_json_dict(cfg.to_json_dict())
        assert clone == cfg

    def test_round_trip_rejects_unknown_keys(self):
        data = AnalysisConfig().to_json_dict()
        data["window"] = 100
        with pytest.raises(ConfigError):
            AnalysisConfig.from_json_dict(data)

    # the vine's candidate set and independence pre-test are fixed, not
    # config fields
    @pytest.mark.parametrize(
        "data",
        [{"candidates": [["gaussian", 0]]}, {"indep_test": 0.05}],
        ids=["candidates", "indep_test"],
    )
    def test_vine_model_space_is_not_a_config_key(self, data):
        (key,) = data
        with pytest.raises(ConfigError, match=key):
            AnalysisConfig.from_json_dict(data)


class TestRunGlobal:
    def test_hours_sorted_and_complete(self, global_result):
        assert [r.hour for r in global_result.results] == [3, 12]
        assert global_result.failures == ()

    def test_variable_split_by_hour(self, global_result):
        results = by_hour(global_result)
        assert results[3].variable_names == ("price", "demand", "wind")
        assert results[12].variable_names == ("price", "demand", "wind", "solar")
        assert results[3].vine_model.structure.n_vars == 3
        assert results[12].vine_model.structure.n_vars == 4

    def test_spearman_tracks_generator(self, global_result):
        # the synthetic vine couples price to the others with gaussian
        # pair copulas of rho 0.6, -0.4 and -0.3
        r12 = by_hour(global_result)[12]
        assert r12.spearman["price~demand"]["estimate"] == pytest.approx(
            gaussian_spearman(0.6), abs=0.09
        )
        assert r12.spearman["price~wind"]["estimate"] == pytest.approx(
            gaussian_spearman(-0.4), abs=0.09
        )
        assert r12.spearman["price~solar"]["estimate"] == pytest.approx(
            gaussian_spearman(-0.3), abs=0.09
        )
        r3 = by_hour(global_result)[3]
        assert r3.spearman["price~demand"]["estimate"] == pytest.approx(
            gaussian_spearman(0.6), abs=0.1
        )

    def test_spearman_matrix_is_symmetric_with_unit_diagonal(self, global_result):
        r12 = by_hour(global_result)[12]
        mat = np.array(r12.spearman_matrix)
        assert mat.shape == (4, 4)
        np.testing.assert_allclose(mat, mat.T)
        np.testing.assert_allclose(np.diag(mat), 1.0)
        assert mat[0, 1] == r12.spearman["price~demand"]["estimate"]

    def test_pairwise_tdc_covers_all_pairs(self, global_result):
        results = by_hour(global_result)
        assert len(results[12].pairwise_tdc) == 6
        assert len(results[3].pairwise_tdc) == 3
        levels = [lv["t"] for lv in results[12].pairwise_tdc["price~demand"]["levels"]]
        assert levels == sorted(small_config().tdc_grid)

    def test_lambda_values_present_and_bounded(self, global_result):
        for res in global_result.results:
            for side in ("lower", "upper"):
                lam = res.lambda_k[side]
                assert lam.side == side
                assert 0.0 <= lam.extrapolated <= 1.0

    def test_scenario_tables(self, global_result):
        results = by_hour(global_result)
        assert [row["pattern"] for row in results[12].scenario_table] == [
            "HLL", "HHL", "HLH", "LHH", "LHL",
        ]
        # trivariate hours drop the solar letter and de-duplicate
        assert [row["pattern"] for row in results[3].scenario_table] == [
            "HL", "HH", "LH",
        ]
        for row in results[12].scenario_table:
            assert row["result"].metadata["pattern"] == row["pattern"]

    def test_strong_scenario_dominates_under_positive_coupling(self, global_result):
        rows = {r["pattern"]: r["result"].value for r in by_hour(global_result)[12].scenario_table}
        # high demand with low wind and solar is the price-spike scenario
        assert rows["HLL"] > rows["LHH"]

    def test_missing_panel_is_config_error(self, panels):
        with pytest.raises(ConfigError, match="hours"):
            pipeline.run_global({3: panels[3]}, small_config())

    def test_panel_of_an_unconfigured_hour_is_refused_before_any_fit(
        self, panels, monkeypatch
    ):
        # the config checked its two-letter patterns against hour 3 only;
        # at quadrivariate hour 12 they would silently leave solar out
        config = small_config(hours=(3,), scenarios=("HL", "LH:L"))

        def no_fit(panel):
            raise AssertionError("the hour was fitted")

        monkeypatch.setattr(pipeline, "fit_hour", no_fit)
        with pytest.raises(ConfigError, match="hour 12"):
            pipeline.analyze_hour(panels[12], config)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failures_are_isolated_per_hour(self, panels, jobs):
        vals = panels[3].values.copy()
        vals[:, 1] = 7.5
        broken = dict(panels)
        broken[3] = HourlyPanel(
            hour=3,
            dates=panels[3].dates,
            values=vals,
            variable_names=panels[3].variable_names,
        )
        res = pipeline.run_global(broken, small_config(jobs=jobs))
        assert [r.hour for r in res.results] == [12]
        assert len(res.failures) == 1
        assert res.failures[0]["hour"] == 3
        assert res.failures[0]["code"] == "degenerate_series"

    def test_parallel_jobs_match_serial(self, panels, global_result):
        res = pipeline.run_global(panels, small_config(jobs=2))
        for hour in (3, 12):
            a = by_hour(res)[hour]
            b = by_hour(global_result)[hour]
            assert a.spearman == b.spearman
            assert [r["result"].value for r in a.scenario_table] == [
                r["result"].value for r in b.scenario_table
            ]

    def test_quad_hour_tail_measures_match_brute_force_counts(self, panels, monkeypatch):
        # the fast 3-column counting kernel must leave lambda_K and every
        # scenario coefficient exactly as the brute-force count gives them
        config = small_config(
            hours=(12,),
            n_mc_spearman=10_000,
            n_mc_tdc=2_000,
            n_mc_lambda=2_000,
            n_mc_scenario=1_000,
        )

        def tail_json(result):
            # compared as JSON text: NaN entries never compare equal as floats
            return json.dumps(
                [
                    {k: v.to_json_dict() for k, v in result.lambda_k.items()},
                    [row["result"].to_json_dict() for row in result.scenario_table],
                ],
                sort_keys=True,
            )

        fast = tail_json(pipeline.analyze_hour(panels[12], config))
        monkeypatch.setattr(
            taildep,
            "strict_dominance_counts",
            lambda x: brute_counts(x, x, True),
        )
        brute = tail_json(pipeline.analyze_hour(panels[12], config))
        assert fast == brute

    def test_nonconverged_marginal_is_a_warning(self, panels, global_result, monkeypatch):
        real_fit = pipeline.fit_ar_garch
        wind = panels[3].column("wind")

        def wind_stalls(series, dummies, spec):
            fit = real_fit(series, dummies, spec)
            if np.array_equal(series, wind):
                fit.converged = False
                fit.diagnostics["message"] = "STOP: TOTAL NO. OF ITERATIONS EXCEEDS LIMIT"
            return fit

        monkeypatch.setattr(pipeline, "fit_ar_garch", wind_stalls)
        result = pipeline.analyze_hour(panels[3], small_config(hours=(3,)))
        assert result.warnings[0] == (
            "wind: AR-GARCH fit did not converge: "
            "STOP: TOTAL NO. OF ITERATIONS EXCEEDS LIMIT"
        )
        assert sum("AR-GARCH" in w for w in result.warnings) == 1
        # converged fits add no warning
        assert not any(
            "AR-GARCH" in w for res in global_result.results for w in res.warnings
        )

    @pytest.mark.parametrize("hour", [3, 12])
    def test_vine_sees_the_pit_of_the_date_aligned_residuals(
        self, panels, hour, monkeypatch
    ):
        seen = []
        real_fit = pipeline.vine.fit_auto

        def spy(pseudo_obs):
            seen.append(pseudo_obs)
            return real_fit(pseudo_obs)

        monkeypatch.setattr(pipeline.vine, "fit_auto", spy)
        fits, _ = pipeline.fit_hour(panels[hour])
        (u,) = seen
        # price loses 7 rows to its lags; every column ends on the last date
        rows = len(panels[hour].dates) - 7
        residuals = np.column_stack([fit.residuals[-rows:] for fit in fits.values()])
        assert u.shape == (rows, len(panels[hour].variable_names))
        np.testing.assert_array_equal(u, pit_transform(residuals))
        assert np.all(u >= EPS) and np.all(u <= 1.0 - EPS)

    def test_hour_variable_split_enforced_structurally(self):
        with pytest.raises(DomainError):
            HourlyAnalysisResult(
                hour=12,
                variable_names=("price", "demand", "wind"),
                marginals={},
                vine_model=None,
                spearman={},
                spearman_matrix=(),
                pairwise_tdc={},
                lambda_k={},
                scenario_table=(),
            )
        with pytest.raises(DomainError):
            HourlyAnalysisResult(
                hour=3,
                variable_names=("price", "demand", "wind", "solar"),
                marginals={},
                vine_model=None,
                spearman={},
                spearman_matrix=(),
                pairwise_tdc={},
                lambda_k={},
                scenario_table=(),
            )


def _thread_spies(monkeypatch):
    """Record the thread of every call of the hour's measures, by name."""
    seen = {}
    for module, name in (
        (taildep, "lambda_kendall"),
        (taildep, "scenario_tail_coefficient"),
        (pipeline.vine, "induced_pair_tdc"),
        (pipeline.vine, "induced_spearman"),
    ):
        real = getattr(module, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            seen.setdefault(_name, set()).add(threading.get_ident())
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return seen


class TestOverlappedHour:
    """An hour with a spare worker counts lambda_K beside a second thread."""

    @pytest.mark.parametrize("hour", [12, 3])
    def test_one_hour_bundle_is_the_same_for_any_jobs(self, panels, hour, tmp_path):
        bundles = {}
        for jobs in (1, 2, 4):
            config = small_config(hours=(hour,), jobs=jobs)
            result = pipeline.run_global(panels, config)
            assert [r.hour for r in result.results] == [hour]
            paths = pipeline.write_report_bundle(tmp_path / str(jobs), config, result)
            files = {n: open(p, "rb").read() for n, p in paths.items()}
            # the metadata echoes the config, and only its jobs may differ
            metadata = files.pop("run_metadata.json")
            assert metadata.count(b'"jobs": %d,' % jobs) == 1
            files["run_metadata.json"] = metadata.replace(
                b'"jobs": %d,' % jobs, b'"jobs": 1,'
            )
            bundles[jobs] = files
        assert bundles[2] == bundles[1]
        assert bundles[4] == bundles[1]

    def test_lambda_counts_on_the_calling_thread_beside_one_worker(
        self, panels, monkeypatch
    ):
        # lambda_K's count stays on the calling thread: counted on a worker
        # thread, the memory it freed stayed in that thread's glibc arena and
        # peak RSS rose 10-22 MB over 30 repeated hours, against 5.5 MB
        seen = _thread_spies(monkeypatch)
        pipeline.run_global(panels, small_config(hours=(12,), jobs=2))
        caller = threading.get_ident()
        assert seen["lambda_kendall"] == {caller}
        (worker,) = seen["induced_spearman"]
        assert worker != caller
        assert seen["induced_pair_tdc"] == seen["scenario_tail_coefficient"] == {worker}

    @pytest.mark.parametrize(
        "hours, jobs, direct", [((12,), 1, False), ((3, 12), 3, True)]
    )
    def test_every_measure_runs_on_the_calling_thread_without_a_spare_worker(
        self, panels, monkeypatch, hours, jobs, direct
    ):
        seen = _thread_spies(monkeypatch)
        config = small_config(hours=hours, jobs=jobs)
        if direct:
            pipeline.analyze_hour(panels[12], config)
        else:
            pipeline.run_global(panels, config)
        assert len(seen) == 4
        assert all(threads == {threading.get_ident()} for threads in seen.values())

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_the_serial_order_picks_the_reported_error(self, panels, monkeypatch, jobs):
        def raises(error):
            def measure(*args, **kwargs):
                raise error("planted")

            return measure

        # serially the pair curves fail before lambda_K is counted
        monkeypatch.setattr(pipeline.vine, "induced_pair_tdc", raises(DomainError))
        monkeypatch.setattr(taildep, "lambda_kendall", raises(SelectionError))
        result = pipeline.run_global(panels, small_config(hours=(12,), jobs=jobs))
        assert [f["code"] for f in result.failures] == ["domain"]


@pytest.fixture(scope="module")
def panel_300():
    records = cli.generate_synthetic_records(300, seed=21, flavor="gaussian", hours=(3,))
    return slice_hour(records, 3)


def rolling_config(**overrides):
    base = dict(hours=(3,), window_days=200, step_days=20, seed=9)
    base.update(overrides)
    return small_config(**base)


class TestRunRolling:
    def test_window_layout(self, panel_300):
        roll = pipeline.run_rolling({3: panel_300}, rolling_config())[0]
        assert roll.hour == 3
        assert len(roll.window_end_dates) == window_count(300, 200, 20)
        expected_ends = tuple(
            panel_300.dates[w * 20 + 199].isoformat() for w in range(6)
        )
        assert roll.window_end_dates == expected_ends
        assert set(roll.series) == {"price~demand", "price~wind", "demand~wind"}
        assert set(roll.reference) == set(roll.series)
        assert roll.skipped == ()

    def test_stationary_series_hugs_reference(self, panel_300):
        roll = pipeline.run_rolling({3: panel_300}, rolling_config())[0]
        for pair, values in roll.series.items():
            series = np.array(values, dtype=float)
            ref = roll.reference[pair]
            band = 3.0 * (1.0 / math.sqrt(200) + 0.02)
            assert float(np.mean(np.abs(series - ref))) < band

    def test_degenerate_windows_are_skipped_not_fatal(self, panel_300):
        vals = panel_300.values.copy()
        vals[40:240, 1] = vals[40, 1]
        flat = HourlyPanel(
            hour=3,
            dates=panel_300.dates,
            values=vals,
            variable_names=panel_300.variable_names,
        )
        roll = pipeline.run_rolling({3: flat}, rolling_config())[0]
        skipped_idx = {entry["window_index"] for entry in roll.skipped}
        codes = {entry["window_index"]: entry["code"] for entry in roll.skipped}
        # the window sitting entirely inside the flat stretch is degenerate
        assert 2 in skipped_idx
        assert codes[2] == "degenerate_series"
        for pair, values in roll.series.items():
            for w, value in enumerate(values):
                if w in skipped_idx:
                    assert value is None
                else:
                    assert isinstance(value, float)

    def test_dependence_break_shows_up_in_the_series(self):
        records = cli.generate_synthetic_records(
            400, seed=31, flavor="break", hours=(3,)
        )
        panel = slice_hour(records, 3)
        cfg = small_config(hours=(3,), window_days=150, step_days=50, seed=13)
        roll = pipeline.run_rolling({3: panel}, cfg)[0]
        series = np.array(roll.series["price~demand"], dtype=float)
        reference = roll.reference["price~demand"]
        early = series[:2]   # windows fully inside the coupled first half
        late = series[4:]    # windows fully inside the independent half
        assert np.all(early > 0.5)
        assert np.all(np.abs(late) < 0.15)
        # the whole-sample fit averages over both regimes
        assert late.max() + 0.1 < reference < early.min() - 0.1

    def test_a_failing_window_is_skipped_not_fatal(self, panel_300, monkeypatch):
        # any PowerdepError of one window's fit is contained, not only the
        # degenerate-series and optimisation errors
        fit_hour = pipeline.fit_hour
        third_start = panel_300.dates[2 * 20]

        def failing_on_the_third_window(panel):
            if panel.dates[0] == third_start and len(panel.dates) == 200:
                raise SelectionError("no candidate fits")
            return fit_hour(panel)

        monkeypatch.setattr(pipeline, "fit_hour", failing_on_the_third_window)
        roll = pipeline.run_rolling({3: panel_300}, rolling_config())[0]
        assert roll.skipped == (
            {
                "window_index": 2,
                "window_end": roll.window_end_dates[2],
                "code": "selection",
                "message": "no candidate fits",
            },
        )
        for values in roll.series.values():
            assert values[2] is None
            assert all(isinstance(v, float) for k, v in enumerate(values) if k != 2)

    def test_parallel_jobs_match_serial(self, panel_300, tmp_path):
        serial = pipeline.run_rolling({3: panel_300}, rolling_config())
        pooled = pipeline.run_rolling({3: panel_300}, rolling_config(jobs=2))
        assert pooled == serial
        # the metadata echoes the config, jobs included, so both bundles
        # are written with one config
        bundles = []
        for name, rolls in (("serial", serial), ("pooled", pooled)):
            empty = pipeline.GlobalRunResult(results=(), failures=())
            paths = pipeline.write_report_bundle(
                tmp_path / name, rolling_config(), empty, rolls
            )
            bundles.append({n: open(p, "rb").read() for n, p in paths.items()})
        assert bundles[0] == bundles[1]

    def test_too_short_sample_is_domain_error(self, panel_300):
        with pytest.raises(DomainError, match="window"):
            pipeline.run_rolling(
                {3: panel_300}, rolling_config(window_days=290, step_days=20)
            )

    def test_missing_panel_is_config_error(self, panel_300):
        with pytest.raises(ConfigError):
            pipeline.run_rolling({3: panel_300}, rolling_config(hours=(3, 12)))

    def test_series_length_must_match_windows(self):
        with pytest.raises(DomainError):
            RollingResult(
                hour=3,
                variable_names=("price", "demand", "wind"),
                window_days=200,
                step_days=20,
                window_end_dates=("2015-07-19", "2015-08-08"),
                series={"price~demand": (0.5,)},
                reference={"price~demand": 0.5},
            )


def _blas_threads_of(task):
    return blas_threads()


class TestBlasPin:
    def test_studies_run_on_one_thread_and_restore_the_count(
        self, panels, panel_300, two_blas_threads, monkeypatch
    ):
        seen = []
        analyze_hour = pipeline.analyze_hour
        model_spearman = pipeline._model_spearman_all_pairs

        def analyze_recording(panel, config):
            seen.append(blas_threads())
            return analyze_hour(panel, config)

        def spearman_recording(panel, config, seed_keys):
            seen.append(blas_threads())
            return model_spearman(panel, config, seed_keys)

        monkeypatch.setattr(pipeline, "analyze_hour", analyze_recording)
        monkeypatch.setattr(pipeline, "_model_spearman_all_pairs", spearman_recording)
        pipeline.run_global(panels, small_config(hours=(3,)))
        assert blas_threads() == two_blas_threads
        pipeline.run_rolling({3: panel_300}, rolling_config(step_days=50))
        assert blas_threads() == two_blas_threads
        # one hour, then three windows and the reference
        assert seen == [(1,) * len(two_blas_threads)] * 5

    def test_pool_workers_run_on_one_thread(self, two_blas_threads):
        ones = (1,) * len(two_blas_threads)
        assert pipeline._map(_blas_threads_of, [(k,) for k in range(4)], 2) == [ones] * 4
        assert blas_threads() == two_blas_threads

    def test_missing_symbols_make_the_pin_a_no_op(self, two_blas_threads, monkeypatch):
        controls = pipeline._openblas_controls()
        monkeypatch.setattr(
            pipeline,
            "_OPENBLAS",
            (("numpy._core._multiarray_umath", "_missing"), ("no_such_module", "")),
        )
        with pipeline.one_blas_thread():
            assert pipeline._openblas_controls() == []
            assert blas_threads(controls) == two_blas_threads


@pytest.fixture(scope="module")
def bundle(tmp_path_factory, panels, global_result, panel_300):
    rolls = pipeline.run_rolling({3: panel_300}, rolling_config())
    out = tmp_path_factory.mktemp("bundle")
    paths = pipeline.write_report_bundle(out, small_config(), global_result, rolls)
    return out, paths, rolls


class TestReportBundle:
    def test_artifact_set(self, bundle):
        out, paths, _ = bundle
        assert sorted(paths) == [
            "hour_03.json",
            "hour_12.json",
            "rolling.json",
            "run_metadata.json",
            "series.csv",
        ]
        for path in paths.values():
            assert os.path.exists(path)

    def test_refuses_overwrite_without_force(self, bundle, global_result):
        out, _, rolls = bundle
        with pytest.raises(ConfigError, match="force"):
            pipeline.write_report_bundle(out, small_config(), global_result, rolls)

    def test_collision_on_a_later_file_writes_nothing(self, tmp_path, global_result):
        (tmp_path / "series.csv").write_text("kept\n")
        with pytest.raises(ConfigError, match="force"):
            pipeline.write_report_bundle(tmp_path, small_config(), global_result)
        assert os.listdir(tmp_path) == ["series.csv"]
        assert (tmp_path / "series.csv").read_text() == "kept\n"

    def test_failed_write_leaves_no_partial_bundle(
        self, tmp_path, global_result, monkeypatch
    ):
        # the second file write fails as on a full disk: no target and no
        # temporary file may remain
        real_open = open
        opened = []

        class FullDisk:
            def __init__(self, handle):
                self.handle = handle

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, text):
                raise OSError(28, "No space left on device")

        def failing_open(path, *args, **kwargs):
            handle = real_open(path, *args, **kwargs)
            opened.append(path)
            return FullDisk(handle) if len(opened) == 2 else handle

        monkeypatch.setattr(pipeline, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="No space"):
            pipeline.write_report_bundle(tmp_path, small_config(), global_result)
        assert len(opened) == 2
        assert os.listdir(tmp_path) == []

    def test_stale_temporary_file_does_not_block_a_write(self, tmp_path):
        # a writer killed mid-write leaves its temporary file behind
        (tmp_path / ".series.csv.tmp").write_text("")
        paths = pipeline.write_artifacts(tmp_path, {"series.csv": "a,b\n"}, force=True)
        assert (tmp_path / "series.csv").read_text() == "a,b\n"
        assert paths == {"series.csv": os.path.join(tmp_path, "series.csv")}
        assert sorted(os.listdir(tmp_path)) == [".series.csv.tmp", "series.csv"]

    def test_rewrite_with_force_is_byte_identical(self, bundle, global_result):
        out, paths, rolls = bundle
        before = {n: open(p, "rb").read() for n, p in paths.items()}
        pipeline.write_report_bundle(
            out, small_config(), global_result, rolls, force=True
        )
        after = {n: open(p, "rb").read() for n, p in paths.items()}
        assert before == after

    def test_hour_json_is_loadable_and_complete(self, bundle):
        _, paths, _ = bundle
        data = json.load(open(paths["hour_12.json"]))
        assert data["hour"] == 12
        assert data["variables"] == ["price", "demand", "wind", "solar"]
        assert set(data["marginals"]) == {"price", "demand", "wind", "solar"}
        assert data["vine"]["n_vars"] == 4
        assert len(data["scenarios"]) == 5
        assert {s["pattern"] for s in data["scenarios"]} == {
            "HLL", "HHL", "HLH", "LHH", "LHL",
        }

    def test_metadata_echoes_config_without_timestamps(self, bundle):
        _, paths, _ = bundle
        meta = json.load(open(paths["run_metadata.json"]))
        assert meta["config"] == small_config().to_json_dict()
        assert meta["failures"] == []
        assert meta["hours_completed"] == [3, 12]
        assert meta["rolling_hours"] == [3]
        assert set(meta["versions"]) == {"python", "numpy", "scipy"}
        assert not any("time" in key or "date" in key for key in meta)

    def test_csv_layout(self, bundle):
        _, paths, _ = bundle
        lines = open(paths["series.csv"]).read().splitlines()
        header = lines[0].split(",")
        assert header == [
            "hour", "section", "measure", "pair", "pattern", "side",
            "alpha", "beta", "window_end", "value", "ratio", "stderr",
            "reliable",
        ]
        rows = [line.split(",") for line in lines[1:]]
        assert all(len(row) == len(header) for row in rows)
        measures = {row[2] for row in rows}
        assert {
            "spearman", "tdc", "tdc_extrapolated", "lambda",
            "lambda_extrapolated", "scenario", "spearman_reference",
        } <= measures
        sections = {row[1] for row in rows}
        assert sections == {"global", "rolling"}
        rolling_rows = [row for row in rows if row[1] == "rolling" and row[2] == "spearman"]
        assert len(rolling_rows) == 3 * 6
        assert all(row[8] for row in rolling_rows)

    def test_render_csv_cells_under_given_columns(self):
        rows = [
            {"b": 0.1, "a": "x,y", "c": True, "extra": 9},
            {"a": 3, "b": np.float64(1e-17), "c": None},
            {},
        ]
        text = pipeline.render_csv(rows, columns=("a", "b", "c"))
        # a missing key or None is empty, floats round-trip, keys outside
        # the columns are left out, and a comma is quoted
        assert text == 'a,b,c\n"x,y",0.1,true\n3,1e-17,\n,,\n'

    def test_empty_lambda_levels_are_null_in_strict_json(self, tmp_path, panels):
        # this small quad hour leaves lambda_K levels with an empty
        # conditioning set: NaN in memory, null in the bundle
        config = small_config(
            hours=(12,),
            n_mc_spearman=10_000,
            n_mc_tdc=2_000,
            n_mc_lambda=2_000,
            n_mc_scenario=1_000,
        )
        result = pipeline.run_global({12: panels[12]}, config)
        paths = pipeline.write_report_bundle(tmp_path, config, result)

        def reject(token):
            raise ValueError(f"{token} is not strict JSON")

        bundle = {
            name: json.loads(open(path).read(), parse_constant=reject)
            for name, path in paths.items()
            if name.endswith(".json")
        }
        lam = result.results[0].lambda_k
        empty = [
            (side, i)
            for side, res in lam.items()
            for i, n in enumerate(res.n_conditioning)
            if n == 0
        ]
        assert empty
        for side, i in empty:
            assert math.isnan(lam[side].values[i])
            assert math.isnan(lam[side].stderrs[i])
            written = bundle["hour_12.json"]["lambda_k"][side]
            assert written["values"][i] is None
            assert written["stderrs"][i] is None

    def test_rerun_of_analysis_is_bit_identical(self, tmp_path, panels, global_result):
        res2 = pipeline.run_global(panels, small_config())
        a, b = tmp_path / "a", tmp_path / "b"
        paths_a = pipeline.write_report_bundle(a, small_config(), global_result)
        paths_b = pipeline.write_report_bundle(b, small_config(), res2)
        for name in paths_a:
            assert open(paths_a[name], "rb").read() == open(paths_b[name], "rb").read()
