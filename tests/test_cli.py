import json
import os

import numpy as np
import pytest

from powerdep import cli, pipeline, taildep, vine
from powerdep.data_ingest import slice_hour
from powerdep.errors import ConfigError
from conftest import blas_threads


def invoke(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    err = json.loads(captured.err) if captured.err.strip() else None
    return code, out, err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def data_csv(workdir):
    code = cli.main(
        [
            "synth",
            "--days", "420",
            "--seed", "11",
            "--hours", "3,12",
            "--out", str(workdir / "data"),
        ]
    )
    assert code == 0
    return str(workdir / "data" / "synthetic.csv")


@pytest.fixture(scope="module")
def small_config_file(workdir):
    path = workdir / "small.json"
    path.write_text(
        json.dumps(
            {
                "n_mc_spearman": 20000,
                "n_mc_tdc": 40000,
                "n_mc_lambda": 8000,
                "n_mc_scenario": 5000,
                "n_mc_rolling": 10000,
                "seed": 9,
            }
        )
    )
    return str(path)


def read_csv_rows(path):
    lines = open(path).read().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestSynth:
    def test_same_seed_same_bytes(self, tmp_path, capsys):
        for name in ("a", "b"):
            code, out, _ = invoke(
                ["synth", "--days", "90", "--seed", "4", "--hours", "5",
                 "--out", str(tmp_path / name)],
                capsys,
            )
            assert code == 0
            assert set(out["artifacts"]) == {"data", "metadata"}
        a = (tmp_path / "a" / "synthetic.csv").read_bytes()
        b = (tmp_path / "b" / "synthetic.csv").read_bytes()
        assert a == b

    def test_different_seed_different_bytes(self, tmp_path, capsys):
        for name, seed in (("a", "1"), ("b", "2")):
            invoke(
                ["synth", "--days", "90", "--seed", seed, "--hours", "5",
                 "--out", str(tmp_path / name)],
                capsys,
            )
        a = (tmp_path / "a" / "synthetic.csv").read_bytes()
        b = (tmp_path / "b" / "synthetic.csv").read_bytes()
        assert a != b

    def test_solar_blank_outside_daylight_hours(self, data_csv):
        rows = read_csv_rows(data_csv)
        assert {row["hour"] for row in rows} == {"3", "12"}
        assert all(row["solar"] == "" for row in rows if row["hour"] == "3")
        assert all(row["solar"] != "" for row in rows if row["hour"] == "12")

    def test_metadata_sidecar(self, data_csv, tmp_path, capsys):
        meta = json.load(open(os.path.join(os.path.dirname(data_csv), "synthetic_meta.json")))
        assert meta["flavor"] == "gaussian"
        assert meta["days"] == 420
        assert meta["seed"] == 11
        assert meta["hours"] == [3, 12]
        assert set(meta["marginals"]) == {"price", "demand", "wind", "solar"}
        assert meta["marginals"]["price"]["lag_set"] == [1, 2, 7]
        assert meta["vine"]["quadrivariate"]["n_vars"] == 4
        # the hours as generated, sorted and distinct, not as typed
        code, _, _ = invoke(
            ["synth", "--days", "60", "--hours", "5,3,3", "--out", str(tmp_path)], capsys
        )
        assert code == 0
        assert {row["hour"] for row in read_csv_rows(tmp_path / "synthetic.csv")} == {"3", "5"}
        assert json.load(open(tmp_path / "synthetic_meta.json"))["hours"] == [3, 5]

    def test_too_few_days_fails_cleanly(self, tmp_path, capsys):
        code, out, err = invoke(
            ["synth", "--days", "10", "--out", str(tmp_path)], capsys
        )
        assert code == 1
        assert out is None
        assert err["code"] == "config"

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        code = cli.main(
            ["synth", "--days", "60", "--seed", "-1", "--hours", "3",
             "--out", str(tmp_path)]
        )
        capsys.readouterr()
        assert code == 2
        assert not any(tmp_path.iterdir())

    def test_unknown_flavor_is_usage_error(self, tmp_path, capsys):
        code = cli.main(
            ["synth", "--days", "90", "--flavor", "cauchy", "--out", str(tmp_path)]
        )
        capsys.readouterr()
        assert code == 2


class TestIngest:
    def test_writes_panels_for_present_hours(self, data_csv, tmp_path, capsys):
        code, out, _ = invoke(
            ["ingest", "--data", data_csv, "--out", str(tmp_path)], capsys
        )
        assert code == 0
        panel = json.load(open(out["artifacts"]["panel_12"]))
        assert panel["hour"] == 12
        assert panel["variable_names"] == ["price", "demand", "wind", "solar"]
        assert len(panel["dates"]) == 420
        meta = json.load(open(out["artifacts"]["metadata"]))
        assert meta["hours"] == [3, 12]
        assert "clock" in meta["clock_changes"].get("note", "")

    def test_metadata_records_the_distinct_hours_written(
        self, data_csv, tmp_path, capsys
    ):
        code, out, _ = invoke(
            ["ingest", "--data", data_csv, "--hours", "12,3,12",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert sorted(out["artifacts"]) == ["metadata", "panel_03", "panel_12"]
        meta = json.load(open(out["artifacts"]["metadata"]))
        assert meta["hours"] == [3, 12]

    def test_full_day_data_reports_empty_repair_log(self, tmp_path, capsys):
        code, out, _ = invoke(
            ["synth", "--days", "70", "--seed", "1", "--out", str(tmp_path / "d")],
            capsys,
        )
        assert code == 0
        code, out, _ = invoke(
            ["ingest", "--data", str(tmp_path / "d" / "synthetic.csv"),
             "--hours", "0,23", "--out", str(tmp_path / "p")],
            capsys,
        )
        assert code == 0
        meta = json.load(open(out["artifacts"]["metadata"]))
        assert meta["clock_changes"] == {"dropped": [], "interpolated": []}


class TestFitVerbs:
    def test_fit_marginals_layout(self, data_csv, tmp_path, capsys):
        code, out, _ = invoke(
            ["fit-marginals", "--data", data_csv, "--hour", "3",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        data = json.load(open(out["artifacts"]["marginals"]))
        assert data["hour"] == 3
        assert set(data["marginals"]) == {"price", "demand", "wind"}
        price = data["marginals"]["price"]
        assert price["spec"]["lag_set"] == [1, 2, 7]
        assert len(price["params"]["phi"]) == 3
        assert price["diagnostics"]["converged"] is True

    def test_verbs_fit_on_one_blas_thread_and_restore_the_count(
        self, data_csv, tmp_path, capsys, two_blas_threads, monkeypatch
    ):
        seen = []
        fit_marginals = pipeline.fit_marginals

        def fit_recording(panel):
            seen.append(blas_threads())
            return fit_marginals(panel)

        monkeypatch.setattr(pipeline, "fit_marginals", fit_recording)
        code, _, _ = invoke(
            ["fit-marginals", "--data", data_csv, "--hour", "3", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert seen == [(1,) * len(two_blas_threads)]
        assert blas_threads() == two_blas_threads

    def test_fit_vine_is_deterministic(self, data_csv, tmp_path, capsys):
        for name in ("a", "b"):
            code, out, _ = invoke(
                ["fit-vine", "--data", data_csv, "--hour", "12",
                 "--out", str(tmp_path / name)],
                capsys,
            )
            assert code == 0
        a = (tmp_path / "a" / "vine_hour_12.json").read_bytes()
        b = (tmp_path / "b" / "vine_hour_12.json").read_bytes()
        assert a == b
        model = json.load(open(tmp_path / "a" / "vine_hour_12.json"))
        assert model["vine"]["n_vars"] == 4
        assert len(model["vine"]["trees"]) == 3

    def test_independence_generator_yields_independence_edges(self, tmp_path, capsys):
        invoke(
            ["synth", "--days", "420", "--seed", "2", "--flavor", "independence",
             "--hours", "3", "--out", str(tmp_path / "d")],
            capsys,
        )
        code, out, _ = invoke(
            ["fit-vine", "--data", str(tmp_path / "d" / "synthetic.csv"),
             "--hour", "3", "--out", str(tmp_path / "m")],
            capsys,
        )
        assert code == 0
        model = json.load(open(out["artifacts"]["vine"]))
        families = [
            e["copula"]["family"] for tree in model["vine"]["trees"] for e in tree
        ]
        assert families == ["independence"] * 3


class TestClaytonGenerator:
    def test_lower_tail_coefficient_above_target_level(self):
        records = cli.generate_synthetic_records(
            420, seed=6, flavor="clayton", hours=(3,)
        )
        panel = slice_hour(records, 3)
        _, model = pipeline.fit_hour(panel, pipeline.AnalysisConfig())
        u = vine.simulate(model, 200_000, seed=77)
        price_given_demand = np.column_stack([u[:, 0], u[:, 1]])
        lam = taildep.lambda_kendall(price_given_demand)
        assert lam["lower"].extrapolated > 0.3
        assert lam["upper"].extrapolated < 0.15


class TestTailAndScenarios:
    def test_tail_with_pattern_emits_scenario_row(
        self, data_csv, small_config_file, tmp_path, capsys
    ):
        code, out, _ = invoke(
            ["tail", "--data", data_csv, "--hour", "12",
             "--alpha", "0.05", "--beta", "0.05", "--pattern", "HLL",
             "--config", small_config_file, "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        rows = read_csv_rows(out["artifacts"]["tail_csv"])
        scenario = [row for row in rows if row["measure"] == "scenario"]
        assert len(scenario) == 1
        assert scenario[0]["pattern"] == "HLL:H"
        assert scenario[0]["alpha"] == "0.05"
        assert scenario[0]["beta"] == "0.05"
        assert 0.0 <= float(scenario[0]["value"]) <= 1.0
        measures = {row["measure"] for row in rows}
        assert {"lambda", "lambda_extrapolated", "tdc", "spearman"} <= measures
        report = json.load(open(out["artifacts"]["tail_json"]))
        assert [s["pattern"] for s in report["scenarios"]] == ["HLL"]

    def test_flag_overrides_config_file(
        self, data_csv, small_config_file, tmp_path, capsys
    ):
        code, out, _ = invoke(
            ["tail", "--data", data_csv, "--hour", "12",
             "--alpha", "0.08", "--pattern", "HLL",
             "--config", small_config_file, "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        rows = read_csv_rows(out["artifacts"]["tail_csv"])
        scenario = [row for row in rows if row["measure"] == "scenario"]
        assert scenario[0]["alpha"] == "0.08"

    def test_tail_collision_on_a_later_file_writes_nothing(
        self, data_csv, small_config_file, tmp_path, capsys
    ):
        (tmp_path / "tail_hour_03.csv").write_text("kept\n")
        code, _, err = invoke(
            ["tail", "--data", data_csv, "--hour", "3",
             "--config", small_config_file, "--out", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert err["code"] == "config"
        assert "force" in err["message"]
        assert err["location"].endswith("tail_hour_03.csv")
        assert os.listdir(tmp_path) == ["tail_hour_03.csv"]

    def test_scenarios_verb_trivariate_dedup(
        self, data_csv, small_config_file, tmp_path, capsys
    ):
        code, out, _ = invoke(
            ["scenarios", "--data", data_csv, "--hour", "3",
             "--config", small_config_file, "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        rows = read_csv_rows(out["artifacts"]["scenarios_csv"])
        assert [row["pattern"] for row in rows] == ["HL:H", "HH:H", "LH:H"]
        assert all(row["measure"] == "scenario" for row in rows)


class TestRoll:
    def test_rolling_layout(self, data_csv, small_config_file, tmp_path, capsys):
        code, out, _ = invoke(
            ["roll", "--data", data_csv, "--hours", "3",
             "--window", "200", "--step", "60",
             "--config", small_config_file, "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        rows = read_csv_rows(out["artifacts"]["rolling_csv"])
        series_rows = [row for row in rows if row["measure"] == "spearman"]
        reference_rows = [
            row for row in rows if row["measure"] == "spearman_reference"
        ]
        n_windows = pipeline.window_count(420, 200, 60)
        assert len(series_rows) == 3 * n_windows
        assert len(reference_rows) == 3
        assert all(row["window_end"] for row in series_rows)
        report = json.load(open(out["artifacts"]["rolling_json"]))
        assert report[0]["hour"] == 3
        assert len(report[0]["window_end_dates"]) == n_windows


    def test_pooled_windows_write_the_same_bytes(
        self, data_csv, small_config_file, tmp_path, capsys
    ):
        reports = []
        for jobs in (1, 2):
            cfg = tmp_path / f"jobs{jobs}.json"
            cfg.write_text(
                json.dumps({**json.load(open(small_config_file)), "jobs": jobs})
            )
            code, out, _ = invoke(
                ["roll", "--data", data_csv, "--hours", "3",
                 "--window", "200", "--step", "60",
                 "--config", str(cfg), "--out", str(tmp_path / f"out{jobs}")],
                capsys,
            )
            assert code == 0
            reports.append(open(out["artifacts"]["rolling_json"], "rb").read())
        assert reports[0] == reports[1]


class TestSimulate:
    def test_simulate_from_stored_model(self, data_csv, tmp_path, capsys):
        code, out, _ = invoke(
            ["fit-vine", "--data", data_csv, "--hour", "3",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        model_path = out["artifacts"]["vine"]
        for name in ("a", "b"):
            code, out, _ = invoke(
                ["simulate", "--model", model_path, "--n", "500", "--seed", "4",
                 "--out", str(tmp_path / name)],
                capsys,
            )
            assert code == 0
        a = (tmp_path / "a" / "simulated_u.csv").read_text()
        b = (tmp_path / "b" / "simulated_u.csv").read_text()
        assert a == b
        lines = a.splitlines()
        assert lines[0] == "u0,u1,u2"
        values = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
        assert values.shape == (500, 3)
        assert np.all((values > 0.0) & (values < 1.0))

    def test_missing_model_file(self, tmp_path, capsys):
        code, out, err = invoke(
            ["simulate", "--model", str(tmp_path / "nope.json"),
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert err["code"] == "config"
        assert "nope.json" in err["location"]

    @pytest.mark.parametrize(
        "content",
        [None, "{not json", "[1, 2]", '{"trees": 3}', "{}"],
        ids=["missing", "malformed", "list", "scalar-trees", "empty"],
    )
    def test_unreadable_model_file_is_a_config_error_at_its_path(
        self, content, tmp_path, capsys
    ):
        model = tmp_path / "model.json"
        if content is not None:
            model.write_text(content)
        code, _, err = invoke(
            ["simulate", "--model", str(model), "--out", str(tmp_path)], capsys
        )
        assert code == 1
        assert err["code"] == "config"
        assert err["location"] == str(model)


class TestCliContract:
    def test_unknown_verb_is_usage_error(self, capsys):
        code = cli.main(["frobnicate"])
        capsys.readouterr()
        assert code == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        code = cli.main(["synth", "--frobnicate"])
        capsys.readouterr()
        assert code == 2

    def test_roll_has_no_jobs_flag(self, capsys):
        # roll reads jobs from the config file, like the other
        # AnalysisConfig fields without a flag
        code = cli.main(["roll", "--hours", "3", "--jobs", "2"])
        capsys.readouterr()
        assert code == 2

    def test_help_exits_zero(self, capsys):
        code = cli.main(["--help"])
        capsys.readouterr()
        assert code == 0

    def test_missing_data_flag_is_data_error(self, tmp_path, capsys):
        code, out, err = invoke(
            ["fit-vine", "--hour", "3", "--out", str(tmp_path)], capsys
        )
        assert code == 1
        assert err == {"code": "config", "message": "a --data CSV path is required"}

    def test_missing_data_file_reports_location(self, tmp_path, capsys):
        code, out, err = invoke(
            ["ingest", "--data", str(tmp_path / "absent.csv"),
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert err["code"] == "config"
        assert "absent.csv" in err["location"]

    def test_undecodable_data_file_is_a_json_error(self, tmp_path, capsys):
        data = tmp_path / "utf16.csv"
        data.write_bytes(b"\xff\xfe" + "date,hour\n".encode("utf-16-le"))
        code, out, err = invoke(
            ["ingest", "--data", str(data), "--out", str(tmp_path / "out")], capsys
        )
        assert code == 1
        assert err["code"] == "schema"
        assert err["location"] == str(data)

    def test_refuses_overwrite_without_force(self, tmp_path, capsys):
        args = ["synth", "--days", "70", "--hours", "5", "--out", str(tmp_path)]
        assert invoke(args, capsys)[0] == 0
        code, out, err = invoke(args, capsys)
        assert code == 1
        assert err["code"] == "config"
        code, out, err = invoke(args + ["--force"], capsys)
        assert code == 0

    def test_unwritable_artifact_is_a_config_error_at_the_out_dir(
        self, tmp_path, capsys
    ):
        # a directory in an artifact's place cannot be replaced, even with --force
        (tmp_path / "synthetic.csv").mkdir()
        code, out, err = invoke(
            ["synth", "--days", "70", "--hours", "5", "--out", str(tmp_path), "--force"],
            capsys,
        )
        assert code == 1
        assert err["code"] == "config"
        assert err["location"] == str(tmp_path)
        assert os.listdir(tmp_path) == ["synthetic.csv"]
        assert not any((tmp_path / "synthetic.csv").iterdir())

    def test_env_var_sets_default_output_dir(self, tmp_path, monkeypatch, capsys):
        target = tmp_path / "from_env"
        monkeypatch.setenv(cli.OUT_ENV, str(target))
        code, out, _ = invoke(
            ["synth", "--days", "70", "--hours", "5"], capsys
        )
        assert code == 0
        assert (target / "synthetic.csv").exists()

    def test_config_file_supplies_defaults_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"days": 100, "seed": 3, "hours": "5"}))
        code, out, _ = invoke(
            ["synth", "--config", str(cfg), "--days", "80",
             "--out", str(tmp_path / "d")],
            capsys,
        )
        assert code == 0
        rows = read_csv_rows(out["artifacts"]["data"])
        assert len(rows) == 80
        meta = json.load(open(out["artifacts"]["metadata"]))
        assert meta["seed"] == 3

    def test_config_file_must_exist_and_parse(self, tmp_path, capsys):
        code, _, err = invoke(
            ["synth", "--config", str(tmp_path / "nope.json"),
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert err["code"] == "config"
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = invoke(
            ["synth", "--config", str(bad), "--out", str(tmp_path)], capsys
        )
        assert code == 1
        assert err["code"] == "config"

    @pytest.mark.parametrize("verb", ["fit-vine", "tail"])
    @pytest.mark.parametrize(
        "content",
        [
            {"alpha_grid": 0.05},
            {"n_mc_tdc": "many"},
            {"scenarios": "HLL"},
            {"alpha_grid": "0.05"},
            {"window_days": 200.5},
            {"jobs": True},
            {"alpha": True},
        ],
        ids=["scalar-grid", "string-size", "string-scenarios", "string-grid",
             "fractional-window", "boolean-jobs", "boolean-alpha"],
    )
    def test_wrong_typed_config_value_is_a_config_error_at_the_file(
        self, verb, content, data_csv, tmp_path, capsys
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))
        out = tmp_path / "out"
        code, _, err = invoke(
            [verb, "--data", data_csv, "--hour", "3", "--config", str(cfg),
             "--out", str(out)],
            capsys,
        )
        assert code == 1
        assert err["code"] == "config"
        assert err["location"] == str(cfg)
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "verb, content",
        [
            ("synth", {"days": "x"}),
            ("synth", {"seed": "x"}),
            ("synth", {"start": "2015-13-01"}),
            ("simulate", {"n": "many"}),
            ("simulate", {"seed": [1]}),
            ("fit-vine", {"hour": "noon"}),
            ("synth", {"days": 70.9}),
            ("synth", {"seed": True}),
            ("synth", {"seed": -1}),
            ("simulate", {"n": 500.5}),
            ("fit-vine", {"hour": 3.5}),
            ("synth", {"flavor": "weird"}),
        ],
        ids=["synth-days", "synth-seed", "synth-start", "simulate-n",
             "simulate-seed", "hour", "fractional-days", "boolean-seed",
             "negative-seed", "fractional-n", "fractional-hour", "unknown-flavor"],
    )
    def test_unconvertible_config_value_is_a_config_error_at_the_file(
        self, verb, content, data_csv, tmp_path, capsys
    ):
        argv = [verb]
        if verb == "simulate":
            code, fitted, _ = invoke(
                ["fit-vine", "--data", data_csv, "--hour", "3",
                 "--out", str(tmp_path / "model")],
                capsys,
            )
            assert code == 0
            argv += ["--model", fitted["artifacts"]["vine"]]
        elif verb == "fit-vine":
            argv += ["--data", data_csv]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))
        out = tmp_path / "out"
        code, _, err = invoke(argv + ["--config", str(cfg), "--out", str(out)], capsys)
        assert code == 1
        assert err["code"] == "config"
        assert err["location"] == str(cfg)
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "days, seed, hours",
        [(70.9, 0, (5,)), (70, 0, (5.7,)), (70, -1, (5,))],
        ids=["fractional-days", "fractional-hour", "negative-seed"],
    )
    def test_generator_rejects_unreadable_arguments(self, days, seed, hours):
        with pytest.raises(ConfigError):
            cli.generate_synthetic_records(days, seed, hours=hours)

    def test_generator_rejects_bad_hours(self):
        with pytest.raises(ConfigError):
            cli.generate_synthetic_records(100, seed=0, hours=(25,))
        with pytest.raises(ConfigError):
            cli.generate_synthetic_records(100, seed=0, flavor="weird")
