import datetime
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from powerdep.data_ingest import (
    HourlyPanel,
    RawHourlyRecord,
    build_dummies,
    fix_clock_changes,
    load_csv,
    slice_hour,
)
from powerdep.errors import (
    ClockChangeError,
    DomainError,
    DuplicateKeyError,
    MissingDatesError,
    RowParseError,
    SchemaError,
)

HEADER = "date,hour,price,demand,wind,solar\n"


def write_csv(tmp_path, body, header=HEADER, name="panel.csv"):
    path = tmp_path / name
    path.write_text(header + body)
    return path


def make_records(start, n_days, hours=range(24), base=10.0):
    records = []
    day0 = datetime.date.fromisoformat(start)
    for k in range(n_days):
        day = day0 + datetime.timedelta(days=k)
        for h in hours:
            x = base + k + h / 100.0
            records.append(
                RawHourlyRecord(
                    date=day, hour=h, price=x, demand=2 * x, wind=3 * x, solar=4 * x
                )
            )
    return records


class TestLoadCsv:
    def test_three_rows_in_order(self, tmp_path):
        body = (
            "2019-01-02,1,30.5,55000,12000,0\n"
            "2019-01-01,5,28.0,54000,11000,0\n"
            "2019-01-01,2,25.0,50000,10000,0\n"
        )
        recs = load_csv(write_csv(tmp_path, body))
        assert [(r.date.isoformat(), r.hour) for r in recs] == [
            ("2019-01-01", 2),
            ("2019-01-01", 5),
            ("2019-01-02", 1),
        ]
        assert recs[0].price == 25.0
        assert recs[0].demand == 50000.0

    def test_duplicate_key_raises(self, tmp_path):
        body = (
            "2019-10-27,2,30.0,50000,9000,0\n"
            "2019-10-27,2,29.0,50100,9100,0\n"
        )
        with pytest.raises(DuplicateKeyError, match="2019-10-27.*hour=2"):
            load_csv(write_csv(tmp_path, body))

    def test_duplicates_pass_through_when_allowed(self, tmp_path):
        body = (
            "2019-10-27,2,30.0,50000,9000,0\n"
            "2019-10-27,2,29.0,50100,9100,0\n"
        )
        recs = load_csv(write_csv(tmp_path, body), allow_duplicate_hours=True)
        assert len(recs) == 2
        assert recs[0].price == 30.0

    def test_negative_price_accepted(self, tmp_path):
        recs = load_csv(
            write_csv(tmp_path, "2019-06-08,14,-15.2,42000,8000,20000\n")
        )
        assert recs[0].price == -15.2

    def test_missing_column_schema_error(self, tmp_path):
        path = write_csv(
            tmp_path, "2019-01-01,1,30,50\n", header="date,hour,price,demand\n"
        )
        with pytest.raises(SchemaError, match="wind"):
            load_csv(path)

    def test_renamed_headers_are_schema_error(self, tmp_path):
        path = write_csv(
            tmp_path,
            "2019-01-01,1,30,50000,9000,0\n",
            header="timestamp,hour,price,load,wind,solar\n",
        )
        with pytest.raises(SchemaError, match=r"\['date', 'demand'\]"):
            load_csv(path)

    def test_column_order_is_free(self, tmp_path):
        path = write_csv(
            tmp_path,
            "0,9000,50000,30.5,3,2019-01-01\n",
            header="solar,wind,demand,price,hour,date\n",
        )
        (rec,) = load_csv(path)
        assert rec == RawHourlyRecord(
            date=datetime.date(2019, 1, 1),
            hour=3,
            price=30.5,
            demand=50000.0,
            wind=9000.0,
            solar=0.0,
        )

    def test_undecodable_file_is_schema_error(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_bytes(b"\xff\xfe" + HEADER.encode("utf-16-le"))
        with pytest.raises(SchemaError, match="cannot decode") as err:
            load_csv(path)
        assert err.value.location == str(path)

    def test_oversized_field_reports_line(self, tmp_path):
        body = "2019-01-01,0,1,2,3,4\n2019-01-01,1," + "9" * 200_000 + ",2,3,4\n"
        with pytest.raises(RowParseError, match="cannot split") as err:
            load_csv(write_csv(tmp_path, body))
        assert err.value.location == "line 3"

    def test_bad_timestamp_reports_line(self, tmp_path):
        body = "2019-01-01,0,1,2,3,4\nnot-a-date,1,1,2,3,4\n"
        with pytest.raises(RowParseError) as err:
            load_csv(write_csv(tmp_path, body))
        assert err.value.location == "line 3"

    def test_bad_hour_and_range(self, tmp_path):
        with pytest.raises(RowParseError, match="out of range"):
            load_csv(write_csv(tmp_path, "2019-01-01,24,1,2,3,4\n"))
        with pytest.raises(RowParseError, match="cannot parse hour"):
            load_csv(write_csv(tmp_path, "2019-01-01,x,1,2,3,4\n"))

    def test_bad_value_reports_column(self, tmp_path):
        with pytest.raises(RowParseError, match="demand"):
            load_csv(write_csv(tmp_path, "2019-01-01,0,1,NA,3,4\n"))

    def test_empty_solar_defaults_to_zero(self, tmp_path):
        recs = load_csv(write_csv(tmp_path, "2019-01-01,3,1,2,3,\n"))
        assert recs[0].solar == 0.0

    def test_empty_price_rejected(self, tmp_path):
        with pytest.raises(RowParseError, match="price"):
            load_csv(write_csv(tmp_path, "2019-01-01,3,,2,3,0\n"))


class TestFixClockChanges:
    def test_intact_days_unchanged(self):
        recs = make_records("2019-03-01", 3)
        assert fix_clock_changes(recs) == recs

    def test_spring_missing_hour_interpolated(self):
        recs = [r for r in make_records("2019-03-31", 1) if r.hour != 2]
        h1 = next(r for r in recs if r.hour == 1)
        h3 = next(r for r in recs if r.hour == 3)
        collect = {}
        fixed = fix_clock_changes(recs, collect=collect)
        assert len(fixed) == 24
        filled = next(r for r in fixed if r.hour == 2)
        assert filled.price == 0.5 * (h1.price + h3.price)
        assert filled.demand == 0.5 * (h1.demand + h3.demand)
        assert filled.wind == 0.5 * (h1.wind + h3.wind)
        assert filled.solar == 0.5 * (h1.solar + h3.solar)
        assert collect["interpolated"] == [(datetime.date(2019, 3, 31), 2)]
        assert collect["dropped"] == []

    def test_spring_interp_known_values(self):
        day = datetime.date(2019, 3, 31)
        recs = [
            RawHourlyRecord(day, h, 10.0 if h == 1 else 20.0 if h == 3 else 1.0,
                            1.0, 1.0, 0.0)
            for h in range(24)
            if h != 2
        ]
        fixed = fix_clock_changes(recs)
        filled = next(r for r in fixed if r.hour == 2)
        assert filled.price == 15.0

    def test_autumn_duplicate_first_kept(self):
        day = datetime.date(2019, 10, 27)
        recs = []
        for h in range(24):
            recs.append(RawHourlyRecord(day, h, float(h), 1.0, 1.0, 0.0))
            if h == 2:
                recs.append(RawHourlyRecord(day, h, 99.0, 9.0, 9.0, 0.0))
        collect = {}
        fixed = fix_clock_changes(recs, collect=collect)
        assert len(fixed) == 24
        kept = next(r for r in fixed if r.hour == 2)
        assert kept.price == 2.0
        assert collect["dropped"] == [(day, 2)]

    def test_two_missing_hours_unrecoverable(self):
        recs = [r for r in make_records("2019-03-31", 1) if r.hour not in (2, 3)]
        with pytest.raises(ClockChangeError, match="missing hours"):
            fix_clock_changes(recs)

    def test_missing_boundary_hour_unrecoverable(self):
        recs = [r for r in make_records("2019-03-31", 1) if r.hour != 0]
        with pytest.raises(ClockChangeError, match="boundary"):
            fix_clock_changes(recs)

    def test_every_day_has_24_hours(self):
        recs = [r for r in make_records("2019-03-30", 3) if
                not (r.date == datetime.date(2019, 3, 31) and r.hour == 2)]
        fixed = fix_clock_changes(recs)
        counts = {}
        for r in fixed:
            counts[r.date] = counts.get(r.date, 0) + 1
        assert set(counts.values()) == {24}


class TestBuildDummies:
    def test_wednesday_in_march(self):
        row = build_dummies([datetime.date(2019, 3, 13)])[0]
        assert row[2] == 1.0
        assert row.sum() == 1.0

    def test_saturday_in_december(self):
        row = build_dummies([datetime.date(2019, 12, 7)])[0]
        assert row[11] == 1.0
        assert row[12] == 1.0
        assert row.sum() == 2.0

    def test_sunday_flag(self):
        row = build_dummies([datetime.date(2019, 12, 8)])[0]
        assert row[13] == 1.0
        assert row[12] == 0.0

    def test_full_nonleap_year_column_sums(self):
        start = datetime.date(2019, 1, 1)
        dates = [start + datetime.timedelta(days=k) for k in range(365)]
        dummies = build_dummies(dates)
        sums = dummies.sum(axis=0)
        month_days = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
        assert_allclose(sums[:12], month_days)
        weekend = sum(1 for d in dates if d.weekday() >= 5)
        assert sums[12] + sums[13] == weekend
        row_sums = dummies.sum(axis=1)
        assert set(row_sums.tolist()) <= {1.0, 2.0}

    def test_one_float_row_per_date_and_fourteen_columns(self):
        # Saturday 4 July 2020: the July column, then the Saturday one
        dummies = build_dummies([datetime.date(2020, 7, 4), datetime.date(2020, 7, 5)])
        assert isinstance(dummies, np.ndarray)
        assert dummies.shape == (2, 14) and dummies.dtype == np.float64
        assert np.flatnonzero(dummies[0]).tolist() == [6, 12]
        assert np.flatnonzero(dummies[1]).tolist() == [6, 13]

    def test_empty_dates(self):
        with pytest.raises(DomainError):
            build_dummies([])


class TestSliceHour:
    def test_solar_hour_has_four_variables(self):
        panel = slice_hour(make_records("2019-01-01", 5), 12)
        assert panel.variable_names == ("price", "demand", "wind", "solar")
        assert panel.values.shape == (5, 4)

    def test_night_hour_has_three_variables(self):
        panel = slice_hour(make_records("2019-01-01", 5), 3)
        assert panel.variable_names == ("price", "demand", "wind")

    @pytest.mark.parametrize("hour", range(24))
    def test_solar_window_boundary(self, hour):
        panel = slice_hour(make_records("2019-01-01", 3), hour)
        assert (len(panel.variable_names) == 4) == (8 <= hour <= 16)

    def test_hour_out_of_range(self):
        recs = make_records("2019-01-01", 2)
        with pytest.raises(DomainError):
            slice_hour(recs, 24)
        with pytest.raises(DomainError):
            slice_hour(recs, -1)

    def test_values_aligned_with_dates(self):
        recs = make_records("2019-01-01", 4)
        panel = slice_hour(recs, 5)
        expected = [10.05, 11.05, 12.05, 13.05]
        assert_allclose(panel.column("price"), expected)
        assert_allclose(panel.column("wind"), 3 * np.array(expected))

    def test_missing_day_reported(self):
        recs = [
            r
            for r in make_records("2019-01-01", 5)
            if r.date != datetime.date(2019, 1, 3)
        ]
        with pytest.raises(MissingDatesError) as err:
            slice_hour(recs, 10)
        assert err.value.dates == ["2019-01-03"]

    def test_no_records_for_hour(self):
        recs = make_records("2019-01-01", 2, hours=range(8))
        with pytest.raises(MissingDatesError):
            slice_hour(recs, 20)


class TestPanelSerialization:
    def test_round_trip_bit_exact(self):
        recs = make_records("2019-01-01", 6, base=0.1)
        panel = slice_hour(recs, 9)
        back = json.loads(json.dumps(panel.to_json_dict(), sort_keys=True))
        assert back["hour"] == panel.hour
        assert back["dates"] == [d.isoformat() for d in panel.dates]
        assert tuple(back["variable_names"]) == panel.variable_names
        assert back["values"] == panel.values.tolist()

    def test_round_trip_awkward_floats(self):
        values = np.array(
            [[np.pi, 1e-300, -2.5e17], [1 / 3, 6.02e23, -0.1]]
        )
        panel = HourlyPanel(
            hour=2,
            dates=(datetime.date(2019, 1, 1), datetime.date(2019, 1, 2)),
            values=values,
            variable_names=("price", "demand", "wind"),
        )
        back = json.loads(json.dumps(panel.to_json_dict()))
        assert back["dates"] == ["2019-01-01", "2019-01-02"]
        assert back["values"] == panel.values.tolist()

    def test_invariants_enforced(self):
        dates = (datetime.date(2019, 1, 1), datetime.date(2019, 1, 3))
        with pytest.raises(DomainError, match="consecutive"):
            HourlyPanel(
                hour=2,
                dates=dates,
                values=np.ones((2, 3)),
                variable_names=("price", "demand", "wind"),
            )
        with pytest.raises(DomainError):
            HourlyPanel(
                hour=2,
                dates=(datetime.date(2019, 1, 1),),
                values=np.array([[1.0, 2.0, np.nan]]),
                variable_names=("price", "demand", "wind"),
            )
        with pytest.raises(DomainError):
            HourlyPanel(
                hour=3,
                dates=(datetime.date(2019, 1, 1),),
                values=np.ones((1, 4)),
                variable_names=("price", "demand", "wind", "solar"),
            )
