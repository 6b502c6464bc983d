"""Hourly panel ingestion, the calendar dummy matrix, and clock-change repair.

CSV files hold one row per (date, hour) with price, demand, wind and solar
columns.  Preprocessing enforces exactly 24 rows per calendar day: an
autumn changeover duplicate is dropped (first occurrence kept) and a
single missing spring hour is filled by linear interpolation between the
neighbouring hours of the same day.  Per-hour slices become daily panels;
solar participates only for hours 8 through 16.
"""

from __future__ import annotations

import csv
import datetime
from dataclasses import dataclass

import numpy as np

from .errors import (
    ClockChangeError,
    DomainError,
    DuplicateKeyError,
    MissingDatesError,
    RowParseError,
    SchemaError,
)

VARIABLES = ("price", "demand", "wind", "solar")

SOLAR_HOURS = range(8, 17)


@dataclass(frozen=True)
class RawHourlyRecord:
    date: datetime.date
    hour: int
    price: float
    demand: float
    wind: float
    solar: float

    def value(self, variable):
        return getattr(self, variable)


@dataclass
class HourlyPanel:
    """Daily observations of one hour across variables.

    ``values`` is T x n with columns ordered (price, demand, wind[, solar]);
    the solar column is present exactly for hours 8-16.
    """

    hour: int
    dates: tuple
    values: np.ndarray
    variable_names: tuple

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.dates = tuple(self.dates)
        self.variable_names = tuple(self.variable_names)
        if not 0 <= self.hour <= 23:
            raise DomainError(f"hour {self.hour} out of range 0-23")
        expected = VARIABLES if self.hour in SOLAR_HOURS else VARIABLES[:3]
        if self.variable_names != expected:
            raise DomainError(
                f"hour {self.hour} requires variables {expected}, got {self.variable_names}"
            )
        if self.values.shape != (len(self.dates), len(self.variable_names)):
            raise DomainError("values shape does not match dates and variables")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("panel values must be finite")
        for prev, cur in zip(self.dates, self.dates[1:]):
            if (cur - prev).days != 1:
                raise DomainError(
                    f"panel dates must be consecutive days; gap after {prev}"
                )

    def column(self, variable):
        return self.values[:, self.variable_names.index(variable)]

    def to_json_dict(self):
        return {
            "hour": self.hour,
            "dates": [d.isoformat() for d in self.dates],
            "variable_names": list(self.variable_names),
            "values": [[float(x) for x in row] for row in self.values],
        }


def _parse_float(text, line_no, column, optional=False):
    text = text.strip() if text is not None else ""
    if text == "":
        if optional:
            return 0.0
        raise RowParseError(
            f"empty value in column {column!r}", location=f"line {line_no}"
        )
    try:
        return float(text)
    except ValueError:
        raise RowParseError(
            f"cannot parse {text!r} in column {column!r}",
            location=f"line {line_no}",
        ) from None


def _read_records(reader, path):
    if reader.fieldnames is None:
        raise SchemaError("file has no header row", location=str(path))
    missing = [
        col for col in ("date", "hour") + VARIABLES if col not in reader.fieldnames
    ]
    if missing:
        raise SchemaError(
            f"missing columns {missing}; found {reader.fieldnames}",
            location=str(path),
        )
    records = []
    for row in reader:
        line_no = reader.line_num
        raw_date = (row["date"] or "").strip()
        try:
            day = datetime.date.fromisoformat(raw_date)
        except ValueError:
            raise RowParseError(
                f"cannot parse date {raw_date!r}",
                location=f"line {line_no}",
            ) from None
        raw_hour = (row["hour"] or "").strip()
        try:
            hour = int(raw_hour)
        except ValueError:
            raise RowParseError(
                f"cannot parse hour {raw_hour!r}",
                location=f"line {line_no}",
            ) from None
        if not 0 <= hour <= 23:
            raise RowParseError(
                f"hour {hour} out of range 0-23", location=f"line {line_no}"
            )
        records.append(
            RawHourlyRecord(
                date=day,
                hour=hour,
                price=_parse_float(row["price"], line_no, "price"),
                demand=_parse_float(row["demand"], line_no, "demand"),
                wind=_parse_float(row["wind"], line_no, "wind"),
                solar=_parse_float(row["solar"], line_no, "solar", optional=True),
            )
        )
    return records


def load_csv(path, allow_duplicate_hours=False):
    """Read hourly records from a CSV file.

    Parameters
    ----------
    path : str or Path
        A file with the header ``date,hour,price,demand,wind,solar``.
    allow_duplicate_hours : bool
        When False (default) a repeated (date, hour) key raises
        DuplicateKeyError.  Set True to defer autumn clock-change
        duplicates to ``fix_clock_changes``.

    Returns
    -------
    list of RawHourlyRecord, ordered by (date, hour).
    """
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        try:
            records = _read_records(reader, path)
        except UnicodeDecodeError as exc:
            raise SchemaError(
                f"cannot decode the file as text: {exc.reason}", location=str(path)
            ) from None
        except csv.Error as exc:
            # DictReader.line_num counts only the rows it returned
            raise RowParseError(
                f"cannot split the row: {exc}",
                location=f"line {reader.reader.line_num}",
            ) from None

    records.sort(key=lambda r: (r.date, r.hour))
    if not allow_duplicate_hours:
        for prev, cur in zip(records, records[1:]):
            if (prev.date, prev.hour) == (cur.date, cur.hour):
                raise DuplicateKeyError(
                    f"duplicate key (date={cur.date.isoformat()}, hour={cur.hour})"
                )
    return records


def fix_clock_changes(records, collect=None):
    """Normalize clock-change days so every calendar day has 24 hours.

    A duplicated hour keeps its first record; a single missing hour
    strictly inside the day is filled with the per-variable midpoint of
    its two neighbours.  Anything else is unrecoverable.

    Parameters
    ----------
    records : list of RawHourlyRecord, sorted by timestamp
    collect : dict, optional
        When given, filled with "dropped" and "interpolated" lists of
        (date, hour) pairs describing what was changed.

    Returns
    -------
    list of RawHourlyRecord with exactly 24 records per day.
    """
    by_day = {}
    for rec in records:
        by_day.setdefault(rec.date, []).append(rec)

    dropped, interpolated = [], []
    out = []
    for day in sorted(by_day):
        day_records = {}
        for rec in sorted(by_day[day], key=lambda r: r.hour):
            if rec.hour in day_records:
                dropped.append((day, rec.hour))
            else:
                day_records[rec.hour] = rec
        missing = [h for h in range(24) if h not in day_records]
        if len(missing) > 1:
            raise ClockChangeError(
                f"day {day.isoformat()} is missing hours {missing}; "
                "only a single missing hour can be interpolated"
            )
        if len(missing) == 1:
            h = missing[0]
            if h in (0, 23):
                raise ClockChangeError(
                    f"day {day.isoformat()} is missing boundary hour {h}; "
                    "no neighbours to interpolate from"
                )
            lo, hi = day_records[h - 1], day_records[h + 1]
            day_records[h] = RawHourlyRecord(
                date=day,
                hour=h,
                price=0.5 * (lo.price + hi.price),
                demand=0.5 * (lo.demand + hi.demand),
                wind=0.5 * (lo.wind + hi.wind),
                solar=0.5 * (lo.solar + hi.solar),
            )
            interpolated.append((day, h))
        out.extend(day_records[h] for h in range(24))

    if collect is not None:
        collect["dropped"] = dropped
        collect["interpolated"] = interpolated
    return out


def build_dummies(dates):
    """Month and weekend indicator matrix for a date vector.

    Returns a (T, 14) float array: columns Jan..Dec then Saturday and
    Sunday.  Every row has exactly one month flag, plus at most one
    weekend flag.
    """
    dates = tuple(dates)
    if not dates:
        raise DomainError("dates must be non-empty")
    mat = np.zeros((len(dates), 14))
    for i, day in enumerate(dates):
        mat[i, day.month - 1] = 1.0
        weekday = day.weekday()
        if weekday == 5:
            mat[i, 12] = 1.0
        elif weekday == 6:
            mat[i, 13] = 1.0
    return mat


def slice_hour(records, hour):
    """Extract the daily panel of one hour-of-day.

    Solar is included exactly for hours 8-16.  Days must cover a gapless
    range; any hole raises MissingDatesError listing the absent dates.
    """
    if not isinstance(hour, (int, np.integer)) or not 0 <= hour <= 23:
        raise DomainError(f"hour must be an integer in 0-23, got {hour!r}")
    rows = {}
    for rec in records:
        if rec.hour == hour:
            if rec.date in rows:
                raise DuplicateKeyError(
                    f"duplicate key (date={rec.date.isoformat()}, hour={hour})"
                )
            rows[rec.date] = rec
    if not rows:
        raise MissingDatesError(f"no records at hour {hour}", dates=[])
    days = sorted(rows)
    first, last = days[0], days[-1]
    expected = [
        first + datetime.timedelta(days=k)
        for k in range((last - first).days + 1)
    ]
    missing = [d for d in expected if d not in rows]
    if missing:
        raise MissingDatesError(
            f"hour {hour} has {len(missing)} missing days "
            f"between {first.isoformat()} and {last.isoformat()}",
            dates=[d.isoformat() for d in missing],
        )
    names = VARIABLES if hour in SOLAR_HOURS else VARIABLES[:3]
    values = np.array(
        [[rows[d].value(v) for v in names] for d in expected], dtype=np.float64
    )
    return HourlyPanel(
        hour=int(hour),
        dates=tuple(expected),
        values=values,
        variable_names=names,
    )
