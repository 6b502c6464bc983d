"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` so the command line
layer can emit structured JSON without matching on exception classes.
``sample_size`` is the one integer check of the Monte Carlo sizes, kept
here because every layer that draws or counts a sample imports this module.
"""

from __future__ import annotations

import operator


class PowerdepError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"

    def __init__(self, message, location=None):
        super().__init__(message)
        self.message = message
        self.location = location

    def to_json_dict(self):
        out = {"code": self.code, "message": self.message}
        if self.location is not None:
            out["location"] = str(self.location)
        return out


class SchemaError(PowerdepError):
    """A required input column is missing or mis-typed."""

    code = "schema"


class RowParseError(PowerdepError):
    """A CSV row could not be parsed; ``location`` holds the line number."""

    code = "row_parse"


class DuplicateKeyError(PowerdepError):
    """Two records share the same (date, hour) key."""

    code = "duplicate_key"


class ClockChangeError(PowerdepError):
    """A daily hour pattern that the clock-change repair cannot resolve."""

    code = "clock_change"


class MissingDatesError(PowerdepError):
    """An hour slice has calendar gaps; ``dates`` lists the missing days."""

    code = "missing_dates"

    def __init__(self, message, dates=(), location=None):
        super().__init__(message, location)
        self.dates = list(dates)


class DomainError(PowerdepError):
    """An argument lies outside its documented domain."""

    code = "domain"


class DegenerateSeriesError(PowerdepError):
    """A series is constant or too short to carry a variance model."""

    code = "degenerate_series"


class OptimizationError(PowerdepError):
    """Likelihood optimisation failed to converge; carries the last iterate."""

    code = "optimization"

    def __init__(self, message, last_params=None, location=None):
        super().__init__(message, location)
        self.last_params = last_params


class FamilyInfeasibleError(PowerdepError):
    """The empirical dependence sign is outside the family's range."""

    code = "family_infeasible"


class SelectionError(PowerdepError):
    """No candidate model could be fit at all."""

    code = "selection"


class StructureError(PowerdepError):
    """A vine structure violates the proximity condition or is malformed."""

    code = "structure"


class ResolutionError(PowerdepError):
    """Too few tail observations to resolve a requested quantile level."""

    code = "resolution"


class ConfigError(PowerdepError):
    """An analysis configuration value is out of range or inconsistent."""

    code = "config"


def sample_size(value, name):
    """``value`` as an int: a Python or numpy integer, else ``DomainError``.

    Floats (even 70.0) and booleans raise rather than truncate, as
    ``pipeline.integer`` does for configuration values.
    """
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
