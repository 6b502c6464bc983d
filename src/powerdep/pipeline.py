"""Per-hour dependence studies and their rolling-window variant.

Two entry points orchestrate the full modelling chain (marginal
AR-GARCH fits, pseudo-observations, vine copula, dependence measures):

* :func:`run_global` analyses each requested hour on the whole sample
  and collects induced Spearman correlations, pairwise tail-dependence
  curves, the multivariate tail coefficients of price given the other
  variables, and the high/low scenario table.
* :func:`run_rolling` re-estimates marginals and vine on a sliding
  window and tracks the induced pairwise Spearman correlations over
  time next to the full-sample reference value.

Only this module reads scenario tokens such as ``LHH:L`` (letters for
demand, wind and solar, then price's direction if low): ``AnalysisConfig``
checks them, and :func:`analyze_hour` passes ``taildep`` ``("LHH", "L")``.

Results serialize through :func:`write_report_bundle` into one JSON per
hour, a long-format CSV of every series, and a run-metadata JSON.  All
randomness flows from the config seed through one child seed per hour
and one per rolling window: each draws a single vine sample, and every
measure reads the prefix of its configured Monte Carlo size, price in
column 0.  So an identical (data, config) pair reproduces the bundle
byte for byte.  The sample is randomized quasi-Monte Carlo
(``vine.simulate``: 16 randomly shifted copies of one Sobol net), so
Spearman and the pair tail curves report the spread over those streams
as their standard error; the binomial standard errors of λ_K and the
scenarios are conservative for such a sample.

``config.jobs`` worker processes share the hours of the global study and
the windows of each rolling hour.  A global study with at least two
workers per hour also gives each hour a second thread, which computes
the other measures while the first counts λ_K (:func:`analyze_hour`), so
the study runs at most ``jobs`` computing threads.  For the length of a
study every process runs BLAS on one thread (:func:`one_blas_thread`), so
serial and pooled runs compute alike and the bundle is the same for any
``jobs``.
One runner contains each task's ``PowerdepError``, so a failing hour or
window is recorded the same way for any ``jobs``.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import functools
import importlib
import io
import json
import os
import platform
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np
import scipy

from . import taildep, vine
from .data_ingest import SOLAR_HOURS, build_dummies, HourlyPanel
from .errors import ConfigError, DomainError, PowerdepError
from .marginals import MarginalSpec, fit_ar_garch, pit_transform

# purpose codes of the rolling study's child seeds; fixed forever for
# reproducibility (codes 1-4 are retired and never reused)
_SEED_ROLL = 5
_SEED_REFERENCE = 6

# default scenario set: conditioning directions over (demand, wind, solar),
# target price high
DEFAULT_SCENARIOS = ("HLL", "HHL", "HLH", "LHH", "LHL")

# smallest window that satisfies every marginal fit's length precondition
_MIN_WINDOW = 58

_CSV_COLUMNS = (
    "hour",
    "section",
    "measure",
    "pair",
    "pattern",
    "side",
    "alpha",
    "beta",
    "window_end",
    "value",
    "ratio",
    "stderr",
    "reliable",
)


def integer(value):
    """``value`` as an int: a Python or numpy integer, or integer text.

    Floats (even 70.0) and booleans raise rather than truncate.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer, str)):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def number(value):
    """``value`` as a float: a real number or numeric text, never a boolean."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.number, str)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def child_seed(base, *keys):
    """Deterministic child seed from the run seed and integer keys."""
    ss = np.random.SeedSequence(entropy=(int(base),) + tuple(int(k) for k in keys))
    return int(ss.generate_state(1, np.uint64)[0])


def window_count(total_days, window_days, step_days):
    """Number of rolling windows: floor((T - window)/step) + 1."""
    total = int(total_days)
    window = int(window_days)
    step = int(step_days)
    if window < 1 or step < 1:
        raise DomainError("window_days and step_days must be positive")
    if total < window:
        raise DomainError(
            f"total days {total} shorter than the window {window}"
        )
    return (total - window) // step + 1


def _pattern(token):
    """Scenario pattern in upper case, its target written only when it is L."""
    body, colon, target = str(token).strip().upper().partition(":")
    if not body or any(c not in "HL" for c in body):
        raise ConfigError(f"scenario pattern {token!r} must use only H and L")
    if colon and target not in ("H", "L"):
        raise ConfigError(f"scenario target in {token!r} must be H or L")
    return f"{body}:L" if target == "L" else body


# the integer fields of AnalysisConfig, each with its least value
_INTEGER_FLOORS = {
    "window_days": _MIN_WINDOW,  # a shorter window cannot fit the marginals
    "step_days": 1,
    "n_mc_spearman": 10_000,
    "n_mc_tdc": 1000,
    "n_mc_lambda": 1000,
    "n_mc_scenario": 1000,
    "n_mc_rolling": 10_000,
    "seed": 0,  # numpy seed sequences take no negative entropy
    "jobs": 1,
}


def _items(rule):
    """Rule of a list field: a list or tuple (never text), each item by ``rule``."""

    def read(value):
        if not isinstance(value, (list, tuple)):
            raise TypeError(f"expected a list, got {value!r}")
        return tuple(map(rule, value))

    return read


# how AnalysisConfig reads each field; a rule that raises TypeError or
# ValueError makes the value unreadable
_RULES = {
    "hours": _items(integer),
    **dict.fromkeys(_INTEGER_FLOORS, integer),
    **dict.fromkeys(("alpha", "beta"), number),
    **dict.fromkeys(("alpha_grid", "tdc_grid"), _items(number)),
    "scenarios": _items(_pattern),  # a bad pattern fails at config time
}


def _plain(value):
    """``value`` with every tuple, nested ones too, as a list."""
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


@dataclass(frozen=True)
class AnalysisConfig:
    """Knobs of a full run; defaults follow the published study scale.

    The constructor is the one check: it reads each field by its rule in
    ``_RULES``, then checks the values together.
    """

    hours: tuple = tuple(range(24))
    window_days: int = 730
    step_days: int = 1
    alpha: float = 0.05
    beta: float = 0.05
    alpha_grid: tuple = taildep.DEFAULT_ALPHA_GRID
    tdc_grid: tuple = (0.05, 0.025, 0.01)
    n_mc_spearman: int = 16_384
    n_mc_tdc: int = 200_000
    n_mc_lambda: int = 40_000
    n_mc_scenario: int = 20_000
    n_mc_rolling: int = 16_384
    seed: int = 0
    scenarios: tuple = DEFAULT_SCENARIOS
    jobs: int = 1

    def __post_init__(self):
        for name, rule in _RULES.items():
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, rule(value))
            except (TypeError, ValueError):
                raise ConfigError(f"cannot read {name} from {value!r}") from None
        hours = self.hours
        if (
            not hours
            or any(not 0 <= h <= 23 for h in hours)
            or len(set(hours)) != len(hours)
        ):
            raise ConfigError("hours must be non-empty, distinct and lie in 0..23")
        for name, floor in _INTEGER_FLOORS.items():
            if getattr(self, name) < floor:
                raise ConfigError(f"{name} must be at least {floor}")
        if not (0.0 < self.alpha < 0.5) or not (0.0 < self.beta < 0.5):
            raise ConfigError("alpha and beta must lie in (0, 0.5)")
        for name in ("alpha_grid", "tdc_grid"):
            grid = getattr(self, name)
            if not grid or any(not 0.0 < a <= 0.1 for a in grid):
                raise ConfigError(f"{name} must be non-empty and lie in (0, 0.1]")
        if any(b >= a for a, b in zip(self.alpha_grid, self.alpha_grid[1:])):
            raise ConfigError("alpha_grid must be strictly decreasing")
        if len(set(self.tdc_grid)) != len(self.tdc_grid):
            raise ConfigError("tdc_grid levels must be distinct")
        # a pattern needs a letter for every conditioning variable of every
        # configured hour: demand, wind and solar at a quadrivariate hour
        n_cond = 3 if any(h in SOLAR_HOURS for h in hours) else 2
        for token in self.scenarios:
            if len(token.partition(":")[0]) < n_cond:
                raise ConfigError(
                    f"pattern {token!r} is shorter than the {n_cond} "
                    "conditioning variables of the configured hours"
                )
        # every hour would fail these after its full fit: too few expected
        # tail rows at the loosest level a measure can use
        for label, expected in (
            ("alpha * n_mc_scenario", self.alpha * self.n_mc_scenario),
            ("max(alpha_grid) * n_mc_lambda", self.alpha_grid[0] * self.n_mc_lambda),
            ("min(tdc_grid) * n_mc_tdc", min(self.tdc_grid) * self.n_mc_tdc),
        ):
            if expected < taildep.RELIABILITY_FLOOR:
                raise ConfigError(
                    f"{label} = {expected:g} leaves fewer than "
                    f"{taildep.RELIABILITY_FLOOR} expected tail observations"
                )

    def to_json_dict(self):
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_json_dict(cls, data):
        """Config from a JSON object, read by the constructor's own rules."""
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class HourlyAnalysisResult:
    """Everything the global study produces for one hour."""

    hour: int
    variable_names: tuple
    marginals: dict
    vine_model: vine.VineModel
    spearman: dict
    spearman_matrix: tuple
    pairwise_tdc: dict
    lambda_k: dict
    scenario_table: tuple
    warnings: tuple = ()

    def __post_init__(self):
        quad = self.hour in SOLAR_HOURS
        if (len(self.variable_names) == 4) != quad:
            raise DomainError(
                f"hour {self.hour} must carry "
                f"{'four' if quad else 'three'} variables"
            )

    def to_json_dict(self):
        return {
            "hour": self.hour,
            "variables": list(self.variable_names),
            "marginals": {
                name: fit.to_json_dict() for name, fit in self.marginals.items()
            },
            "vine": self.vine_model.to_json_dict(),
            "spearman": {k: dict(v) for k, v in self.spearman.items()},
            "spearman_matrix": [list(row) for row in self.spearman_matrix],
            "pairwise_tdc": {k: v for k, v in self.pairwise_tdc.items()},
            "lambda_k": {k: v.to_json_dict() for k, v in self.lambda_k.items()},
            "scenarios": [
                {
                    "pattern": row["pattern"],
                    "target_direction": row["target_direction"],
                    "result": row["result"].to_json_dict(),
                }
                for row in self.scenario_table
            ],
            "warnings": list(self.warnings),
        }


@dataclass(frozen=True)
class GlobalRunResult:
    results: tuple
    failures: tuple


@dataclass(frozen=True)
class RollingResult:
    """Per-window dependence series for one hour."""

    hour: int
    variable_names: tuple
    window_days: int
    step_days: int
    window_end_dates: tuple
    series: dict
    reference: dict
    skipped: tuple = ()

    def __post_init__(self):
        for pair, values in self.series.items():
            if len(values) != len(self.window_end_dates):
                raise DomainError(
                    f"series for {pair} does not match the window count"
                )

    def to_json_dict(self):
        return {
            "hour": self.hour,
            "variables": list(self.variable_names),
            "window_days": self.window_days,
            "step_days": self.step_days,
            "window_end_dates": list(self.window_end_dates),
            "series": {k: list(v) for k, v in self.series.items()},
            "reference": dict(self.reference),
            "skipped": [dict(s) for s in self.skipped],
        }


def _pair_label(names, i, j):
    return f"{names[i]}~{names[j]}"


def _variable_pairs(names):
    return [
        (i, j) for i in range(len(names)) for j in range(i + 1, len(names))
    ]


def fit_marginals(panel):
    """AR-GARCH fit of every variable of one panel, keyed by variable name."""
    dummies = build_dummies(panel.dates)
    return {
        name: fit_ar_garch(panel.column(name), dummies, MarginalSpec.for_variable(name))
        for name in panel.variable_names
    }


def fit_hour(panel):
    """Marginal fits of one panel and the vine fitted to their residuals.

    Variables lose their first ``max_lag`` rows to the autoregression;
    residual columns are truncated to the largest loss so every row the
    vine sees refers to the same date, and that matrix goes through
    ``pit_transform`` once.  Returns ``(fits, model)`` with the fits
    keyed by variable name.
    """
    fits = fit_marginals(panel)
    common = max(fit.spec.max_lag for fit in fits.values())
    residuals = np.column_stack(
        [fit.residuals[common - fit.spec.max_lag :] for fit in fits.values()]
    )
    return fits, vine.fit_auto(pit_transform(residuals))


def _scenario_patterns_for(config, names):
    """The config's scenarios as ``(letters, target)`` pairs for this hour.

    Patterns are written for the quadrivariate conditioning order
    (demand, wind, solar); trivariate hours drop the solar letter and
    de-duplicate while preserving order.
    """
    n_cond = len(names) - 1
    tokens = (token.partition(":") for token in config.scenarios)
    return list(dict.fromkeys((body[:n_cond], t or "H") for body, _, t in tokens))


def _pair_measures(sample, names, config):
    """Induced Spearman matrix, its per-pair entries and the pair TDC curves."""
    rho, rho_se = vine.induced_spearman(sample, config.n_mc_spearman)
    spearman = {}
    pairwise_tdc = {}
    for i, j in _variable_pairs(names):
        label = _pair_label(names, i, j)
        spearman[label] = {
            "estimate": float(rho[i, j]),
            "mc_stderr": float(rho_se[i, j]),
            "n_mc": config.n_mc_spearman,
        }
        pairwise_tdc[label] = vine.induced_pair_tdc(
            sample, (i, j), config.tdc_grid, n_mc=config.n_mc_tdc
        )
    return rho, spearman, pairwise_tdc


def _scenario_table(counted, patterns, config):
    """One row per ``(letters, target)`` pattern with its tail coefficient."""
    results = taildep.scenario_tail_coefficient(
        counted[: config.n_mc_scenario], patterns, config.alpha, config.beta
    )
    return tuple(
        {"pattern": letters, "target_direction": target, "result": result}
        for (letters, target), result in zip(patterns, results)
    )


def analyze_hour(panel, config):
    """Fit a configured hour end-to-end and compute every dependence measure.

    Every measure reads a prefix of the hour's one vine sample.  When the
    study leaves the hour a spare worker, ``config.jobs >= 2 *
    len(config.hours)``, a worker thread computes the induced Spearman
    matrix, the pair TDC curves and the scenario table while the calling
    thread counts λ_K; NumPy's sorts, comparisons and reductions release
    the GIL, so the two overlap.  Otherwise the calling thread computes
    Spearman, the pair TDC curves, λ_K and the scenarios in that order, and
    frees the long draw before the counting.  Each count is exact either
    way, so the result does not depend on ``jobs``, and an error is the one
    the serial order meets first.
    """
    hour = panel.hour
    if hour not in config.hours:
        # the config checked its scenario patterns against its hours only
        raise ConfigError(f"hour {hour} is not among the configured hours")
    fits, model = fit_hour(panel)
    names = panel.variable_names
    warnings = [
        f"{name}: AR-GARCH fit did not converge: {fit.diagnostics['message']}"
        for name, fit in fits.items()
        if not fit.converged
    ]
    for edge, meta in model.fit_meta.items():
        for note in meta.get("warnings", ()):
            warnings.append(f"{edge.label()}: {note}")

    n_draw = max(
        config.n_mc_spearman, config.n_mc_tdc, config.n_mc_lambda, config.n_mc_scenario
    )
    sample = vine.simulate(model, n_draw, seed=child_seed(config.seed, hour))
    n_counted = max(config.n_mc_lambda, config.n_mc_scenario)
    patterns = _scenario_patterns_for(config, names)
    if config.jobs >= 2 * len(config.hours):
        # the count stays on the calling thread: counted on the worker, the
        # memory it freed stayed in that thread's glibc arena, and peak RSS
        # rose 10-22 MB over 30 repeated hours against 5.5 MB here
        counted = sample[:n_counted].copy()
        with ThreadPoolExecutor(max_workers=1) as worker:
            pairs = worker.submit(_pair_measures, sample, names, config)
            scenarios = worker.submit(_scenario_table, counted, patterns, config)
            try:
                lambda_k = taildep.lambda_kendall(
                    counted[: config.n_mc_lambda], config.alpha_grid
                )
            finally:
                # serially the pair measures come first, so their error wins
                rho, spearman, pairwise_tdc = pairs.result()
            scenario_table = scenarios.result()
    else:
        rho, spearman, pairwise_tdc = _pair_measures(sample, names, config)
        # keep only the rows the dominance counting reads, so the long draw
        # is freed before it
        counted = sample[:n_counted].copy()
        del sample
        lambda_k = taildep.lambda_kendall(
            counted[: config.n_mc_lambda], config.alpha_grid
        )
        scenario_table = _scenario_table(counted, patterns, config)

    return HourlyAnalysisResult(
        hour=hour,
        variable_names=names,
        marginals=fits,
        vine_model=model,
        spearman=spearman,
        spearman_matrix=tuple(tuple(row) for row in rho.tolist()),
        pairwise_tdc=pairwise_tdc,
        lambda_k=lambda_k,
        scenario_table=scenario_table,
        warnings=tuple(warnings),
    )


def _check_panels(panels, hours):
    missing = [h for h in hours if h not in panels]
    if missing:
        raise ConfigError(f"no panel supplied for hours {missing}")


# (extension module linked to an OpenBLAS, suffix of its thread-count
# symbols): numpy's 64-bit-integer build, then scipy's
_OPENBLAS = (
    ("numpy._core._multiarray_umath", "64_"),
    ("scipy.linalg._fblas", ""),
)


def _openblas_controls():
    """``(get, set)`` thread-count functions of each reachable OpenBLAS.

    A library or symbol that cannot be found is left out.
    """
    controls = []
    for module, suffix in _OPENBLAS:
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
            set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
        except (ImportError, OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        controls.append((get, set_))
    return controls


def _set_blas_threads(count):
    for _, set_ in _openblas_controls():
        set_(count)


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with every reachable OpenBLAS on one thread.

    The previous counts come back on exit; without a reachable OpenBLAS
    this does nothing.  The studies' many small fits gain nothing from
    BLAS threads, and pool workers that each start one thread per core
    would contend for the cores.
    """
    controls = _openblas_controls()
    previous = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)


def _contained(unit, task):
    """``unit(*task)``, or the ``PowerdepError`` that stopped it."""
    try:
        return unit(*task)
    except PowerdepError as exc:
        return exc


def _map(unit, tasks, jobs):
    """``unit(*task)`` for each task, over ``jobs`` worker processes.

    A task's ``PowerdepError`` takes the place of its result, serially as
    in the pool.  Runs serially when ``jobs`` is 1 or there is at most one
    task.  Either way every process computes with one BLAS thread, so the
    results do not depend on ``jobs``: the worker initializer pins whatever
    the platform's start method hands over.
    """
    tasks = list(tasks)
    run = functools.partial(_contained, unit)
    with one_blas_thread():
        if jobs == 1 or len(tasks) <= 1:
            return [run(task) for task in tasks]
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(tasks)),
            initializer=_set_blas_threads,
            initargs=(1,),
        ) as pool:
            return list(pool.map(run, tasks))


def _failure(exc, **where):
    """Record of a contained error: where it happened, its code and message."""
    return {**where, "code": exc.code, "message": str(exc)}


def run_global(panels, config):
    """Analyse every configured hour; failures are contained per hour."""
    _check_panels(panels, config.hours)
    hours = sorted(config.hours)
    outcomes = _map(analyze_hour, [(panels[h], config) for h in hours], config.jobs)
    failures = [(h, o) for h, o in zip(hours, outcomes) if isinstance(o, PowerdepError)]
    return GlobalRunResult(
        results=tuple(o for o in outcomes if not isinstance(o, PowerdepError)),
        failures=tuple(_failure(exc, hour=h) for h, exc in failures),
    )


def _window_panel(panel, start, length):
    return HourlyPanel(
        hour=panel.hour,
        dates=panel.dates[start : start + length],
        values=panel.values[start : start + length],
        variable_names=panel.variable_names,
    )


def _model_spearman_all_pairs(panel, config, seed_keys):
    _, model = fit_hour(panel)
    sample = vine.simulate(
        model, config.n_mc_rolling, seed=child_seed(config.seed, *seed_keys)
    )
    rho, _ = vine.induced_spearman(sample, config.n_mc_rolling)
    names = panel.variable_names
    return {
        _pair_label(names, i, j): float(rho[i, j]) for i, j in _variable_pairs(names)
    }


def rolling_hour(panel, config):
    """Sliding-window re-estimation of the pairwise dependence series.

    A window whose fit fails is skipped with its error code; a failing
    full-sample reference fails the hour.
    """
    total = len(panel.dates)
    window = config.window_days
    step = config.step_days
    if total < window + step:
        raise DomainError(
            f"need at least window + step = {window + step} days, got {total}"
        )
    count = window_count(total, window, step)
    names = panel.variable_names
    pairs = [_pair_label(names, i, j) for i, j in _variable_pairs(names)]

    windows = [_window_panel(panel, w * step, window) for w in range(count)]
    tasks = [
        (sub, config, (panel.hour, _SEED_ROLL, w)) for w, sub in enumerate(windows)
    ]
    tasks.append((panel, config, (panel.hour, _SEED_REFERENCE)))
    *estimates, reference = _map(_model_spearman_all_pairs, tasks, config.jobs)
    if isinstance(reference, PowerdepError):
        raise reference

    ends = tuple(sub.dates[-1].isoformat() for sub in windows)
    skipped = tuple(
        _failure(found, window_index=w, window_end=ends[w])
        for w, found in enumerate(estimates)
        if isinstance(found, PowerdepError)
    )
    # a skipped window reads None for every pair
    estimates = [
        dict.fromkeys(pairs) if isinstance(found, PowerdepError) else found
        for found in estimates
    ]
    return RollingResult(
        hour=panel.hour,
        variable_names=names,
        window_days=window,
        step_days=step,
        window_end_dates=ends,
        series={pair: tuple(found[pair] for found in estimates) for pair in pairs},
        reference=reference,
        skipped=skipped,
    )


def run_rolling(panels, config):
    """Rolling study for every configured hour, merged by hour order."""
    _check_panels(panels, config.hours)
    return tuple(rolling_hour(panels[h], config) for h in sorted(config.hours))


# ---------------------------------------------------------------------------
# report bundle
# ---------------------------------------------------------------------------


def _fmt(value):
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return str(value)


def series_rows(hour_results, rolling_results):
    rows = []
    for res in hour_results:
        h = res.hour
        for pair in sorted(res.spearman):
            est = res.spearman[pair]
            rows.append(
                {
                    "hour": h,
                    "section": "global",
                    "measure": "spearman",
                    "pair": pair,
                    "value": est["estimate"],
                    "stderr": est["mc_stderr"],
                }
            )
        for pair in sorted(res.pairwise_tdc):
            tdc = res.pairwise_tdc[pair]
            for level in tdc["levels"]:
                for side in ("lower", "upper"):
                    rows.append(
                        {
                            "hour": h,
                            "section": "global",
                            "measure": "tdc",
                            "pair": pair,
                            "side": side,
                            "alpha": level["t"],
                            "value": level[side],
                            "stderr": level[f"{side}_stderr"],
                        }
                    )
            for side in ("lower", "upper"):
                rows.append(
                    {
                        "hour": h,
                        "section": "global",
                        "measure": "tdc_extrapolated",
                        "pair": pair,
                        "side": side,
                        "alpha": 0.0,
                        "value": tdc[f"{side}_extrapolated"],
                    }
                )
        for side in ("lower", "upper"):
            lam = res.lambda_k[side]
            for a, v, se, ok in zip(
                lam.alphas, lam.values, lam.stderrs, lam.reliable
            ):
                rows.append(
                    {
                        "hour": h,
                        "section": "global",
                        "measure": "lambda",
                        "side": side,
                        "alpha": a,
                        "value": v,
                        "stderr": se,
                        "reliable": ok,
                    }
                )
            rows.append(
                {
                    "hour": h,
                    "section": "global",
                    "measure": "lambda_extrapolated",
                    "side": side,
                    "alpha": 0.0,
                    "value": lam.extrapolated,
                    "reliable": True,
                }
            )
        for row in res.scenario_table:
            r = row["result"]
            rows.append(
                {
                    "hour": h,
                    "section": "global",
                    "measure": "scenario",
                    "pattern": f"{row['pattern']}:{row['target_direction']}",
                    "side": r.side,
                    "alpha": r.alpha,
                    "beta": r.beta,
                    "value": r.value,
                    "ratio": r.ratio_vs_independence,
                    "stderr": r.mc_stderr,
                    "reliable": r.reliable,
                }
            )
    for roll in rolling_results:
        h = roll.hour
        for pair in sorted(roll.series):
            for end, value in zip(roll.window_end_dates, roll.series[pair]):
                rows.append(
                    {
                        "hour": h,
                        "section": "rolling",
                        "measure": "spearman",
                        "pair": pair,
                        "window_end": end,
                        "value": value,
                    }
                )
            rows.append(
                {
                    "hour": h,
                    "section": "rolling",
                    "measure": "spearman_reference",
                    "pair": pair,
                    "value": roll.reference[pair],
                }
            )
    return rows


def render_csv(rows, columns=_CSV_COLUMNS):
    """CSV text of dict ``rows``: a missing key or None is an empty cell,
    floats are written by ``repr`` and booleans as ``true``/``false``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_fmt(row.get(key)) for key in columns] for row in rows)
    return buf.getvalue()


def _json_bytes(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_artifacts(out_dir, payloads, force=False):
    """Write each ``{file name: text}`` payload into ``out_dir``.

    Refuses to overwrite an existing file unless ``force`` is set, and
    checks every target before writing the first, so a refusal leaves no
    new file behind.  Each payload goes to a hidden ``.<name>.<pid>.tmp``
    file first, and only once all of them are written are they renamed
    into place, so an error while writing leaves neither a partial bundle
    nor a temporary file.  The process id keeps a temporary file that a
    killed writer left behind from blocking later writes.  Returns the
    mapping of file names to paths.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {name: os.path.join(out_dir, name) for name in sorted(payloads)}
    for path in paths.values():
        if os.path.exists(path) and not force:
            raise ConfigError(
                f"refusing to overwrite {path}; pass force to replace it",
                location=path,
            )
    temps = {}
    try:
        for name in paths:
            temp = os.path.join(out_dir, f".{name}.{os.getpid()}.tmp")
            with open(temp, "w", newline="") as handle:
                temps[name] = temp
                handle.write(payloads[name])
        for name, temp in temps.items():
            os.replace(temp, paths[name])
    except BaseException:
        for temp in temps.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)
        raise
    return paths


def write_report_bundle(out_dir, config, global_result, rolling_results=(), force=False):
    """Write the per-hour JSONs, the long CSV, and the run metadata.

    Returns the mapping of artifact names to paths.  Refuses to
    overwrite existing artifacts unless ``force`` is set; see
    :func:`write_artifacts`.
    """
    payloads = {}
    for res in global_result.results:
        payloads[f"hour_{res.hour:02d}.json"] = _json_bytes(res.to_json_dict())
    if rolling_results:
        payloads["rolling.json"] = _json_bytes(
            [roll.to_json_dict() for roll in rolling_results]
        )
    payloads["series.csv"] = render_csv(
        series_rows(global_result.results, rolling_results)
    )
    payloads["run_metadata.json"] = _json_bytes(
        {
            "config": config.to_json_dict(),
            "failures": [dict(f) for f in global_result.failures],
            "hours_completed": [res.hour for res in global_result.results],
            "rolling_hours": [roll.hour for roll in rolling_results],
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
        }
    )
    return write_artifacts(out_dir, payloads, force)
