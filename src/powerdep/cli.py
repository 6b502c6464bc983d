"""Command line front end and the synthetic data generator.

Verbs: ``synth`` writes a coupled AR-GARCH/vine dataset in the ingest
CSV format, ``ingest`` turns a raw CSV into per-hour panel JSONs,
``fit-marginals`` and ``fit-vine`` persist fitted models, ``tail`` and
``scenarios`` run the tail studies of one hour, ``roll`` runs the
sliding-window study, and ``simulate`` draws from a stored vine model.

Every stochastic step is controlled by ``--seed`` alone; rerunning a
verb with identical inputs reproduces its artifacts byte for byte.
Existing artifacts are never overwritten unless ``--force`` is given.
A flat JSON config file can preset any long option; explicit command
line flags win.  Failures surface as one JSON object on stderr with the
shape {code, message, location?} and exit status 1; usage problems exit
with status 2.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import os
import sys

import numpy as np
from scipy import special

from . import pipeline, vine
from .bicop import BivariateCopula
from .data_ingest import (
    SOLAR_HOURS,
    VARIABLES,
    RawHourlyRecord,
    build_dummies,
    fix_clock_changes,
    load_csv,
    slice_hour,
)
from .errors import ConfigError, PowerdepError
from .marginals import MarginalSpec, build_fit_from_params, simulate_ar_garch
from .pipeline import AnalysisConfig, GlobalRunResult, child_seed
from .vine import VineEdge, VineModel, VineStructure

OUT_ENV = "POWERDEP_OUT"

SYNTH_FLAVORS = ("gaussian", "independence", "clayton", "break")

# (phi per lag, omega, arch alpha, garch beta) for each synthetic marginal
_SYNTH_PARAMS = {
    "price": ((0.35, 0.15, 0.10), 0.20, 0.10, 0.80),
    "demand": ((0.60,), 0.30, 0.08, 0.85),
    "wind": ((0.50,), 0.40, 0.10, 0.80),
    "solar": ((0.45,), 0.30, 0.08, 0.82),
}

_SYNTH_SEASON_SCALE = {"price": 0.4, "demand": 0.5, "wind": 0.3, "solar": 0.6}
_SYNTH_WEEKEND = {"price": -0.2, "demand": -0.4, "wind": 0.0, "solar": 0.0}

# child-seed purpose codes local to the generator (the pipeline's rolling
# study owns 5 and 6; codes 1-4 are retired and never reused)
_SEED_SYNTH_COPULA = 61
_SEED_SYNTH_COPULA_LATE = 62
_SEED_SYNTH_MARGIN = 63


def _synth_psi(variable):
    months = _SYNTH_SEASON_SCALE[variable] * np.sin(
        2.0 * np.pi * np.arange(12) / 12.0
    )
    weekend = _SYNTH_WEEKEND[variable]
    return np.concatenate([months, [weekend, weekend]])


def _synth_marginal_fit(variable):
    phi, omega, alpha, beta = _SYNTH_PARAMS[variable]
    spec = MarginalSpec.for_variable(variable)
    return build_fit_from_params(spec, phi, _synth_psi(variable), omega, alpha, beta)


def _manual_vine(n_vars, trees, copulas):
    structure = VineStructure(n_vars=n_vars, trees=tuple(tuple(t) for t in trees))
    meta = {
        e: {
            "loglik": 0.0,
            "aic": 0.0,
            "family": copulas[e].family,
            "rotation": copulas[e].rotation,
            "warnings": [],
        }
        for e in structure.all_edges()
    }
    return VineModel(
        structure=structure,
        pair_copulas=dict(copulas),
        fit_meta=meta,
        n_obs=0,
        loglik=0.0,
    )


def _coupling_trees(n_vars):
    if n_vars == 4:
        t1 = (VineEdge((0, 1)), VineEdge((0, 2)), VineEdge((0, 3)))
        t2 = (VineEdge((1, 2), (0,)), VineEdge((1, 3), (0,)))
        t3 = (VineEdge((2, 3), (0, 1)),)
        return (t1, t2, t3)
    t1 = (VineEdge((0, 1)), VineEdge((0, 2)))
    t2 = (VineEdge((1, 2), (0,)),)
    return (t1, t2)


def _coupling_vine(flavor, n_vars):
    """Built-in dependence structures the synthetic generator offers."""
    trees = _coupling_trees(n_vars)
    indep = BivariateCopula("independence")
    copulas = {e: indep for t in trees for e in t}
    star = trees[0]
    if flavor == "gaussian":
        copulas[star[0]] = BivariateCopula("gaussian", 0, (0.6,))
        copulas[star[1]] = BivariateCopula("gaussian", 0, (-0.4,))
        if n_vars == 4:
            copulas[star[2]] = BivariateCopula("gaussian", 0, (-0.3,))
    elif flavor == "clayton":
        copulas[star[0]] = BivariateCopula("clayton", 0, (2.0,))
    elif flavor == "break-early":
        copulas[star[0]] = BivariateCopula("gaussian", 0, (0.75,))
    elif flavor not in ("independence", "break-late"):
        raise ConfigError(f"unknown synthetic flavor {flavor!r}")
    return _manual_vine(n_vars, trees, copulas)


def _coupled_uniforms(flavor, n_vars, days, seed, hour):
    if flavor == "break":
        half = days // 2
        early = vine.simulate(
            _coupling_vine("break-early", n_vars),
            half,
            seed=child_seed(seed, hour, _SEED_SYNTH_COPULA),
        )
        late = vine.simulate(
            _coupling_vine("break-late", n_vars),
            days - half,
            seed=child_seed(seed, hour, _SEED_SYNTH_COPULA_LATE),
        )
        return np.vstack([early, late])
    return vine.simulate(
        _coupling_vine(flavor, n_vars),
        days,
        seed=child_seed(seed, hour, _SEED_SYNTH_COPULA),
    )


def generate_synthetic_records(
    days, seed, flavor="gaussian", start=datetime.date(2015, 1, 1), hours=None
):
    """Draw a synthetic hourly dataset in the ingest record format.

    Dependence across variables comes from a built-in vine whose
    uniforms are pushed through the standard normal quantile and fed to
    each AR-GARCH marginal as its innovation sequence.  ``flavor``
    picks the vine: ``gaussian`` (star at price), ``independence``,
    ``clayton`` (lower tail dependent price/demand pair), or ``break``
    (strong price/demand coupling in the first half of the sample, none
    in the second).
    """
    days = int(days)
    if days < 60:
        raise ConfigError("need at least 60 days of synthetic data")
    if flavor not in SYNTH_FLAVORS:
        raise ConfigError(
            f"flavor must be one of {SYNTH_FLAVORS}, got {flavor!r}"
        )
    if hours is None:
        hours = tuple(range(24))
    else:
        hours = tuple(sorted({int(h) for h in hours}))
        if any(not 0 <= h <= 23 for h in hours):
            raise ConfigError("hours must lie in 0..23")
        if not hours:
            raise ConfigError("need at least one hour")
    dates = tuple(start + datetime.timedelta(days=k) for k in range(days))
    dummies = build_dummies(dates)

    records = []
    for hour in hours:
        names = VARIABLES if hour in SOLAR_HOURS else VARIABLES[:3]
        u = _coupled_uniforms(flavor, len(names), days, seed, hour)
        shocks = special.ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
        columns = {}
        for j, name in enumerate(names):
            fit = _synth_marginal_fit(name)
            columns[name] = simulate_ar_garch(
                fit,
                dummies,
                days,
                seed=child_seed(seed, hour, _SEED_SYNTH_MARGIN, j),
                shocks=shocks[:, j],
            )
        for k, day in enumerate(dates):
            records.append(
                RawHourlyRecord(
                    date=day,
                    hour=hour,
                    price=float(columns["price"][k]),
                    demand=float(columns["demand"][k]),
                    wind=float(columns["wind"][k]),
                    solar=float(columns["solar"][k]) if "solar" in columns else 0.0,
                )
            )
    records.sort(key=lambda r: (r.date, r.hour))
    return records


def records_to_csv_text(records):
    """Render records in the ingest CSV format with round-trip floats."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("date", "hour", "price", "demand", "wind", "solar"))
    for rec in records:
        solar = repr(rec.solar) if rec.hour in SOLAR_HOURS else ""
        writer.writerow(
            (
                rec.date.isoformat(),
                rec.hour,
                repr(rec.price),
                repr(rec.demand),
                repr(rec.wind),
                solar,
            )
        )
    return buf.getvalue()


def _synth_vine_meta(flavor):
    if flavor == "break":
        return {
            "note": "price~demand coupling drops to independence mid-sample",
            "first_half": {
                "quadrivariate": _coupling_vine("break-early", 4).to_json_dict(),
                "trivariate": _coupling_vine("break-early", 3).to_json_dict(),
            },
            "second_half": {
                "quadrivariate": _coupling_vine("break-late", 4).to_json_dict(),
                "trivariate": _coupling_vine("break-late", 3).to_json_dict(),
            },
        }
    return {
        "quadrivariate": _coupling_vine(flavor, 4).to_json_dict(),
        "trivariate": _coupling_vine(flavor, 3).to_json_dict(),
    }


def _synth_meta(days, seed, flavor, start, hours):
    marginals = {}
    for name in VARIABLES:
        phi, omega, alpha, beta = _SYNTH_PARAMS[name]
        marginals[name] = {
            "lag_set": list(MarginalSpec.for_variable(name).lag_set),
            "phi": list(phi),
            "psi": [float(x) for x in _synth_psi(name)],
            "omega": omega,
            "alpha": alpha,
            "beta": beta,
        }
    return {
        "generator": "ar-garch marginals coupled by a built-in vine",
        "days": days,
        "seed": seed,
        "flavor": flavor,
        "start": start.isoformat(),
        "hours": list(hours),
        "marginals": marginals,
        "vine": _synth_vine_meta(flavor),
    }


# ---------------------------------------------------------------------------
# shared command plumbing
# ---------------------------------------------------------------------------


def _load_json_file(path, what):
    """Parsed JSON of ``path``; a missing or malformed file is a config error."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found", location=path) from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} file is not valid JSON: {exc}", location=path) from None


def _load_config_file(path):
    if path is None:
        return {}
    data = _load_json_file(path, "config")
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a flat JSON object", location=path)
    return data


def _out_dir(args, cfg):
    out = args.out or cfg.get("out") or os.environ.get(OUT_ENV) or os.getcwd()
    os.makedirs(out, exist_ok=True)
    return out


def _get(args, cfg, key, default):
    """Resolution order: explicit flag, config file, built-in default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in cfg:
        return cfg[key]
    return default


def _get_as(args, cfg, key, default, convert):
    """``_get`` passed through ``convert``; a value it rejects is a config error.

    A rejected config-file value is reported at the config file.
    """
    value = _get(args, cfg, key, default)
    try:
        return convert(value)
    except (TypeError, ValueError):
        from_file = getattr(args, key, None) is None
        raise ConfigError(
            f"cannot read {key} from {value!r}",
            location=args.config if from_file else None,
        ) from None


def _force(args, cfg):
    return bool(args.force or cfg.get("force", False))


def _parse_hours_value(value):
    if value is None:
        return None
    try:
        if isinstance(value, (list, tuple)):
            return tuple(int(h) for h in value)
        hours = tuple(int(tok) for tok in str(value).split(",") if tok.strip() != "")
    except (TypeError, ValueError):
        hours = ()
    if not hours:
        raise ConfigError(f"cannot parse hours from {value!r}")
    return hours


def _analysis_config(args, cfg, **overrides):
    """The config file's ``AnalysisConfig`` fields, then non-None overrides.

    An invalid value is reported at the config file when one is given.
    """
    kwargs = {k: v for k, v in cfg.items() if k in AnalysisConfig.__dataclass_fields__}
    kwargs.update((k, v) for k, v in overrides.items() if v is not None)
    try:
        if "hours" in kwargs:
            kwargs["hours"] = _parse_hours_value(kwargs["hours"])
        return AnalysisConfig.from_json_dict(kwargs)
    except ConfigError as exc:
        if exc.location is None:
            exc.location = args.config
        raise


def _load_records(args, cfg):
    data = _get(args, cfg, "data", None)
    if data is None:
        raise ConfigError("a --data CSV path is required")
    try:
        records = load_csv(data, allow_duplicate_hours=True)
    except OSError as exc:
        raise ConfigError(f"cannot read data file: {exc}", location=str(data)) from None
    # clock-change artifacts only exist in full hourly exports; a file
    # already restricted to selected hours has nothing to repair
    if {rec.hour for rec in records} == set(range(24)):
        collected = {}
        records = fix_clock_changes(records, collect=collected)
        log = {
            key: [(day.isoformat(), hour) for day, hour in value]
            for key, value in collected.items()
        }
    else:
        log = {"note": "partial-hour dataset; clock-change repair skipped"}
    return records, log


def _load_panel(args, cfg):
    if _get(args, cfg, "hour", None) is None:
        raise ConfigError("an --hour in 0..23 is required")
    hour = _get_as(args, cfg, "hour", None, int)
    records, log = _load_records(args, cfg)
    return slice_hour(records, hour), log


def _publish(args, cfg, out, artifacts):
    """Write ``{artifact key: (file name, text)}`` and print the artifact map."""
    try:
        paths = pipeline.write_artifacts(
            out, dict(artifacts.values()), _force(args, cfg)
        )
    except OSError as exc:
        raise ConfigError(f"cannot write artifacts: {exc}", location=out) from None
    keyed = {key: paths[name] for key, (name, _) in artifacts.items()}
    print(pipeline._json_bytes({"artifacts": keyed}), end="")
    return 0


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------


def _cmd_synth(args, cfg, out):
    days = _get_as(args, cfg, "days", 800, int)
    seed = _get_as(args, cfg, "seed", 0, int)
    flavor = str(_get(args, cfg, "flavor", "gaussian"))
    start = _get_as(
        args, cfg, "start", "2015-01-01",
        lambda value: datetime.date.fromisoformat(str(value)),
    )
    hours = _parse_hours_value(_get(args, cfg, "hours", None))
    records = generate_synthetic_records(days, seed, flavor, start, hours)
    meta = _synth_meta(days, seed, flavor, start, hours or tuple(range(24)))
    return _publish(
        args,
        cfg,
        out,
        {
            "data": ("synthetic.csv", records_to_csv_text(records)),
            "metadata": ("synthetic_meta.json", pipeline._json_bytes(meta)),
        },
    )


def _cmd_ingest(args, cfg, out):
    records, log = _load_records(args, cfg)
    hours = _parse_hours_value(_get(args, cfg, "hours", None))
    if hours is None:
        hours = tuple(sorted({rec.hour for rec in records}))
    artifacts = {
        f"panel_{hour:02d}": (
            f"panel_{hour:02d}.json",
            pipeline._json_bytes(slice_hour(records, hour).to_json_dict()),
        )
        for hour in hours
    }
    artifacts["metadata"] = (
        "ingest_meta.json",
        pipeline._json_bytes({"hours": list(hours), "clock_changes": log}),
    )
    return _publish(args, cfg, out, artifacts)


def _cmd_fit_marginals(args, cfg, out):
    panel, _ = _load_panel(args, cfg)
    fits = {k: v.to_json_dict() for k, v in pipeline.fit_marginals(panel).items()}
    report = pipeline._json_bytes({"hour": panel.hour, "marginals": fits})
    name = f"marginals_hour_{panel.hour:02d}.json"
    return _publish(args, cfg, out, {"marginals": (name, report)})


def _cmd_fit_vine(args, cfg, out):
    panel, _ = _load_panel(args, cfg)
    config = _analysis_config(args, cfg, hours=(panel.hour,), seed=args.seed)
    fits, model = pipeline.fit_hour(panel, config)
    report = {
        "hour": panel.hour,
        "variables": list(panel.variable_names),
        "marginals": {k: v.to_json_dict() for k, v in fits.items()},
        "vine": model.to_json_dict(),
    }
    name = f"vine_hour_{panel.hour:02d}.json"
    return _publish(args, cfg, out, {"vine": (name, pipeline._json_bytes(report))})


def _run_hour_analysis(args, cfg, scenario_override):
    panel, _ = _load_panel(args, cfg)
    config = _analysis_config(
        args,
        cfg,
        hours=(panel.hour,),
        seed=args.seed,
        alpha=getattr(args, "alpha", None),
        beta=getattr(args, "beta", None),
        scenarios=scenario_override,
    )
    return pipeline.analyze_hour(panel, config)


def _cmd_tail(args, cfg, out):
    patterns = tuple(args.pattern.split(",")) if args.pattern else None
    result = _run_hour_analysis(args, cfg, patterns)
    rows = pipeline.series_rows(
        GlobalRunResult(results=(result,), failures=()), ()
    )
    stem = f"tail_hour_{result.hour:02d}"
    return _publish(
        args,
        cfg,
        out,
        {
            "tail_json": (f"{stem}.json", pipeline._json_bytes(result.to_json_dict())),
            "tail_csv": (f"{stem}.csv", pipeline.render_csv(rows)),
        },
    )


def _cmd_scenarios(args, cfg, out):
    patterns = tuple(args.pattern.split(",")) if args.pattern else None
    result = _run_hour_analysis(args, cfg, patterns)
    rows = [
        row
        for row in pipeline.series_rows(
            GlobalRunResult(results=(result,), failures=()), ()
        )
        if row["measure"] == "scenario"
    ]
    name = f"scenarios_hour_{result.hour:02d}.csv"
    return _publish(
        args, cfg, out, {"scenarios_csv": (name, pipeline.render_csv(rows))}
    )


def _cmd_roll(args, cfg, out):
    records, _ = _load_records(args, cfg)
    config = _analysis_config(
        args,
        cfg,
        hours=args.hours,
        seed=args.seed,
        window_days=args.window,
        step_days=args.step,
    )
    panels = {h: slice_hour(records, h) for h in config.hours}
    results = pipeline.run_rolling(panels, config)
    rows = pipeline.series_rows(GlobalRunResult(results=(), failures=()), results)
    report = pipeline._json_bytes([r.to_json_dict() for r in results])
    return _publish(
        args,
        cfg,
        out,
        {
            "rolling_json": ("rolling.json", report),
            "rolling_csv": ("rolling.csv", pipeline.render_csv(rows)),
        },
    )


def _cmd_simulate(args, cfg, out):
    model_path = _get(args, cfg, "model", None)
    if model_path is None:
        raise ConfigError("a --model vine JSON path is required")
    data = _load_json_file(model_path, "model")
    try:
        model = VineModel.from_json_dict(data.get("vine", data))
    except (AttributeError, KeyError, TypeError, ValueError):
        raise ConfigError(
            "model file does not hold a vine model", location=model_path
        ) from None
    n = _get_as(args, cfg, "n", 10_000, int)
    seed = _get_as(args, cfg, "seed", 0, int)
    u = vine.simulate(model, n, seed=seed)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"u{j}" for j in range(u.shape[1])])
    for row in u:
        writer.writerow([repr(float(x)) for x in row])
    return _publish(args, cfg, out, {"simulated": ("simulated_u.csv", buf.getvalue())})


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--config", help="flat JSON config file; flags override it")
    parser.add_argument(
        "--out", help=f"output directory (default ${OUT_ENV} or the cwd)"
    )
    parser.add_argument("--seed", type=int, help="master random seed")
    parser.add_argument(
        "--force", action="store_true", help="overwrite existing artifacts"
    )


def _add_data(parser, with_hour):
    parser.add_argument("--data", help="input CSV in the ingest format")
    if with_hour:
        parser.add_argument("--hour", type=int, help="hour of day, 0..23")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="powerdep",
        description="Tail dependence studies of hourly power market data.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    _add_common(p)
    p.add_argument("--days", type=int, help="number of days (default 800)")
    p.add_argument("--flavor", choices=SYNTH_FLAVORS, help="dependence flavor")
    p.add_argument("--start", help="first date, ISO format (default 2015-01-01)")
    p.add_argument("--hours", help="comma list of hours (default all 24)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest", help="validate a CSV and write per-hour panels")
    _add_common(p)
    _add_data(p, with_hour=False)
    p.add_argument("--hours", help="comma list of hours (default: all present)")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("fit-marginals", help="fit AR-GARCH marginals for one hour")
    _add_common(p)
    _add_data(p, with_hour=True)
    p.set_defaults(func=_cmd_fit_marginals)

    p = sub.add_parser("fit-vine", help="fit the vine copula for one hour")
    _add_common(p)
    _add_data(p, with_hour=True)
    p.set_defaults(func=_cmd_fit_vine)

    p = sub.add_parser("tail", help="tail dependence study of one hour")
    _add_common(p)
    _add_data(p, with_hour=True)
    p.add_argument("--alpha", type=float, help="conditioning tail level")
    p.add_argument("--beta", type=float, help="target tail level")
    p.add_argument(
        "--pattern",
        help="comma list of scenario patterns such as HLL or LHH:L "
        "(default: the five standard scenarios)",
    )
    p.set_defaults(func=_cmd_tail)

    p = sub.add_parser("scenarios", help="scenario table of one hour")
    _add_common(p)
    _add_data(p, with_hour=True)
    p.add_argument("--alpha", type=float, help="conditioning tail level")
    p.add_argument("--beta", type=float, help="target tail level")
    p.add_argument("--pattern", help="comma list of scenario patterns")
    p.set_defaults(func=_cmd_scenarios)

    p = sub.add_parser("roll", help="rolling-window dependence study")
    _add_common(p)
    _add_data(p, with_hour=False)
    p.add_argument("--hours", help="comma list of hours")
    p.add_argument("--window", type=int, help="window length in days (default 730)")
    p.add_argument("--step", type=int, help="roll step in days (default 1)")
    p.set_defaults(func=_cmd_roll)

    p = sub.add_parser("simulate", help="simulate from a stored vine model")
    _add_common(p)
    p.add_argument("--model", help="vine JSON written by fit-vine")
    p.add_argument("--n", type=int, help="sample size (default 10000)")
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        cfg = _load_config_file(args.config)
        return args.func(args, cfg, _out_dir(args, cfg))
    except PowerdepError as exc:
        sys.stderr.write(json.dumps(exc.to_json_dict()) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
