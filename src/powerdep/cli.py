"""Command line front end and the synthetic data generator.

Verbs: ``synth`` writes a coupled AR-GARCH/vine dataset in the ingest
CSV format, ``ingest`` turns a raw CSV into per-hour panel JSONs,
``fit-marginals`` and ``fit-vine`` persist fitted models, ``tail`` and
``scenarios`` run the tail studies of one hour, ``roll`` runs the
sliding-window study, and ``simulate`` draws i.i.d. rows from a stored
vine model.

Every stochastic step is controlled by ``--seed`` alone; rerunning a
verb with identical inputs reproduces its artifacts byte for byte.
Existing artifacts are never overwritten unless ``--force`` is given.
A flat JSON config file can preset any long option but ``--pattern``,
keyed by its dest (``window_days`` for ``--window``): the value goes
through its flag's converter and choices and becomes the parser's
default, so explicit flags win, and integer options reject 70.9 and
true.  Its other ``AnalysisConfig`` fields (Monte Carlo sizes, grids,
``scenarios``) reach the analysis as they are; any other key is a config
error.  Failures surface as one JSON object on stderr with the shape
{code, message, location?} and exit status 1, a config value its flag
rejects or a key it does not know located at the file; usage problems, a
bad flag value among them, exit with status 2.
"""

from __future__ import annotations

import argparse
import datetime
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
from .pipeline import AnalysisConfig, child_seed, integer, number
from .vine import VineEdge, VineModel, VineStructure

OUT_ENV = "POWERDEP_OUT"

SYNTH_FLAVORS = ("gaussian", "independence", "clayton", "break")

# flag dests no config key presets; --pattern overrides the scenarios
# field, which a config file gives as a JSON list
_UNPRESET_DESTS = ("help", "config", "pattern")

# (phi per lag, omega, arch alpha, garch beta) for each synthetic marginal
_SYNTH_PARAMS = {
    "price": ((0.35, 0.15, 0.10), 0.20, 0.10, 0.80),
    "demand": ((0.60,), 0.30, 0.08, 0.85),
    "wind": ((0.50,), 0.40, 0.10, 0.80),
    "solar": ((0.45,), 0.30, 0.08, 0.82),
}

# (family, parameter) of the price~demand, price~wind and price~solar edges
# for each built-in vine; the break flavor switches from early to late
_STAR_COUPLINGS = {
    "gaussian": (("gaussian", 0.6), ("gaussian", -0.4), ("gaussian", -0.3)),
    "independence": (),
    "clayton": (("clayton", 2.0),),
    "break-early": (("gaussian", 0.75),),
    "break-late": (),
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
    """C-vine rooted at price: tree k joins k to every j > k given 0..k-1."""
    return tuple(
        tuple(VineEdge((k, j), tuple(range(k))) for j in range(k + 1, n_vars))
        for k in range(n_vars - 1)
    )


def _coupling_vine(flavor, n_vars):
    """Built-in vine: the flavor's star couplings, independence elsewhere."""
    trees = _coupling_trees(n_vars)
    indep = BivariateCopula("independence")
    copulas = {e: indep for t in trees for e in t}
    for edge, (family, theta) in zip(trees[0], _STAR_COUPLINGS[flavor]):
        copulas[edge] = BivariateCopula(family, 0, (theta,))
    return _manual_vine(n_vars, trees, copulas)


def _coupled_uniforms(flavor, n_vars, days, seed, hour):
    if flavor == "break":
        half = days // 2
        early = vine.simulate_iid(
            _coupling_vine("break-early", n_vars),
            half,
            seed=child_seed(seed, hour, _SEED_SYNTH_COPULA),
        )
        late = vine.simulate_iid(
            _coupling_vine("break-late", n_vars),
            days - half,
            seed=child_seed(seed, hour, _SEED_SYNTH_COPULA_LATE),
        )
        return np.vstack([early, late])
    return vine.simulate_iid(
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
    try:
        days, seed = integer(days), _seed(seed)
        hours = range(24) if hours is None else {integer(h) for h in hours}
    except (TypeError, ValueError):
        raise ConfigError(
            f"cannot read days {days!r}, seed {seed!r} or hours {hours!r}"
        ) from None
    if days < 60:
        raise ConfigError("need at least 60 days of synthetic data")
    if flavor not in SYNTH_FLAVORS:
        raise ConfigError(
            f"flavor must be one of {SYNTH_FLAVORS}, got {flavor!r}"
        )
    hours = tuple(sorted(hours))
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
        shocks = special.ndtri(u)
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
    return pipeline.render_csv(
        (
            {
                "date": rec.date.isoformat(),
                "hour": rec.hour,
                "price": rec.price,
                "demand": rec.demand,
                "wind": rec.wind,
                "solar": rec.solar if rec.hour in SOLAR_HOURS else None,
            }
            for rec in records
        ),
        columns=("date", "hour") + VARIABLES,
    )


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


def _load_config_file(path, parser):
    """The config file's object, every key an ``AnalysisConfig`` field or
    the dest of a flag that some verb of ``parser`` lets a config preset."""
    if path is None:
        return {}
    data = _load_json_file(path, "config")
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a flat JSON object", location=path)
    known = set(AnalysisConfig.__dataclass_fields__).union(
        action.dest for verb in verb_parsers(parser).values() for action in verb._actions
    ) - set(_UNPRESET_DESTS)
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}", location=path)
    return data


def _flag_presets(parser, cfg, path):
    """The config values of ``parser``'s flags, each through its flag's converter.

    A flag without one takes a string (a switch, a boolean); a value the
    flag rejects is a config error at the config file.
    """
    presets = {}
    for action in parser._actions:
        if action.dest not in cfg or action.dest in _UNPRESET_DESTS:
            continue
        value = cfg[action.dest]
        try:
            if action.type is not None:
                value = action.type(value)
            elif not isinstance(value, bool if action.nargs == 0 else str):
                raise TypeError
            if action.choices is not None and value not in action.choices:
                raise ValueError
        except (TypeError, ValueError):
            raise ConfigError(
                f"cannot read {action.dest} from {cfg[action.dest]!r}", location=path
            ) from None
        presets[action.dest] = value
    return presets


def _analysis_config(args, **overrides):
    """``AnalysisConfig`` from the verb's flags and the file's other fields.

    A field that a flag of the verb owns comes from the parsed flag alone;
    non-None overrides win.  An invalid value is reported at the config
    file when one is given.
    """
    fields = AnalysisConfig.__dataclass_fields__
    flags = {k: v for k, v in vars(args).items() if k in fields}
    kwargs = {k: v for k, v in args.cfg.items() if k in fields and k not in flags}
    kwargs.update((k, v) for k, v in flags.items() if v is not None)
    kwargs.update((k, v) for k, v in overrides.items() if v is not None)
    try:
        return AnalysisConfig.from_json_dict(kwargs)
    except ConfigError as exc:
        if exc.location is None:
            exc.location = args.config
        raise


def _load_records(args):
    if args.data is None:
        raise ConfigError("a --data CSV path is required")
    try:
        records = load_csv(args.data, allow_duplicate_hours=True)
    except OSError as exc:
        raise ConfigError(f"cannot read data file: {exc}", location=args.data) from None
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


def _load_panel(args):
    if args.hour is None:
        raise ConfigError("an --hour in 0..23 is required")
    records, log = _load_records(args)
    return slice_hour(records, args.hour), log


def _publish(args, artifacts):
    """Write ``{artifact key: (file name, text)}`` and print the artifact map."""
    try:
        paths = pipeline.write_artifacts(args.out, dict(artifacts.values()), args.force)
    except OSError as exc:
        raise ConfigError(f"cannot write artifacts: {exc}", location=args.out) from None
    keyed = {key: paths[name] for key, (name, _) in artifacts.items()}
    print(pipeline._json_bytes({"artifacts": keyed}), end="")
    return 0


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------


def _cmd_synth(args):
    records = generate_synthetic_records(
        args.days, args.seed, args.flavor, args.start, args.hours
    )
    hours = sorted({rec.hour for rec in records})
    meta = _synth_meta(args.days, args.seed, args.flavor, args.start, hours)
    return _publish(
        args,
        {
            "data": ("synthetic.csv", records_to_csv_text(records)),
            "metadata": ("synthetic_meta.json", pipeline._json_bytes(meta)),
        },
    )


def _cmd_ingest(args):
    records, log = _load_records(args)
    hours = sorted(set(args.hours or (rec.hour for rec in records)))
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
    return _publish(args, artifacts)


def _cmd_fit_marginals(args):
    panel, _ = _load_panel(args)
    fits = {k: v.to_json_dict() for k, v in pipeline.fit_marginals(panel).items()}
    report = pipeline._json_bytes({"hour": panel.hour, "marginals": fits})
    name = f"marginals_hour_{panel.hour:02d}.json"
    return _publish(args, {"marginals": (name, report)})


def _cmd_fit_vine(args):
    panel, _ = _load_panel(args)
    # the fit reads no config field, but a config file is checked as for
    # every verb
    _analysis_config(args, hours=(panel.hour,))
    fits, model = pipeline.fit_hour(panel)
    report = {
        "hour": panel.hour,
        "variables": list(panel.variable_names),
        "marginals": {k: v.to_json_dict() for k, v in fits.items()},
        "vine": model.to_json_dict(),
    }
    name = f"vine_hour_{panel.hour:02d}.json"
    return _publish(args, {"vine": (name, pipeline._json_bytes(report))})


def _hour_rows(args):
    """The single-hour tail study of ``tail`` and ``scenarios``, and its CSV rows."""
    panel, _ = _load_panel(args)
    patterns = tuple(args.pattern.split(",")) if args.pattern else None
    config = _analysis_config(args, hours=(panel.hour,), scenarios=patterns)
    result = pipeline.analyze_hour(panel, config)
    return result, pipeline.series_rows((result,), ())


def _cmd_tail(args):
    result, rows = _hour_rows(args)
    stem = f"tail_hour_{result.hour:02d}"
    return _publish(
        args,
        {
            "tail_json": (f"{stem}.json", pipeline._json_bytes(result.to_json_dict())),
            "tail_csv": (f"{stem}.csv", pipeline.render_csv(rows)),
        },
    )


def _cmd_scenarios(args):
    result, rows = _hour_rows(args)
    rows = [row for row in rows if row["measure"] == "scenario"]
    name = f"scenarios_hour_{result.hour:02d}.csv"
    return _publish(args, {"scenarios_csv": (name, pipeline.render_csv(rows))})


def _cmd_roll(args):
    records, _ = _load_records(args)
    config = _analysis_config(args)
    panels = {h: slice_hour(records, h) for h in config.hours}
    results = pipeline.run_rolling(panels, config)
    rows = pipeline.series_rows((), results)
    report = pipeline._json_bytes([r.to_json_dict() for r in results])
    return _publish(
        args,
        {
            "rolling_json": ("rolling.json", report),
            "rolling_csv": ("rolling.csv", pipeline.render_csv(rows)),
        },
    )


def _cmd_simulate(args):
    if args.model is None:
        raise ConfigError("a --model vine JSON path is required")
    data = _load_json_file(args.model, "model")
    try:
        model = VineModel.from_json_dict(data.get("vine", data))
    except (AttributeError, KeyError, TypeError, ValueError):
        raise ConfigError(
            "model file does not hold a vine model", location=args.model
        ) from None
    except PowerdepError as exc:
        # a bad copula parameter or structure keeps its code, at the file
        exc.location = args.model
        raise
    u = vine.simulate_iid(model, args.n, seed=args.seed)
    columns = [f"u{j}" for j in range(u.shape[1])]
    text = pipeline.render_csv((dict(zip(columns, row)) for row in u), columns)
    return _publish(args, {"simulated": ("simulated_u.csv", text)})


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _hours(value):
    """Hours from a comma list or a JSON list, each an integer."""
    if isinstance(value, str):
        value = [tok for tok in value.split(",") if tok.strip()]
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError(f"no hours in {value!r}")
    return tuple(integer(h) for h in value)


def _seed(value):
    """A seed: an integer of at least 0, as numpy seed sequences need."""
    seed = integer(value)
    if seed < 0:
        raise ValueError(f"seed {seed} is negative")
    return seed


def _add_common(parser):
    parser.add_argument("--config", help="flat JSON config file; flags override it")
    parser.add_argument(
        "--out", help=f"output directory (default ${OUT_ENV} or the cwd)"
    )
    parser.add_argument(
        "--seed", type=_seed, default=0, help="master random seed (default 0)"
    )
    parser.add_argument(
        "--force", action="store_true", help="overwrite existing artifacts"
    )


def _add_data(parser, with_hour):
    parser.add_argument("--data", help="input CSV in the ingest format")
    if with_hour:
        parser.add_argument("--hour", type=integer, help="hour of day, 0..23")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="powerdep",
        description="Tail dependence studies of hourly power market data.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    _add_common(p)
    p.add_argument("--days", type=integer, help="number of days (default 800)")
    p.add_argument("--flavor", choices=SYNTH_FLAVORS, help="dependence flavor")
    p.add_argument(
        "--start",
        type=datetime.date.fromisoformat,
        help="first date, ISO format (default 2015-01-01)",
    )
    p.add_argument("--hours", type=_hours, help="comma list of hours (default all 24)")
    p.set_defaults(
        func=_cmd_synth, days=800, flavor="gaussian", start=datetime.date(2015, 1, 1)
    )

    p = sub.add_parser("ingest", help="validate a CSV and write per-hour panels")
    _add_common(p)
    _add_data(p, with_hour=False)
    p.add_argument(
        "--hours", type=_hours, help="comma list of hours (default: all present)"
    )
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
    p.add_argument("--alpha", type=number, help="conditioning tail level")
    p.add_argument("--beta", type=number, help="target tail level")
    p.add_argument(
        "--pattern",
        help="comma list of scenario patterns such as HLL or LHH:L "
        "(default: the five standard scenarios)",
    )
    p.set_defaults(func=_cmd_tail)

    p = sub.add_parser("scenarios", help="scenario table of one hour")
    _add_common(p)
    _add_data(p, with_hour=True)
    p.add_argument("--alpha", type=number, help="conditioning tail level")
    p.add_argument("--beta", type=number, help="target tail level")
    p.add_argument("--pattern", help="comma list of scenario patterns")
    p.set_defaults(func=_cmd_scenarios)

    p = sub.add_parser("roll", help="rolling-window dependence study")
    _add_common(p)
    _add_data(p, with_hour=False)
    p.add_argument("--hours", type=_hours, help="comma list of hours")
    p.add_argument("--window", dest="window_days", type=integer, metavar="WINDOW",
                   help="window length in days (default 730)")
    p.add_argument("--step", dest="step_days", type=integer, metavar="STEP",
                   help="roll step in days (default 1)")
    p.set_defaults(func=_cmd_roll)

    p = sub.add_parser("simulate", help="simulate from a stored vine model")
    _add_common(p)
    p.add_argument("--model", help="vine JSON written by fit-vine")
    p.add_argument("--n", type=integer, help="sample size (default 10000)")
    p.set_defaults(func=_cmd_simulate, n=10_000)

    return parser


def verb_parsers(parser):
    """``{verb: sub-parser}`` of a parser made by :func:`build_parser`."""
    (verbs,) = (action for action in parser._actions if action.dest == "verb")
    return verbs.choices


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        # config values become the verb's defaults, so a flag still wins
        cfg = _load_config_file(args.config, parser)
        verb = verb_parsers(parser)[args.verb]
        verb.set_defaults(**_flag_presets(verb, cfg, args.config))
        args = parser.parse_args(argv)
        args.cfg = cfg
        args.out = args.out or os.environ.get(OUT_ENV) or os.getcwd()
        os.makedirs(args.out, exist_ok=True)
        # every verb's fits run on one BLAS thread, as the studies' do
        with pipeline.one_blas_thread():
            return args.func(args)
    except PowerdepError as exc:
        sys.stderr.write(json.dumps(exc.to_json_dict()) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
