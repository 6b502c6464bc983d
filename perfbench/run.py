#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of powerdep's global and rolling studies.

Run from the root of a powerdep checkout:

    python3 perfbench/run.py --workload global_quad --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats the workload untraced for about ``--seconds`` and
reports the end-to-end metrics.  ``--trace 1`` runs it once untraced and
once traced and serial, and reports the per-layer metrics.  Inputs come
from ``--seed`` alone.  The last line of stdout is the result JSON; the
line before it holds machine info and the raw samples.  The command
exits 1 when a correctness check fails.  perfbench/README.md describes
the workloads and metrics.
"""

import time

_START = time.perf_counter()

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import types
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path

from spans import Recorder, patched

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "work"

# every workload runs with jobs=2, the core count of the reference sandbox
JOBS = 2
SETUP_REPEATS = 3
QUAD_HOUR = 12
TRI_HOURS = tuple(range(0, 8)) + tuple(range(17, 24))

# tree-1 Gaussian couplings of generate_synthetic_records(flavor="gaussian")
TREE1_RHO = {"price~demand": 0.6, "price~wind": -0.4, "price~solar": -0.3}

SIZES = {
    # paper scale: default AnalysisConfig Monte Carlo sizes
    "paper": {"days": 1000, "rolling_days": 750, "window_days": 730, "mc": {}},
    # smallest sizes every workload path accepts; used by selftest.py
    "tiny": {
        "days": 250,
        "rolling_days": 150,
        "window_days": 130,
        "mc": {
            "n_mc_spearman": 10_000,
            "n_mc_tdc": 2_000,
            "n_mc_lambda": 2_000,
            "n_mc_scenario": 1_000,
            "n_mc_rolling": 10_000,
        },
    },
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "completed_frac": "ratio",
    "mc_stderr_max": "1",
}

# per-layer metric -> span whose summed self time it reports
SELF_TIME_METRICS = {
    "counting.s": "counting",
    "taildep.lambda_s": "taildep.lambda",
    "taildep.scenario_s": "taildep.scenario",
    "vine.simulate_s": "vine.simulate",
    "vine.spearman_s": "vine.spearman",
    "vine.tdc_s": "vine.tdc",
    "marginals.fit_s": "marginals.fit",
    "vine.fit_s": "vine.fit",
    "bicop.select_s": "bicop.select",
    "data_ingest.load_csv_s": "data_ingest.load_csv",
    "data_ingest.fix_s": "data_ingest.fix",
    "data_ingest.slice_s": "data_ingest.slice",
    "pipeline.analyze_hour_s": "pipeline.analyze_hour",
    "pipeline.write_s": "pipeline.write",
}

COUNT_METRICS = {
    "counting.calls": "count",
    "counting.rows": "count",
    "counting.rows_ge3": "count",
    "vine.simulate_rows": "count",
    "marginals.fits": "count",
    "marginals.iters": "count",
    "marginals.nonconverged": "count",
    "vine.fits": "count",
    "bicop.selects": "count",
    "data_ingest.rows": "count",
    "pipeline.bundle_bytes": "bytes",
}

PER_LAYER_UNITS = {
    **{m: "s" for m in SELF_TIME_METRICS},
    **COUNT_METRICS,
    "pipeline.pool_efficiency": "ratio",
    "trace_overhead": "ratio",
}


def import_program():
    """Import powerdep from this checkout's src/, never an installed copy."""
    if not (SRC / "powerdep" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no powerdep sources under {SRC}; "
            "run from the root of a powerdep checkout"
        )
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    from powerdep import cli, data_ingest, pipeline, taildep, vine

    if SRC not in Path(pipeline.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported powerdep from {pipeline.__file__}")
    return types.SimpleNamespace(
        np=numpy,
        scipy=scipy,
        cli=cli,
        data_ingest=data_ingest,
        pipeline=pipeline,
        taildep=taildep,
        vine=vine,
    )


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """Result of one timed unit of work."""

    result: object
    attempted: int
    failed: int
    study_s: float  # wall of the run_global / run_rolling call alone
    config: object = None
    bundle: Path = None
    problems: list = field(default_factory=list)


def _spearman_problem(label, estimate, n_days):
    rho = TREE1_RHO[label]
    expected = 6.0 / math.pi * math.asin(rho / 2.0)
    if not abs(estimate - expected) <= 5.0 / math.sqrt(n_days):
        return (
            f"{label}: Spearman {estimate!r} not within 5/sqrt({n_days}) "
            f"of {expected:.4f}"
        )
    return None


def _probability_problems(res):
    problems = []

    def check(label, value, reliable=True):
        if math.isnan(value) and not reliable:
            return
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            problems.append(f"hour {res.hour} {label} = {value!r} is not a probability")

    for pair, tdc in res.pairwise_tdc.items():
        for level in tdc["levels"]:
            for side in ("lower", "upper"):
                check(f"tdc {pair} {side} t={level['t']}", level[side])
    for side, lam in res.lambda_k.items():
        for a, value, ok in zip(lam.alphas, lam.values, lam.reliable):
            check(f"lambda {side} alpha={a}", value, ok)
        check(f"lambda {side} point", lam.point_estimate)
        check(f"lambda {side} extrapolated", lam.extrapolated)
    for row in res.scenario_table:
        r = row["result"]
        check(f"scenario {row['pattern']}:{row['target_direction']}", r.value, r.reliable)
    return problems


def _global_problems(result, n_days):
    problems = []
    for res in result.results:
        for label, est in res.spearman.items():
            if label in TREE1_RHO:
                problem = _spearman_problem(label, est["estimate"], n_days)
                if problem:
                    problems.append(f"hour {res.hour} {problem}")
        problems.extend(_probability_problems(res))
    return problems


def _global_stderr_max(outcomes):
    """Largest MC standard error among the reliable global estimates."""
    errors = []
    for res in (res for o in outcomes for res in o.result.results):
        errors.extend(est["mc_stderr"] for est in res.spearman.values())
        for tdc in res.pairwise_tdc.values():
            for level in tdc["levels"]:
                errors += [level["lower_stderr"], level["upper_stderr"]]
        for lam in res.lambda_k.values():
            errors.extend(se for se, ok in zip(lam.stderrs, lam.reliable) if ok)
        for row in res.scenario_table:
            if row["result"].reliable:
                errors.append(row["result"].mc_stderr)
    return max(errors)


def _quad_panels(pd, days, seed):
    records = pd.cli.generate_synthetic_records(
        days, seed, flavor="gaussian", hours=(QUAD_HOUR,)
    )
    return {QUAD_HOUR: pd.data_ingest.slice_hour(records, QUAD_HOUR)}


class GlobalQuad:
    """run_global on one quadrivariate hour: counting-bound."""

    span = "pipeline.analyze_hour"

    def __init__(self, pd, size, seed, work_dir):
        self.pd, self.size, self.seed = pd, size, seed

    def setup(self):
        self.panels = _quad_panels(self.pd, self.size["days"], self.seed)

    def run(self, jobs, repeat):
        config = self.pd.pipeline.AnalysisConfig(
            hours=(QUAD_HOUR,), seed=self.seed, jobs=jobs, **self.size["mc"]
        )
        start = time.perf_counter()
        result = self.pd.pipeline.run_global(self.panels, config)
        study_s = time.perf_counter() - start
        return Outcome(result, len(config.hours), len(result.failures), study_s)

    def check(self, outcome):
        return _global_problems(outcome.result, self.size["days"])

    def stderr_max(self, outcomes):
        return _global_stderr_max(outcomes)


class RollingQuad:
    """run_rolling on one quadrivariate hour: many small marginal and vine fits.

    Repeat ``r`` analyses the same data with ``AnalysisConfig.seed`` set
    to seed + r, so the spread of one window's estimate across repeats is
    Monte Carlo error alone; see :meth:`stderr_max`.
    """

    span = "pipeline.rolling_hour"

    def __init__(self, pd, size, seed, work_dir):
        self.pd, self.size, self.seed = pd, size, seed

    def setup(self):
        self.panels = _quad_panels(self.pd, self.size["rolling_days"], self.seed)

    def run(self, jobs, repeat):
        config = self.pd.pipeline.AnalysisConfig(
            hours=(QUAD_HOUR,),
            window_days=self.size["window_days"],
            step_days=1,
            seed=self.seed + repeat,
            jobs=jobs,
            **self.size["mc"],
        )
        start = time.perf_counter()
        result = self.pd.pipeline.run_rolling(self.panels, config)
        study_s = time.perf_counter() - start
        attempted = sum(len(roll.window_end_dates) for roll in result)
        failed = sum(len(roll.skipped) for roll in result)
        return Outcome(result, attempted, failed, study_s)

    def check(self, outcome):
        problems = []
        for roll in outcome.result:
            for pair, series in roll.series.items():
                values = [v for v in series if v is not None]
                if not all(
                    math.isfinite(v) and -1.0 <= v <= 1.0
                    for v in values + [roll.reference[pair]]
                ):
                    problems.append(f"hour {roll.hour} {pair}: correlation outside [-1, 1]")
                elif pair in TREE1_RHO:
                    problem = _spearman_problem(
                        pair, statistics.fmean(values), roll.window_days
                    )
                    if problem:
                        problems.append(f"hour {roll.hour} rolling mean {problem}")
        return problems

    def stderr_max(self, outcomes):
        """MC standard error of one window's estimate, RMS over pairs and windows.

        The rolling result reports no standard errors.  The repeats share
        the data and differ only in their MC seeds, so a window's variance
        across repeats is the MC variance of its estimate.  Needs two
        repeats.  Pooling over pairs keeps the figure steady from seed to
        seed, which a per-pair maximum over a few repeats is not.
        """
        np = self.pd.np
        variances = []
        for k, roll in enumerate(outcomes[0].result):
            for pair in roll.series:
                # rows: repeats; columns: windows (a skipped window is NaN)
                table = np.array(
                    [o.result[k].series[pair] for o in outcomes], dtype=float
                )
                table = table[:, ~np.isnan(table).any(axis=0)]
                variances.append(table.var(axis=0, ddof=1).mean())
        return math.sqrt(statistics.fmean(variances))


class BatchTri:
    """CSV ingest, run_global over the 15 trivariate hours in the pool, report bundle."""

    span = "pipeline.analyze_hour"

    def __init__(self, pd, size, seed, work_dir):
        self.pd, self.size, self.seed = pd, size, seed
        self.work_dir = work_dir
        self.csv_path = work_dir / "hourly.csv"
        self.bundles = 0
        self.first_bundle = {}

    def setup(self):
        records = self.pd.cli.generate_synthetic_records(
            self.size["days"], self.seed, flavor="gaussian"
        )
        self.csv_path.write_text(self.pd.cli.records_to_csv_text(records))

    def _bundle_dir(self):
        self.bundles += 1
        return self.work_dir / f"bundle-{self.bundles}"

    def run(self, jobs, repeat):
        di, pipeline = self.pd.data_ingest, self.pd.pipeline
        records = di.fix_clock_changes(di.load_csv(self.csv_path))
        panels = {h: di.slice_hour(records, h) for h in TRI_HOURS}
        config = pipeline.AnalysisConfig(
            hours=TRI_HOURS, seed=self.seed, jobs=jobs, **self.size["mc"]
        )
        start = time.perf_counter()
        result = pipeline.run_global(panels, config)
        study_s = time.perf_counter() - start
        bundle = self._bundle_dir()
        pipeline.write_report_bundle(str(bundle), config, result)
        return Outcome(
            result, len(config.hours), len(result.failures), study_s, config, bundle
        )

    def check(self, outcome):
        problems = _global_problems(outcome.result, self.size["days"])
        again = self._bundle_dir()
        self.pd.pipeline.write_report_bundle(str(again), outcome.config, outcome.result)
        first = _read_bundle(outcome.bundle)
        if _read_bundle(again) != first:
            problems.append("writing the same bundle twice gave different bytes")
        earlier = self.first_bundle.setdefault(outcome.config.jobs, first)
        if earlier != first:
            problems.append("repeating the run with the same seed changed the bundle")
        return problems

    def stderr_max(self, outcomes):
        return _global_stderr_max(outcomes)


def _read_bundle(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


WORKLOADS = {
    "global_quad": GlobalQuad,
    "rolling_quad": RollingQuad,
    "batch_tri": BatchTri,
}


# ---------------------------------------------------------------------------
# traced layers
# ---------------------------------------------------------------------------


def _count_calls(key):
    def count(counts, arguments, result):
        counts[key] += 1

    return count


def _count_rows(argument):
    def count(counts, arguments, result):
        counts["vine.simulate_rows"] += int(arguments[argument])

    return count


def _count_dominance(argument, np):
    def count(counts, arguments, result):
        shape = np.shape(arguments[argument])
        counts["counting.calls"] += 1
        counts["counting.rows"] += shape[0]
        if len(shape) > 1 and shape[1] >= 3:
            counts["counting.rows_ge3"] += shape[0]

    return count


def _count_marginal_fit(counts, arguments, result):
    counts["marginals.fits"] += 1
    counts["marginals.iters"] += result.n_iter
    counts["marginals.nonconverged"] += not result.converged


def _count_records(counts, arguments, result):
    counts["data_ingest.rows"] += len(result)


def _count_bundle(counts, arguments, result):
    counts["pipeline.bundle_bytes"] += sum(os.path.getsize(p) for p in result.values())


def traced_layers(pd):
    """(module, attribute, span, counter) for every layer boundary.

    Each attribute is the one the caller resolves at call time, e.g.
    pipeline imports fit_ar_garch by name and taildep imports the
    dominance counters by name.
    """
    di, pipeline, taildep, vine = pd.data_ingest, pd.pipeline, pd.taildep, pd.vine
    return (
        (di, "load_csv", "data_ingest.load_csv", _count_records),
        (di, "fix_clock_changes", "data_ingest.fix", None),
        (di, "slice_hour", "data_ingest.slice", None),
        (pipeline, "analyze_hour", "pipeline.analyze_hour", None),
        (pipeline, "rolling_hour", "pipeline.rolling_hour", None),
        (pipeline, "fit_ar_garch", "marginals.fit", _count_marginal_fit),
        (pipeline, "write_report_bundle", "pipeline.write", _count_bundle),
        (vine, "fit_auto", "vine.fit", _count_calls("vine.fits")),
        (vine, "select_family_aic", "bicop.select", _count_calls("bicop.selects")),
        (vine, "simulate", "vine.simulate", _count_rows("n")),
        (vine, "induced_spearman", "vine.spearman", None),
        # draws its own n_mc rows without calling vine.simulate
        (vine, "induced_pair_tdc", "vine.tdc", _count_rows("n_mc")),
        (taildep, "lambda_kendall", "taildep.lambda", None),
        (taildep, "scenario_tail_coefficient", "taildep.scenario", None),
        (taildep, "strict_dominance_counts", "counting", _count_dominance("points", pd.np)),
        (taildep, "weak_dominance_counts", "counting", _count_dominance("points", pd.np)),
        (taildep, "cross_weak_counts", "counting", _count_dominance("queries", pd.np)),
    )


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def _timed(workload, jobs, repeat):
    start = time.perf_counter()
    outcome = workload.run(jobs, repeat)
    return time.perf_counter() - start, outcome


def measure_end_to_end(workload, seconds):
    """Untraced repeats, at least two, until the next would overrun ``seconds``."""
    walls, outcomes = [], []
    start = time.perf_counter()
    while len(walls) < 2 or time.perf_counter() - start + walls[-1] <= seconds:
        wall, outcome = _timed(workload, JOBS, len(walls))
        outcome.problems = workload.check(outcome)
        walls.append(wall)
        outcomes.append(outcome)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": rss_kb / 1024.0,
        "completed_frac": 1.0 - failed / attempted,
        "mc_stderr_max": workload.stderr_max(outcomes),
    }
    return metrics, outcomes, {"wall_s": walls}


def measure_layers(workload, pd):
    """One untraced run, then one traced serial run; per-layer metrics."""
    untraced_wall, untraced = _timed(workload, JOBS, 0)
    recorder = Recorder()
    with patched(recorder, traced_layers(pd)):
        traced_wall, traced = _timed(workload, 1, 0)
    # checks run outside the patch: batch_tri's check writes a bundle again
    for outcome in (untraced, traced):
        outcome.problems = workload.check(outcome)
    self_times = recorder.self_times()
    metrics = {m: self_times.get(span, 0.0) for m, span in SELF_TIME_METRICS.items()}
    metrics.update({m: recorder.counts[m] for m in COUNT_METRICS})
    hour_s = recorder.total_times().get(workload.span, 0.0)
    metrics["pipeline.pool_efficiency"] = hour_s / (JOBS * untraced.study_s)
    metrics["trace_overhead"] = traced_wall / untraced_wall - 1.0
    samples = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "untraced_study_s": untraced.study_s,
        "spans": len(recorder.spans),
    }
    return metrics, [untraced, traced], samples


def machine_info(pd):
    cpu = platform.processor() or "unknown"
    with suppress(OSError):
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    blas = pd.np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": pd.np.__version__,
        "scipy": pd.scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="paper", choices=sorted(SIZES))
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    pd = import_program()
    import_s = time.perf_counter() - _START
    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](pd, SIZES[args.size], args.seed, work_dir)
        setup_s = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - start)
        if args.trace:
            metrics, outcomes, samples = measure_layers(workload, pd)
            units = PER_LAYER_UNITS
        else:
            metrics, outcomes, samples = measure_end_to_end(workload, args.seconds)
            metrics["setup_s"] = import_s + statistics.median(setup_s)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with suppress(OSError):
            WORK.rmdir()

    problems = [p for o in outcomes for p in o.problems]
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    samples.update(import_s=import_s, setup_s=setup_s, runs=len(outcomes))
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "jobs": JOBS,
        "samples": samples,
        "machine": machine_info(pd),
    }
    print(json.dumps({"info": info}))
    report = {
        "correct": not problems,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(report))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
