"""The benchmark's traced run still finds every layer it wraps.

``perfbench/run.py --trace 1`` wraps public functions by (module,
attribute) and binds its counters to parameter names, so a rename here
breaks it.  One check reads the layer table without running anything, so
it also covers layers the traced hour never calls (``load_csv``,
``rolling_hour``, ``write_report_bundle``, ``cross_weak_counts``); the
other runs one small quadrivariate hour under the benchmark's own
recorder and layer table.
"""

import inspect
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from powerdep import cli, data_ingest, pipeline, taildep, vine

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run
        import spans
    finally:
        sys.path.remove(str(PERFBENCH))
    return run, spans


def test_traced_quad_hour_draws_once_and_counts_once_per_sample(perfbench):
    run, spans = perfbench
    records = cli.generate_synthetic_records(250, seed=7, hours=(12,))
    panel = data_ingest.slice_hour(records, 12)
    config = pipeline.AnalysisConfig(hours=(12,), seed=7, **run.SIZES["tiny"]["mc"])
    program = types.SimpleNamespace(
        np=np, data_ingest=data_ingest, pipeline=pipeline, taildep=taildep, vine=vine
    )
    recorder = spans.Recorder()
    with spans.patched(recorder, run.traced_layers(program)):
        result = pipeline.analyze_hour(panel, config)
    assert result.variable_names == ("price", "demand", "wind", "solar")
    names = [span[0] for span in recorder.spans]
    assert names.count("pipeline.analyze_hour") == 1
    assert names.count("vine.simulate") == 1
    # one count for lambda_K (both sides), and the default scenarios share
    # one lower-orthant count per column subset they need: {d}, {w},
    # {d,w}, {d,s}, {w,s} and {d,w,s}, so one 3-column count per sample
    assert len(result.scenario_table) == 5
    assert recorder.counts["counting.calls"] == 7
    assert (
        recorder.counts["counting.rows_ge3"]
        == config.n_mc_lambda + config.n_mc_scenario
    )


def test_every_traced_layer_resolves_and_binds_existing_parameters(perfbench):
    run, _ = perfbench
    program = types.SimpleNamespace(
        np=np, data_ingest=data_ingest, pipeline=pipeline, taildep=taildep, vine=vine
    )
    bound = {}
    for module, attribute, _, count in run.traced_layers(program):
        name = f"{module.__name__}.{attribute}"
        target = getattr(module, attribute, None)
        assert callable(target), name
        argument = count and inspect.getclosurevars(count).nonlocals.get("argument")
        if argument:
            assert argument in inspect.signature(target).parameters, name
            bound[name] = argument
    assert bound.items() >= {
        "powerdep.vine.simulate": "n",
        "powerdep.vine.induced_pair_tdc": "n_mc",
        "powerdep.taildep.strict_dominance_counts": "points",
        "powerdep.taildep.weak_dominance_counts": "points",
        "powerdep.taildep.cross_weak_counts": "queries",
    }.items()
