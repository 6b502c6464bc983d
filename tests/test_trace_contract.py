"""The benchmark's traced run still finds every layer it wraps.

``perfbench/run.py --trace 1`` wraps public functions by (module,
attribute) and binds its counters to parameter names, so a rename here
breaks it.  This runs one small quadrivariate hour under the benchmark's
own recorder and layer table.
"""

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
    # one count for lambda_K (both sides) and one per scenario
    assert recorder.counts["counting.calls"] == 1 + len(result.scenario_table)
