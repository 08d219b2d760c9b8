"""Self-tests of the benchmark's tracer and checks, on small workloads.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root.
"""

from __future__ import annotations

import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench import run as bench
from perfbench import tracer as tracing
from perfbench.workloads import (
    CheckFailed,
    ServingConfig,
    ServingWorkload,
)

ROOT = Path(__file__).resolve().parent.parent

SMALL_DISAGG = ServingConfig(
    num_requests=240,
    long_requests=40,
    generation_len=16,
    num_shards=4,
    prefix_cache=True,
    disaggregated=True,
)
SMALL_OVERLAP = ServingConfig(
    num_requests=300,
    generation_len=32,
    num_shards=4,
    overlap=True,
)


@pytest.fixture(scope="module")
def disagg():
    return ServingWorkload(SMALL_DISAGG, seed=3)


def traced_pass(workload):
    """Set up and run one streaming pass under the tracer."""
    tracer = tracing.Tracer()
    with tracer:
        start = time.perf_counter()
        system, _ = workload.setup()
        summary, result = workload.run_pass(system)
        wall = time.perf_counter() - start
    return tracer, summary, result, wall


def test_every_entry_point_resolves():
    points = tracing.entry_points()
    wrapped_layers = {tracing.LAYER_NAMES[layer] for layer, *_ in points}
    assert wrapped_layers == set(tracing.LAYER_NAMES)
    for _, owner, name, _, _ in points:
        assert callable(owner.__dict__[name])


def test_renamed_entry_point_fails_loudly(monkeypatch):
    layers = list(tracing.LAYERS)
    layers[0] = ("serving.arrivals", [
        ("repro.serving.arrivals:ArrivalProcess", "no_such_method", None),
    ])
    monkeypatch.setattr(tracing, "LAYERS", layers)
    with pytest.raises(AttributeError):
        tracing.entry_points()


def test_uninstall_restores_the_program():
    before = [owner.__dict__[name] for _, owner, name, _, _ in tracing.entry_points()]
    with tracing.Tracer():
        pass
    after = [owner.__dict__[name] for _, owner, name, _, _ in tracing.entry_points()]
    assert before == after


def test_traced_run_is_bit_identical(disagg):
    reference, sim = disagg.verify()
    tracer, summary, _, _ = traced_pass(disagg)
    assert summary == reference
    with tracing.Tracer():
        traced_reference, traced_sim = disagg.verify()
    assert traced_reference == reference
    assert traced_sim == sim
    assert tracer.retried, "the rolling restart should force retries"


@pytest.mark.parametrize("config", [SMALL_DISAGG, SMALL_OVERLAP],
                         ids=["disagg", "overlap"])
def test_spans_nest_inside_the_traced_wall_time(config):
    workload = ServingWorkload(config, seed=3)
    tracer = tracing.Tracer()
    with tracer:
        start = time.perf_counter()
        system, _ = workload.setup()
        workload.run_pass(system)
        end = time.perf_counter()
    spans = tracer.spans()
    parent = spans["parent"]
    nested = parent >= 0
    # Every span closed, and lies inside its parent (or the wall window).
    assert (spans["end"] >= spans["start"]).all()
    assert (spans["start"][~nested] >= start).all()
    assert (spans["end"][~nested] <= end).all()
    assert (spans["start"][nested] >= spans["start"][parent[nested]]).all()
    assert (spans["end"][nested] <= spans["end"][parent[nested]]).all()
    # Top-level spans never overlap, so no time is counted twice.
    top = np.argsort(spans["start"][~nested], kind="stable")
    assert (spans["start"][~nested][top][1:] >= spans["end"][~nested][top][:-1]).all()
    # Children never cover more than their parent: self times are >= 0.
    duration = spans["end"] - spans["start"]
    child = np.zeros(len(duration))
    np.add.at(child, parent[nested], duration[nested])
    assert (duration - child >= -1e-9).all()
    split = tracing.derive(spans, end - start)
    assert (split["self_s"] >= -1e-9).all()
    assert split["unattributed_s"] >= 0
    total = split["self_s"].sum() + split["unattributed_s"]
    assert abs(total - (end - start)) <= 0.01 * (end - start)


def test_zero_call_layers_on_a_plain_chat_stream():
    workload = ServingWorkload(SMALL_OVERLAP, seed=5)
    tracer, _, _, wall = traced_pass(workload)
    calls = dict(zip(tracing.LAYER_NAMES, tracing.derive(tracer.spans(), wall)["calls"]))
    for layer in ("runtime.block_store", "obs", "schedules", "runtime.simulator"):
        assert calls[layer] == 0, layer
    for layer in ("serving.arrivals", "serving.router", "serving.scheduler",
                  "serving.step_pricing", "serving.engine", "core.optimizer"):
        assert calls[layer] > 0, layer


def test_traced_run_reports_every_per_layer_metric(disagg):
    run = bench.Run(disagg)
    metrics, samples, spans = bench.measure_layers(run, seconds=0.01)
    assert run.failed == 0 and not run.errors
    assert set(metrics) == set(bench.per_layer_units())
    assert metrics["trace.overhead_ratio"] > 0
    assert metrics["obs.calls"] > 0 and metrics["serving.faults.calls"] > 0
    assert len(spans["start"]) == samples["spans_per_pass"]


def test_a_differing_pass_is_a_failed_check(disagg):
    reference, _ = disagg.verify()
    moved = (
        dataclasses.replace(reference[0], makespan=reference[0].makespan + 1.0),
        *reference[1:],
    )
    with pytest.raises(CheckFailed):
        disagg.check_pass(moved, reference)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units()
    from perfbench.workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_tail_percentile_keeps_ten_samples_beyond():
    value, pct = bench.tail_percentile([float(i) for i in range(40)])
    assert value == 29.0 and pct == 75.0
