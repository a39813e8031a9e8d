"""Smoke test of the benchmark harness on shortened scenes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every workload emits exactly the metrics BENCHMARK.json names,
with their units, that traced spans nest and have non-negative self times,
that repeated and traced passes write identical output bytes, and how the
host-speed factor picks its samples.
"""

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import run  # noqa: E402


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_metrics_emitted(workload, trace, tmp_path):
    metrics, verdict, report, tracer = harness.run(
        workload, seed=0, seconds=0.0, trace=trace, workdir=str(tmp_path), tiny=True
    )
    units = harness.LAYER_UNITS if trace else harness.E2E_UNITS
    assert units == _declared("per_layer" if trace else "end_to_end")
    assert set(metrics) == set(units)
    assert all(isinstance(v, (int, float)) for v in metrics.values())
    assert verdict["attempted"] >= 1
    assert 0 <= verdict["failed"] <= verdict["attempted"]
    assert report["checks"]["repeat_bytes_equal"] is (True if report["passes"] >= 2 else None)
    if not trace:
        assert all(math.isfinite(v) and v > 0 for v in metrics.values()), metrics
        return
    assert report["checks"]["traced_bytes_equal"] and report["checks"]["spans_nest"]
    assert tracer.names, "traced pass recorded no spans"
    assert min(tracer.self_times()) >= -1e-9


@pytest.mark.parametrize("workload", ["ambiguity", "long_orbit"])
def test_calibration_bytes_repeat(workload, tmp_path):
    work = harness.WORKLOADS[workload](workload)
    inputs, _ = harness.set_up_inputs(harness.scene_spec(workload, 1, tiny=True), str(tmp_path))
    out = harness.Outcome()
    work.one_pass(inputs, out, str(tmp_path))
    work.one_pass(inputs, out, str(tmp_path))
    assert out.outputs[0] and out.outputs[0] == out.outputs[1]


def test_entry_point_knows_every_workload():
    assert set(run.WORKLOAD_NAMES) == set(harness.WORKLOADS)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {w["name"] for w in json.load(fh)["workloads"]}
    assert declared <= set(harness.WORKLOADS)


def test_host_speed_factor():
    with harness.hostspeed.Sampler() as speed:
        pass
    assert len(speed.times) >= 2 and min(speed.values) > 0
    nominal = harness.hostspeed.REF_NOMINAL_S
    speed.times, speed.values = [0.0, 0.7, 10.0], [nominal, 2 * nominal, 4 * nominal]
    # [0.2, 0.3] sees the samples at 0 and 0.7; [3, 4] sees none and takes the nearest
    assert speed.factor(0.2, 0.3) == pytest.approx(2 / 3)
    assert speed.factor(3.0, 4.0) == pytest.approx(0.5)
    assert speed.scaled(9.0, 10.0) == pytest.approx(0.25)


def test_trimmed_mean_drops_stalled_passes():
    assert harness._trimmed_mean([1.0, 3.0]) == 2.0
    assert harness._trimmed_mean([1.0, 2.0, 100.0]) == 2.0
    assert harness._trimmed_mean([5.0] * 18 + [0.0, 50.0]) == 5.0


def test_self_time_and_nesting():
    tracer = harness.tracing.Tracer()
    outer = tracer.open("a")
    inner = tracer.open("b")
    tracer.close(inner)
    tracer.close(outer)
    assert tracer.parent == [-1, 0]
    own = tracer.self_times()
    assert own[0] == pytest.approx(tracer.durations()[0] - tracer.durations()[1])
    assert tracer.nesting_errors() == []
    tracer.end[inner] = tracer.end[outer] + 1.0
    assert tracer.nesting_errors()
