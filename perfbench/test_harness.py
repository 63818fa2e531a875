"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/test_harness.py

Runs every workload untraced and traced on a few subjects, and checks that
the result line is well formed, that every operation passed its checks and
that the metric names and units are the ones BENCHMARK.json declares.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import run
from hostspeed import HostSpeed
from tracer import Tracer
from workloads import Scale

TINY = Scale(subjects=5, probes=4, synth=5, setup_reps=1, eval_subjects=3, eval_rotations=(1, 2))
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_clean_at_tiny_size(workload, trace, capsys):
    result = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                       "--trace", str(trace)], scale=TINY)
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last) == result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_tracer_records_nested_spans_and_restores_functions():
    import retina_id.harris as harris
    original = harris.detect_corners
    tracer = Tracer()
    m = np.full((40, 40), 10.0)
    m[10:30, 10:30] = 200.0
    with tracer.installed():
        assert harris.detect_corners is not original
        with tracer.operation("cli.detect"):
            corners = harris.detect_corners(m)
    assert harris.detect_corners is original
    assert len(corners) == 4
    names = [s[0] for s in tracer.spans]
    assert names[:2] == ["cli.detect", "harris.detect_corners"]
    assert {"harris.gradients", "harris.local_maxima", "trace.count"} <= set(names)
    root = tracer.spans[0]
    total = sum(tracer.self_times())
    assert total == pytest.approx(root[2] - root[1], rel=1e-9)
    assert tracer.sums["harris.corners"] == 4
    assert tracer.sums["harris.candidates"] >= 4


def test_host_speed_samples_inside_a_call_and_leaves_out_its_own_time():
    speed = HostSpeed(interval_s=0.02)
    with speed.sampling():
        _, seconds, ref = speed.timed(lambda: time.sleep(0.2))
    assert len(speed.samples) >= 5  # samples during the 200 ms call, plus one after it
    assert seconds == pytest.approx(0.2 - speed.handler_s + speed.samples[-1], abs=0.02)
    assert ref > 0
    _, _, ref = speed.timed(lambda: None)  # no sampling: the one sample after the call
    assert ref == speed.samples[-1]
