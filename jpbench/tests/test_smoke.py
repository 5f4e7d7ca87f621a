"""The benchmark's own tests, over its reduced-size smoke mode.

Run from the repository root::

    python3 -m pytest jpbench/tests -q

They check that every workload runs to its end with its output checks
passing, that the checks reject broken outputs, and that the span
arithmetic is right.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import scenarios  # noqa: E402
from tracer import Tracer, layer_totals, self_times, unaccounted_fraction  # noqa: E402

WORKLOADS = sorted(scenarios.WORKLOADS)


def _bench(workload, trace, cwd=ROOT):
    completed = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170,
    )
    return completed


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct(workload):
    completed = _bench(workload, trace=0)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"], completed.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(run.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name]
        assert metric["value"] > 0, name


def test_traced_smoke_run_reports_every_layer():
    completed = _bench("stream-resume", trace=1)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"], completed.stderr
    assert sorted(result["metrics"]) == sorted(run.PER_LAYER)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["stream.checkpoints"] > 0
    assert metrics["stream.polls"] > 0
    assert metrics["stream.cold_starts"] == 0
    assert metrics["stream.finalize_replays"] == 0
    assert 0.0 <= metrics["bench.unaccounted_fraction"] < 1.0


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    assert {m["name"]: m["unit"] for m in benchmark["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in benchmark["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in benchmark["workloads"]) == WORKLOADS


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "jpbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    completed = _bench("pmd-etrace-lossless", trace=0, cwd=str(tmp_path))
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


# ------------------------------------------------------------ the checks
@pytest.fixture(scope="module")
def lossy(tmp_path_factory):
    spec = scenarios.workload("sunflow-lossy", smoke=True)
    state = scenarios.set_up(spec, 3, str(tmp_path_factory.mktemp("lossy")))
    return state["sunflow"]


def test_encoder_check_catches_a_dropped_packet(lossy):
    assert scenarios.check_encoder_balance(lossy["run"], lossy["trace"]) == []
    core = next(core for core in lossy["trace"].cores if core.packets)
    dropped = core.packets.pop()
    try:
        assert scenarios.check_encoder_balance(lossy["run"], lossy["trace"])
    finally:
        core.packets.append(dropped)


def test_flow_check_catches_a_wrong_entry(lossy):
    truths = {thread.tid: thread.truth for thread in lossy["run"].threads}
    flows = {
        tid: {"nodes": list(truth), "provenance": ["decoded"] * len(truth),
              "first_segment": list(truth[:50])}
        for tid, truth in truths.items()
    }
    assert scenarios.check_flows("t", truths, flows, lossy=False) == []
    assert scenarios.check_flows("t", truths, flows, lossy=True) == []
    tid = sorted(flows)[0]
    flows[tid]["nodes"][10] = ("Nowhere", 0)
    flows[tid]["first_segment"][10] = ("Nowhere", 0)
    assert scenarios.check_flows("t", truths, flows, lossy=False)
    assert scenarios.check_flows("t", truths, flows, lossy=True)


def test_salvage_check_catches_dropped_bytes():
    clean = {"file_size": 100, "bytes_salvaged": 100, "bytes_dropped": 0,
             "bytes_converted_to_loss": 0, "events": 0}
    assert scenarios.check_salvage("t", clean) == []
    assert scenarios.check_salvage("t", dict(clean, bytes_salvaged=90, bytes_dropped=10))


# ---------------------------------------------------------------- spans
def test_self_time_subtracts_children_once():
    spans = [
        {"id": 0, "name": "bench.timed", "start": 0.0, "end": 10.0, "parent": None, "counts": {}},
        {"id": 1, "name": "a", "start": 1.0, "end": 4.0, "parent": 0, "counts": {"n": 2}},
        {"id": 2, "name": "b", "start": 3.0, "end": 6.0, "parent": 0, "counts": {"n": 1}},
        {"id": 3, "name": "c", "start": 2.0, "end": 3.0, "parent": 1, "counts": {}},
    ]
    own = self_times(spans)
    assert own == {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0}
    times, counts = layer_totals(spans)
    assert counts == {"n": 3}
    assert unaccounted_fraction(spans, "bench.timed") == pytest.approx(0.5)


def test_wrap_records_and_restores():
    class Target:
        def work(self, value):
            return value * 2

        @classmethod
        def make(cls):
            return cls()

    tracer = Tracer()
    original = Target.__dict__["work"]
    tracer.wrap(Target, "work", "layer.work",
                lambda counts, args, result: counts.update(result=result))
    tracer.wrap(Target, "make", "layer.make")
    with tracer.span("outer"):
        assert Target.make().work(21) == 42
    tracer.unwrap_all()
    assert Target.__dict__["work"] is original
    names = [(span["name"], span["parent"]) for span in tracer.spans]
    assert names == [("outer", None), ("layer.make", 0), ("layer.work", 0)]
    assert tracer.spans[2]["counts"] == {"result": 42}
