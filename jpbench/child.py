"""One set-up or one timed operation of a workload, in a fresh process.

Usage: ``python3 jpbench/child.py <request.json>``; ``jpbench/run.py``
writes the request.  A set-up request builds the workload's archives and
keeps its ground truth (pickle).  An operation request names the
archives, whether to trace, and where to write the result (JSON) and the
flows (pickle) for the parent to check.  A fresh process each time keeps
the set-up's memory (simulator, ground truth) out of the operation's
peak resident size, and keeps one step's heap growth from slowing the
next: repeated in one process, set-ups and analyses slow down as the
heap grows.

Timed (``trace_to_profile_s``): ``JPortal`` construction, the analysis
(batch read, or every poll round with its checkpoints, the restart and
``finalize_all``) and building the ``ControlFlowProfile``.  Untimed: the
benchmark's writer, its bookkeeping and its checks.
"""

from __future__ import annotations

import json
import os
import pickle
import resource
import sys
import time
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))


def _flow_record(flow) -> dict:
    nodes = flow.flow.nodes()
    return {
        "nodes": nodes,
        "provenance": [tag for _entry, tag in flow.flow.entries],
        "first_segment": list(flow.segments[0]) if flow.segments else [],
    }


def _salvage_record(stats) -> dict:
    return {
        "file_size": stats.file_size,
        "bytes_salvaged": stats.bytes_salvaged,
        "bytes_dropped": stats.bytes_dropped,
        "bytes_converted_to_loss": stats.bytes_converted_to_loss,
        "events": len(stats.events),
    }


class Clock:
    """Sums the timed sections; marks each as a ``bench.timed`` span."""

    def __init__(self, tracer=None):
        self.seconds = 0.0
        self.tracer = tracer

    @contextmanager
    def section(self):
        started = time.perf_counter()
        if self.tracer is None:
            yield
        else:
            with self.tracer.span("bench.timed"):
                yield
        self.seconds += time.perf_counter() - started


def instrument(tracer) -> None:
    """Wrap the program's entry points the per-layer metrics time."""
    from repro.analysis import lint
    from repro.core import JPortal
    from repro.core.reconstruct import Projector
    from repro.core.recovery import RecoveryEngine
    from repro.profiling.profiles import ControlFlowProfile
    from repro.pt import archive
    from repro.stream import StreamDecoder, StreamSupervisor
    from repro.tracesource.engine import BatchEventDecoder

    def entries(counts, _args, columns):
        counts["tracesource.entries"] = columns.step_count()

    def segments(counts, _args, _result):
        counts["core.reconstruct.segments"] = 1

    def recovery(counts, args, result):
        counts["core.recovery.holes"] = len(args[2])
        counts["core.recovery.filled_from_cs"] = result.stats.filled_from_cs
        counts["core.recovery.candidates_tested"] = result.stats.candidates_tested

    def checkpoint(counts, _args, _size):
        counts["stream.checkpoints"] = 1

    tracer.wrap(JPortal, "__init__", "analysis.init")
    tracer.wrap(JPortal, "analysis_report_for", "analysis.init")
    tracer.wrap(lint, "lint_database", "analysis.lint")
    tracer.wrap(archive, "read_archive", "pt.archive_read")
    tracer.wrap(BatchEventDecoder, "feed", "tracesource.decode")
    tracer.wrap(BatchEventDecoder, "finish", "tracesource.decode", entries)
    tracer.wrap(Projector, "project_arrays", "core.reconstruct", segments)
    tracer.wrap(RecoveryEngine, "recover", "core.recovery", recovery)
    tracer.wrap(ControlFlowProfile, "from_paths", "profiling.profile")
    tracer.wrap(StreamDecoder, "poll", "stream.poll")
    tracer.wrap(StreamDecoder, "write_checkpoint", "stream.checkpoint", checkpoint)
    tracer.wrap(StreamDecoder, "restore", "stream.restore")
    tracer.wrap(StreamSupervisor, "finalize_all", "stream.finalize")


def _jportal(program, frontend):
    from repro.core import JPortal
    from repro.core.recovery import RecoveryConfig
    from repro.workloads import default_config

    cost = default_config().compiled_step_cost
    return JPortal(
        program,
        recovery=RecoveryConfig(cost_per_instruction=cost),
        analysis_frontend=frontend,
    )


def _profile(program, results):
    from repro.profiling.profiles import ControlFlowProfile

    return ControlFlowProfile.from_paths(
        program,
        [
            results.flows[tid].flow.nodes()
            for tid in sorted(results.flows)
        ],
    )


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def batch_op(request, programs, clock) -> dict:
    out = {"tenants": {}, "attempted": 0, "failed": 0}
    for tenant in request["tenants"]:
        name = tenant["name"]
        program = programs[name]
        with clock.section():
            jportal = _jportal(program, tenant["frontend"])
            result = jportal.analyze_archive(tenant["path"])
            profile = _profile(program, result)
        out["attempted"] += 1
        out["tenants"][name] = (result, profile)
    return out


def _records(path):
    from repro.pt.archive import scan_record_spans

    with open(path, "rb") as handle:
        data = handle.read()
    spans = scan_record_spans(data)
    if not spans or spans[-1].end != len(data):
        raise ValueError("%s: records do not tile the archive" % path)
    return data[: spans[0].start], [data[s.start:s.end] for s in spans]


def stream_op(request, programs, clock) -> dict:
    """Grow both archives record by record under a checkpointing
    supervisor, drop it at the midpoint, resume, and finalize."""
    import shutil

    from repro.stream import ResilienceConfig, StreamSupervisor

    tenants = request["tenants"]
    per_poll = request["records_per_poll"]
    workers = request["workers"]
    sources, targets, cursors, appended = {}, {}, {}, {}
    for tenant in tenants:
        name = tenant["name"]
        sources[name] = _records(tenant["path"])
        target = os.path.join(request["workdir"], name + ".growing.rpt2")
        for stale in (target, target + ".jpsc"):
            if os.path.exists(stale):
                os.remove(stale)
        shutil.copyfile(tenant["path"] + ".meta", target + ".meta")
        targets[name] = target
        cursors[name] = 0
        appended[name] = []
    half = {name: (len(sources[name][1]) + 1) // 2 for name in sources}
    handles = {}
    for name, target in targets.items():
        handles[name] = open(target, "ab")
        handles[name].write(sources[name][0])
        handles[name].flush()

    config = ResilienceConfig(checkpoint=True)
    stats = {
        "polls": 0,
        "poll_errors": 0,
        "lags": [],
        "lag_segments_max": 0,
        "checkpoint_writes": 0,
        "checkpoint_failures": 0,
        "checkpoint_bytes_max": 0,
        "cold_starts": 0,
        "finalize_replays": 0,
    }

    def start(resume):
        supervisor = StreamSupervisor(max_workers=workers, resilience=config)
        for tenant in tenants:
            supervisor.add_tenant(
                tenant["name"], targets[tenant["name"]],
                _jportal(programs[tenant["name"]], tenant["frontend"]),
                resume=resume,
            )
        return supervisor

    def retire(supervisor):
        metrics = supervisor.metrics
        stats["checkpoint_writes"] += metrics.counter("stream.checkpoint.writes")
        stats["checkpoint_failures"] += metrics.counter("stream.checkpoint.store_failed")
        for index in range(len(tenants)):
            stats["checkpoint_bytes_max"] = max(
                stats["checkpoint_bytes_max"],
                int(metrics.maximum("stream.checkpoint.bytes", tid=index)),
            )
        stats["cold_starts"] += sum(
            metrics.counter("stream.checkpoint." + kind)
            for kind in ("missing", "corrupt_checkpoint", "version_skew", "stale_checkpoint")
        )
        stats["finalize_replays"] += metrics.counter("stream.finalize_replays")

    with clock.section():
        supervisor = start(resume=False)
    resumed = False
    try:
        while any(cursors[n] < len(sources[n][1]) for n in sources):
            for name in sorted(sources):
                records = sources[name][1]
                for record in records[cursors[name]:cursors[name] + per_poll]:
                    handles[name].write(record)
                    handles[name].flush()
                    appended[name].append(time.perf_counter())
                cursors[name] = min(cursors[name] + per_poll, len(records))
            with clock.section():
                deltas = supervisor.poll_all()
            done = time.perf_counter()
            for name, delta in deltas.items():
                stats["polls"] += 1
                if delta.error is not None:
                    stats["poll_errors"] += 1
                stats["lag_segments_max"] = max(stats["lag_segments_max"], delta.lag_segments)
                consumed, appended[name] = (
                    appended[name][: delta.records], appended[name][delta.records:]
                )
                stats["lags"].extend(done - at for at in consumed)
            if not resumed and all(cursors[n] >= half[n] for n in sources):
                dropped = supervisor
                with clock.section():
                    dropped.close()
                    supervisor = start(resume=True)
                retire(dropped)
                resumed = True
        with clock.section():
            results = supervisor.finalize_all()
            profiles = {
                name: _profile(programs[name], result)
                for name, result in results.items()
                if hasattr(result, "flows")
            }
            supervisor.close()
    finally:
        for handle in handles.values():
            handle.close()
        supervisor.close()
    retire(supervisor)
    failures = [name for name, result in results.items() if not hasattr(result, "flows")]
    stats["attempted"] = (
        stats["polls"] + stats["checkpoint_writes"] + stats["checkpoint_failures"]
        + 2 * len(tenants)  # restores and finalizes
    )
    stats["failed"] = (
        stats["poll_errors"] + stats["checkpoint_failures"] + stats["cold_starts"]
        + len(failures)
    )
    stats["tenants"] = {name: (results[name], profiles[name]) for name in profiles}
    stats["failures"] = failures
    return stats


def main(argv) -> int:
    with open(argv[1], "r", encoding="utf-8") as handle:
        request = json.load(handle)
    sys.path.insert(0, request["src"])
    sys.path.insert(0, HERE)
    if request["kind"] == "prepare":
        import scenarios

        outcome = scenarios.prepare(request)
        with open(request["result_out"], "w", encoding="utf-8") as handle:
            json.dump(outcome, handle)
        return 0
    from repro.workloads import build_subject

    tracer = None
    if request["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        instrument(tracer)
    programs = {
        tenant["name"]: build_subject(tenant["subject"], size=tenant["size"]).program
        for tenant in request["tenants"]
    }
    clock = Clock(tracer)
    operation = stream_op if request["kind"] == "stream" else batch_op
    outcome = operation(request, programs, clock)
    peak = _peak_rss_mb()
    if tracer is not None:
        tracer.unwrap_all()
    flows, salvage, profiles = {}, {}, {}
    for name, (result, profile) in outcome.pop("tenants").items():
        flows[name] = {tid: _flow_record(flow) for tid, flow in result.flows.items()}
        salvage[name] = _salvage_record(result.salvage)
        profiles[name] = profile.total_instructions
    with open(request["flows_out"], "wb") as handle:
        pickle.dump(flows, handle, protocol=pickle.HIGHEST_PROTOCOL)
    outcome.update(
        seconds=clock.seconds,
        peak_rss_mb=peak,
        salvage=salvage,
        profile_instructions=profiles,
        spans=tracer.spans if tracer is not None else [],
    )
    with open(request["result_out"], "w", encoding="utf-8") as handle:
        json.dump(outcome, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
