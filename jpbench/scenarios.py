"""Workload definitions, set-up and output checks of the benchmark.

Every check compares the program's output with something computed apart
from it: the simulator's ground-truth paths, an independent encoder pass
over the simulated hardware events, and the salvage byte accounting of an
undamaged archive.  Nothing is compared with a stored copy of an earlier
output.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from types import SimpleNamespace
from typing import Dict, List

from repro.core.metadata import collect_metadata
from repro.profiling.accuracy import ThreadAccuracy, thread_accuracy
from repro.pt.archive import write_archive
from repro.pt.buffer import RingBufferConfig
from repro.pt.encoder import PTEncoder
from repro.pt.perf import PTConfig, calibrate_drain_period, collect
from repro.workloads import build_subject, default_config

#: The "128 MB" buffer of the paper, in the simulator's scaled bytes.
BUFFER_128 = 2048
#: Packets per RPT2 segment record (the ``PTConfig`` default).
SEGMENT_PACKETS = 256
#: Loss the lossy buffer is calibrated to.
TARGET_LOSS = 0.25
#: Records each stream tenant's writer appends between two poll rounds.
RECORDS_PER_POLL = 2
#: Pool threads of the stream supervisor.
STREAM_WORKERS = 2
#: Set-ups made per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def _tenant(name, subject, size, frontend, lossy=False):
    return {
        "name": name,
        "subject": subject,
        "size": size,
        "frontend": frontend,
        "lossy": lossy,
    }


#: Full-size workloads.  ``kind`` selects the timed path: ``batch`` reads
#: each sealed archive with ``JPortal.analyze_archive``; ``stream`` grows
#: the archives record by record under a ``StreamSupervisor``.
WORKLOADS = {
    "sunflow-lossy": {
        "kind": "batch",
        "tenants": [_tenant("sunflow", "sunflow", 3, "pt", lossy=True)],
    },
    "pmd-etrace-lossless": {
        "kind": "batch",
        "tenants": [_tenant("pmd", "pmd", 40, "etrace")],
    },
    "stream-resume": {
        "kind": "stream",
        "tenants": [
            _tenant("luindex", "luindex", 20, "pt"),
            _tenant("h2", "h2", 50, "etrace"),
        ],
    },
}

#: Sizes of the reduced smoke mode (same paths, same checks).
SMOKE_SIZES = {"sunflow": 1, "pmd": 4, "luindex": 12, "h2": 30}


def workload(name: str, smoke: bool = False) -> dict:
    spec = WORKLOADS[name]
    tenants = [dict(tenant) for tenant in spec["tenants"]]
    if smoke:
        for tenant in tenants:
            tenant["size"] = SMOKE_SIZES[tenant["subject"]]
    return {"kind": spec["kind"], "tenants": tenants}


# ------------------------------------------------------------------ set-up
def set_up(spec: dict, seed: int, workdir: str, tracer=None) -> dict:
    """Build, simulate, calibrate, collect and archive every tenant.

    Returns per tenant the run (ground truth), the collected trace, the
    archive path, and the span times of each set-up step.
    """
    out = {}
    for tenant in spec["tenants"]:
        steps = {}

        def timed(step, call):
            started = time.perf_counter()
            if tracer is None:
                value = call()
            else:
                with tracer.span(step):
                    value = call()
            steps[step] = steps.get(step, 0.0) + time.perf_counter() - started
            return value

        subject = build_subject(tenant["subject"], size=tenant["size"])
        run = timed("jvm.simulate", lambda: subject.run(default_config(seed=seed)))
        if tenant["lossy"]:
            period = timed(
                "pt.calibrate",
                lambda: calibrate_drain_period(run, BUFFER_128, TARGET_LOSS),
            )
            buffer = RingBufferConfig(capacity_bytes=BUFFER_128, drain_period=period)
        else:
            buffer = RingBufferConfig(capacity_bytes=10**9, drain_bandwidth=1e9)
        config = PTConfig(buffer=buffer, frontend=tenant["frontend"])
        trace, database = timed(
            "pt.collect", lambda: (collect(run, config), collect_metadata(run))
        )
        path = os.path.join(workdir, tenant["name"] + ".rpt2")
        timed(
            "pt.archive_write",
            lambda: write_archive(trace, database, path, SEGMENT_PACKETS),
        )
        out[tenant["name"]] = {
            "run": run,
            "trace": trace,
            "path": path,
            "steps": steps,
        }
    return out


def prepare(request: dict) -> dict:
    """One set-up in this process: the timed :func:`set_up`, then the
    set-up checks, the archive digests and the ground truth to keep."""
    tracer = None
    if request["trace"]:
        from tracer import Tracer

        tracer = Tracer()
    spec = request["spec"]
    started = time.perf_counter()
    state = set_up(spec, request["seed"], request["workdir"], tracer)
    seconds = time.perf_counter() - started
    problems = []
    steps: Dict[str, float] = {}
    for tenant in spec["tenants"]:
        name = tenant["name"]
        for step, value in state[name]["steps"].items():
            steps[step] = steps.get(step, 0.0) + value
        if tenant["lossy"]:
            problems.extend(
                check_encoder_balance(state[name]["run"], state[name]["trace"])
            )
    if request["truth_out"]:
        truths = {
            name: {thread.tid: thread.truth for thread in tenant["run"].threads}
            for name, tenant in state.items()
        }
        with open(request["truth_out"], "wb") as handle:
            pickle.dump(truths, handle, protocol=pickle.HIGHEST_PROTOCOL)
    return {
        "seconds": seconds,
        "steps": steps,
        "spans": tracer.spans if tracer is not None else [],
        "problems": problems,
        "paths": {name: tenant["path"] for name, tenant in state.items()},
        "digests": {name: archive_digest(tenant["path"]) for name, tenant in state.items()},
    }


def archive_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


# ------------------------------------------------------------------ checks
def check_encoder_balance(run, trace) -> List[str]:
    """An independent encoder pass gives the generated bytes, and the
    bytes kept plus the bytes lost add up to them."""
    problems = []
    generated = sum(
        sum(packet.size for packet in PTEncoder().encode(events))
        for events in run.core_events
    )
    kept = sum(packet.size for core in trace.cores for packet in core.packets)
    lost = sum(loss.bytes_lost for core in trace.cores for loss in core.losses)
    if generated != trace.bytes_generated:
        problems.append(
            "encoder: independent pass generated %d bytes, trace says %d"
            % (generated, trace.bytes_generated)
        )
    if kept + lost != generated:
        problems.append(
            "encoder: kept %d + lost %d != generated %d" % (kept, lost, generated)
        )
    if not lost:
        problems.append("encoder: the lossy buffer lost nothing")
    return problems


def check_salvage(name: str, salvage: dict) -> List[str]:
    """An undamaged archive salvages every byte and drops nothing."""
    if (
        salvage["bytes_salvaged"] != salvage["file_size"]
        or salvage["bytes_dropped"]
        or salvage["bytes_converted_to_loss"]
        or salvage["events"]
    ):
        return ["%s: salvage does not balance: %r" % (name, salvage)]
    return []


def check_flows(name: str, truths: Dict[int, list], flows: Dict[int, dict], lossy: bool) -> List[str]:
    """Lossless: every flow equals its ground truth.  Lossy: each flow's
    first segment equals the ground truth's prefix of the same length."""
    problems = []
    if sorted(flows) != sorted(truths):
        return ["%s: flow threads %r != run threads %r" % (name, sorted(flows), sorted(truths))]
    for tid, truth in truths.items():
        flow = flows[tid]
        if not lossy:
            if flow["nodes"] != truth:
                problems.append("%s: thread %d flow differs from ground truth" % (name, tid))
            continue
        first = flow["first_segment"]
        if not first or first != truth[: len(first)]:
            problems.append(
                "%s: thread %d first segment is not a ground-truth prefix" % (name, tid)
            )
    return problems


def accuracy(truths: Dict[int, list], flows: Dict[int, dict]) -> List[ThreadAccuracy]:
    """Figure 7 accuracy of each thread's flow against its ground truth."""
    threads = []
    for tid in sorted(truths):
        flow = flows[tid]
        view = SimpleNamespace(
            tid=tid,
            flow=SimpleNamespace(
                entries=list(zip(flow["nodes"], flow["provenance"])),
                nodes=lambda nodes=flow["nodes"]: nodes,
            ),
        )
        threads.append(thread_accuracy(truths[tid], view))
    return threads


def flows_equal(left: Dict[int, dict], right: Dict[int, dict]) -> bool:
    return all(
        left[tid]["nodes"] == right[tid]["nodes"]
        and left[tid]["provenance"] == right[tid]["provenance"]
        for tid in left
    ) and sorted(left) == sorted(right)
