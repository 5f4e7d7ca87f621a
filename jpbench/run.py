"""Trace-to-profile benchmark of the JPortal reproduction.

Run from the repository root::

    python3 jpbench/run.py --workload sunflow-lossy --seed 1 --seconds 20 --trace 0

The run sets the workload up ``SETUP_REPEATS`` times (build the subject,
simulate it, calibrate the buffer, collect, write the RPT2 archives),
then repeats the timed operation in a fresh process each time until
``--seconds`` have passed, checks every output, and prints one JSON
object as its last line: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced operations and reports the per-layer
metrics derived from the traced ones.  ``--smoke`` shrinks every subject
for a quick check of the paths and checks.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MB = float(1 << 20)

END_TO_END = {
    "setup_s": "s",
    "trace_to_profile_s": "s",
    "accuracy": "fraction",
    "peak_rss_mb": "MB",
    "trace_mb": "MB",
}

PER_LAYER = {
    "jvm.simulate_s": "s",
    "pt.calibrate_s": "s",
    "pt.collect_s": "s",
    "pt.archive_write_s": "s",
    "analysis.init_s": "s",
    "analysis.lint_s": "s",
    "pt.archive_read_s": "s",
    "tracesource.decode_s": "s",
    "tracesource.entries": "count",
    "core.reconstruct_s": "s",
    "core.reconstruct.segments": "count",
    "core.recovery_s": "s",
    "core.recovery.holes": "count",
    "core.recovery.filled_from_cs": "count",
    "core.recovery.candidates_tested": "count",
    "core.recovery.fill_ratio": "fraction",
    "profiling.profile_s": "s",
    "profiling.decoding_accuracy": "fraction",
    "profiling.recovery_accuracy": "fraction",
    "stream.poll_s": "s",
    "stream.polls": "count",
    "stream.poll_p50_ms": "ms",
    "stream.poll_tail_ms": "ms",
    "stream.delta_lag_p50_ms": "ms",
    "stream.lag_segments_max": "count",
    "stream.checkpoint_s": "s",
    "stream.checkpoints": "count",
    "stream.checkpoint_mb": "MB",
    "stream.restore_s": "s",
    "stream.finalize_s": "s",
    "stream.cold_starts": "count",
    "stream.finalize_replays": "count",
    "bench.unaccounted_fraction": "fraction",
    "bench.trace_overhead_fraction": "fraction",
}

#: Span name -> per-layer time metric (self time, summed per operation).
SPAN_METRICS = {
    "analysis.init": "analysis.init_s",
    "analysis.lint": "analysis.lint_s",
    "pt.archive_read": "pt.archive_read_s",
    "tracesource.decode": "tracesource.decode_s",
    "core.reconstruct": "core.reconstruct_s",
    "core.recovery": "core.recovery_s",
    "profiling.profile": "profiling.profile_s",
    "stream.poll": "stream.poll_s",
    "stream.checkpoint": "stream.checkpoint_s",
    "stream.restore": "stream.restore_s",
    "stream.finalize": "stream.finalize_s",
}
SETUP_METRICS = {
    "jvm.simulate": "jvm.simulate_s",
    "pt.calibrate": "pt.calibrate_s",
    "pt.collect": "pt.collect_s",
    "pt.archive_write": "pt.archive_write_s",
}
COUNT_METRICS = (
    "tracesource.entries",
    "core.reconstruct.segments",
    "core.recovery.holes",
    "core.recovery.filled_from_cs",
    "core.recovery.candidates_tested",
    "stream.checkpoints",
)
#: No single set-up or operation may outlive this many seconds.
CHILD_TIMEOUT = 150


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced subject sizes; one set-up")
    return parser.parse_args(argv)


def tail_value(samples):
    """The highest percentile with ten samples beyond it: the 11th
    largest sample.  Below forty samples that is no tail, and the
    median stands in for it."""
    ordered = sorted(samples)
    if len(ordered) < 40:
        return ordered[len(ordered) // 2] if ordered else 0.0
    return ordered[-11]


class Benchmark:
    def __init__(self, args, root):
        import scenarios

        self.scenarios = scenarios
        self.args = args
        self.root = root
        self.spec = scenarios.workload(args.workload, smoke=args.smoke)
        self.work_root = os.path.join(root, ".jpbench_work")
        os.makedirs(self.work_root, exist_ok=True)
        self.workdir = tempfile.mkdtemp(
            prefix="%s-%d-" % (args.workload, args.seed), dir=self.work_root
        )
        self.problems = []
        self.paths = {}
        self.truths = {}
        self.setup_times = []
        self.setup_steps = []
        self.setup_spans = []
        self.operations = []
        self.reference_flows = None
        self.accuracy = None

    # ---------------------------------------------------------- processes
    def spawn(self, request, label):
        """Run one child step; returns its JSON result or an error."""
        request_path = os.path.join(self.workdir, label + ".request.json")
        request.update(
            src=os.path.join(self.root, "src"),
            workdir=self.workdir,
            result_out=os.path.join(self.workdir, label + ".json"),
        )
        with open(request_path, "w", encoding="utf-8") as handle:
            json.dump(request, handle)
        try:
            completed = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), request_path],
                cwd=self.root,
                timeout=CHILD_TIMEOUT,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
            )
        except subprocess.TimeoutExpired:
            return None, "%s timed out" % label
        if completed.returncode != 0:
            lines = completed.stderr.strip().splitlines()
            return None, "%s failed: %s" % (label, lines[-1] if lines else completed.returncode)
        with open(request["result_out"], "r", encoding="utf-8") as handle:
            return json.load(handle), None

    # -------------------------------------------------------------- set-up
    def set_up(self):
        scenarios = self.scenarios
        repeats = 1 if self.args.smoke else scenarios.SETUP_REPEATS
        truth_path = os.path.join(self.workdir, "truth.pickle")
        digests = None
        for repeat in range(repeats):
            outcome, error = self.spawn(
                {
                    "kind": "prepare",
                    "spec": self.spec,
                    "seed": self.args.seed,
                    "trace": bool(self.args.trace),
                    "truth_out": truth_path if repeat == repeats - 1 else None,
                },
                "setup%d" % repeat,
            )
            if error is not None:
                raise RuntimeError(error)
            sys.stderr.write("jpbench: set-up: %.3f s\n" % outcome["seconds"])
            self.setup_times.append(outcome["seconds"])
            self.setup_steps.append(outcome["steps"])
            self.setup_spans.append(outcome["spans"])
            self.problems.extend(outcome["problems"])
            if digests is not None and outcome["digests"] != digests:
                self.problems.append("set-up is not deterministic: archives differ")
            digests = outcome["digests"]
            self.paths = outcome["paths"]
        with open(truth_path, "rb") as handle:
            self.truths = pickle.load(handle)

    # ---------------------------------------------------------- operations
    def operate(self, index, traced):
        label = "op%d" % index
        flows_path = os.path.join(self.workdir, label + ".pickle")
        outcome, error = self.spawn(
            {
                "kind": self.spec["kind"],
                "trace": traced,
                "records_per_poll": self.scenarios.RECORDS_PER_POLL,
                "workers": self.scenarios.STREAM_WORKERS,
                "tenants": [
                    dict(tenant, path=self.paths[tenant["name"]])
                    for tenant in self.spec["tenants"]
                ],
                "flows_out": flows_path,
            },
            label,
        )
        if error is not None:
            return None, error
        with open(flows_path, "rb") as handle:
            flows = pickle.load(handle)
        os.remove(flows_path)
        outcome["traced"] = traced
        self.check(outcome, flows)
        return outcome, None

    def check(self, outcome, flows):
        from repro.profiling.accuracy import RunAccuracy

        scenarios = self.scenarios
        for name, salvage in outcome["salvage"].items():
            self.problems.extend(scenarios.check_salvage(name, salvage))
        if outcome.get("failures"):
            self.problems.append("finalize failed for %r" % outcome["failures"])
            return
        if self.reference_flows is not None:
            for name, reference in self.reference_flows.items():
                if not scenarios.flows_equal(reference, flows[name]):
                    self.problems.append("%s: flows differ between operations" % name)
            return
        self.reference_flows = flows
        threads = []
        for tenant in self.spec["tenants"]:
            name = tenant["name"]
            truths = self.truths[name]
            self.problems.extend(
                scenarios.check_flows(name, truths, flows[name], tenant["lossy"])
            )
            if not tenant["lossy"]:
                truth_length = sum(len(truth) for truth in truths.values())
                if outcome["profile_instructions"][name] != truth_length:
                    self.problems.append(
                        "%s: profile counts %d instructions, ground truth has %d"
                        % (name, outcome["profile_instructions"][name], truth_length)
                    )
            threads.extend(scenarios.accuracy(truths, flows[name]))
        self.accuracy = RunAccuracy(threads=threads, percent_missing_data=0.0)

    def measure(self):
        started = time.perf_counter()
        index = 0
        attempted = failed = 0
        while True:
            traced = bool(self.args.trace) and index % 2 == 1
            outcome, error = self.operate(index, traced)
            index += 1
            if error is not None:
                self.problems.append(error)
                attempted += 1
                failed += 1
            else:
                sys.stderr.write(
                    "jpbench: operation %d%s: %.3f s, peak %.1f MB\n"
                    % (index - 1, " (traced)" if traced else "",
                       outcome["seconds"], outcome["peak_rss_mb"])
                )
                self.operations.append(outcome)
                attempted += outcome["attempted"]
                failed += outcome["failed"]
            enough = index >= (2 if self.args.trace else 1)
            if enough and time.perf_counter() - started >= self.args.seconds:
                break
        return attempted, failed

    # ------------------------------------------------------------- metrics
    def end_to_end(self):
        trace_bytes = sum(os.path.getsize(path) for path in self.paths.values())
        return {
            "setup_s": statistics.median(self.setup_times),
            "trace_to_profile_s": statistics.median(
                [op["seconds"] for op in self.operations]
            ),
            "accuracy": self.accuracy.overall,
            "peak_rss_mb": statistics.median(
                [op["peak_rss_mb"] for op in self.operations]
            ),
            "trace_mb": trace_bytes / MB,
        }

    def per_layer(self):
        from tracer import layer_totals, unaccounted_fraction

        median = statistics.median
        traced = [op for op in self.operations if op["traced"]]
        plain = [op for op in self.operations if not op["traced"]]
        values = {name: 0.0 for name in PER_LAYER}
        for span, metric in SETUP_METRICS.items():
            values[metric] = median([steps.get(span, 0.0) for steps in self.setup_steps])
        per_op = [layer_totals(op["spans"]) for op in traced]
        for span, metric in SPAN_METRICS.items():
            values[metric] = median([times.get(span, 0.0) for times, _ in per_op])
        counts = per_op[0][1]
        for name in COUNT_METRICS:
            values[name] = counts.get(name, 0)
        holes = values["core.recovery.holes"]
        values["core.recovery.fill_ratio"] = (
            values["core.recovery.filled_from_cs"] / holes if holes else 0.0
        )
        values["profiling.decoding_accuracy"] = self.accuracy.decoding_accuracy
        values["profiling.recovery_accuracy"] = self.accuracy.recovery_accuracy
        if self.spec["kind"] == "stream":
            first = traced[0]
            polls = [
                span["end"] - span["start"]
                for span in first["spans"] if span["name"] == "stream.poll"
            ]
            values["stream.polls"] = first["polls"]
            values["stream.poll_p50_ms"] = median(polls) * 1e3
            values["stream.poll_tail_ms"] = tail_value(polls) * 1e3
            values["stream.delta_lag_p50_ms"] = median(first["lags"]) * 1e3
            values["stream.lag_segments_max"] = first["lag_segments_max"]
            values["stream.checkpoint_mb"] = first["checkpoint_bytes_max"] / MB
            values["stream.cold_starts"] = first["cold_starts"]
            values["stream.finalize_replays"] = first["finalize_replays"]
        values["bench.unaccounted_fraction"] = median(
            [unaccounted_fraction(op["spans"], "bench.timed") for op in traced]
        )
        values["bench.trace_overhead_fraction"] = (
            median([op["seconds"] for op in traced])
            / median([op["seconds"] for op in plain]) - 1.0
        )
        return values

    def write_spans(self):
        directory = os.path.join(self.work_root, "traces")
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(
            directory, "%s-seed%d.json" % (self.args.workload, self.args.seed)
        )
        document = {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "setup": self.setup_spans,
            "operations": [op["spans"] for op in self.operations if op["traced"]],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        return path

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Fixed string hashing: set and dict iteration orders repeat
        # from run to run, in this process and in every operation.
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "repro")):
        sys.stderr.write("jpbench: no program source at src/repro under %s\n" % root)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    import scenarios

    if args.workload not in scenarios.WORKLOADS:
        sys.stderr.write("jpbench: unknown workload %r (expected one of %s)\n"
                         % (args.workload, ", ".join(sorted(scenarios.WORKLOADS))))
        return 2
    bench = Benchmark(args, root)
    try:
        bench.set_up()
        attempted, failed = bench.measure()
        if bench.operations and not args.trace:
            values, units = bench.end_to_end(), END_TO_END
        elif bench.operations and any(op["traced"] for op in bench.operations):
            values, units = bench.per_layer(), PER_LAYER
            sys.stderr.write("jpbench: spans written to %s\n" % bench.write_spans())
        else:
            values, units = {}, {}
    finally:
        bench.close()
    for problem in bench.problems:
        sys.stderr.write("jpbench: check failed: %s\n" % problem)
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
            if name in values
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
