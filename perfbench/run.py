#!/usr/bin/env python3
"""qharm benchmark: four workloads in a closed loop with one client.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Run from the repository root; qharm is imported from ``src/``.  Each
workload has a fixed set of inputs drawn from the seed, and runs them in
turn, over and over.  With ``--trace 0`` the run measures the end-to-end
metrics: a second of warm-up, then ops back to back for ``--seconds`` (each
op's output is checked between ops, outside its timing), then set-up in
fresh processes and a cold CLI command.  With ``--trace 1`` it runs whole
passes over the inputs for ``--seconds``, untraced and traced in turn, and
reports the per-layer metrics per pass plus the tracing overhead.  Spans are
written to ``perfbench/_work/``.

Op latencies are read from the thread's CPU clock, and set-up and cold-start
times are CPU times of the child process (see probes.py).  The ops are
single-threaded and CPU-bound, so undisturbed this equals wall time.  The
end-to-end times are then scaled to reference speed by a kernel that runs
between ops (calib.py), because a shared machine's speed drifts with the load
of its host; the record line holds the unscaled figures beside them.

Every run prints a ``{"record": ...}`` line (machine, seed, output digest,
failure counts), one ``workload metric value unit`` line per metric, and as
its last line the JSON result ``{"correct", "attempted", "failed",
"metrics"}``.  ``attempted`` and ``failed`` count the workload's inputs
(scan trials for ``scan``), so they depend on the seed alone.  An input
fails if a run of it raises, exits 2, or gives wrong output; ``correct`` is
false if any output was wrong or two runs of one input disagreed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import calib
import probes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
NAMES = ("verify", "verify_csv", "classify", "scan")
SETUP_REPEATS = 5
COLD_REPEATS = 15
IMPORT_REPEATS = 5
TAIL_BEYOND = 10  # the tail percentile leaves at least this many samples above it
WARMUP_S = 1.0  # ops run, checked but untimed, before the timed loop
REF_EVERY_NS = 10_000_000  # op time between two reference samples
OK, FAILED, WRONG = "ok", "failed", "wrong"  # op statuses, as in workloads.py


class Tally:
    """Outcomes and latencies of a run's ops.

    Every op is an input of the workload's fixed set, and the loop runs the
    set over and over.  ``attempted`` and ``failed`` count inputs (scan
    trials for ``scan``): an input fails if any of its runs failed, so both
    counts depend on the seed alone, not on how many runs fit in the time.
    An input whose runs disagree makes the run incorrect."""

    def __init__(self):
        self.latencies_ns: list[int] = []  # timed runs only
        self.timed_inputs: list[int] = []  # the input of each timed run
        self.timed_units = 0
        self.outcomes: dict = {}  # input index -> (status, units, reason)
        self.inconsistent: set = set()

    def add(self, index, elapsed_ns, units, status, reason, timed=True):
        if timed:
            self.latencies_ns.append(elapsed_ns)
            self.timed_inputs.append(index)
            self.timed_units += units
        first = self.outcomes.setdefault(index, (status, units, reason))
        if first[0] != status:
            self.inconsistent.add(index)

    def _units(self, statuses):
        return sum(units for status, units, _ in self.outcomes.values() if status in statuses)

    @property
    def attempted(self) -> int:
        return self._units((OK, FAILED, WRONG))

    @property
    def failed(self) -> int:
        return self._units((FAILED, WRONG))

    @property
    def wrong(self) -> int:
        return sum(status == WRONG for status, _, _ in self.outcomes.values())

    @property
    def reasons(self) -> Counter:
        return Counter(reason for status, _, reason in self.outcomes.values() if status != OK)

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and not self.inconsistent

    def throughput(self, latencies_ns=None) -> float:
        return self.timed_units / (sum(latencies_ns or self.latencies_ns) / 1e9)


def run_op(wl, op, tally, tracer=None, timed=True) -> tuple[bytes, int]:
    """Run one op, check it (untimed), and return its digest bytes and its
    thread CPU time in ns."""
    wl.before(op)
    stderr = io.StringIO()
    out = exc = None
    span = tracer.op_span() if tracer else contextlib.nullcontext()
    with contextlib.redirect_stderr(stderr):
        start = time.thread_time_ns()
        try:
            with span:
                out = wl.run(op)
        except Exception as e:  # an op that raises counts as failed; the loop goes on
            exc = e
        elapsed = time.thread_time_ns() - start
    status, units, blob, reason = wl.check(op, out, exc, stderr.getvalue())
    tally.add(op.index, elapsed, units, status, reason, timed)
    return blob, elapsed


def timed_loop(wl, seconds):
    """Warm up, then run ops back to back for ``seconds``, with a reference
    sample (calib.py) after every ``REF_EVERY_NS`` of op time.  Every input
    runs at least once: a first pass that the time did not cover is finished
    untimed.  The digest covers one pass, in input order."""
    tally, speed = Tally(), calib.SpeedTrack()
    blobs = {}
    k = 0
    deadline = time.perf_counter() + WARMUP_S
    while time.perf_counter() < deadline:
        blobs.setdefault(k % wl.pass_len, run_op(wl, wl.op(k), tally, timed=False)[0])
        k += 1
    # Objects made so far (modules, inputs) are never freed; frozen, they
    # leave the collector's full passes, which would otherwise add ~20 ms to
    # a few ops at random.  A one-shot CLI run never reaches such a pass.
    gc.collect()
    gc.freeze()
    for _ in range(2 * calib.WINDOW):
        speed.sample(0)
    since_ref = 0
    deadline = time.perf_counter() + seconds
    while not tally.latencies_ns or time.perf_counter() < deadline:
        blob, elapsed = run_op(wl, wl.op(k), tally)
        blobs.setdefault(k % wl.pass_len, blob)
        k += 1
        since_ref += elapsed
        if since_ref >= REF_EVERY_NS:
            speed.sample(len(tally.latencies_ns))
            since_ref = 0
    for _ in range(calib.WINDOW):
        speed.sample(len(tally.latencies_ns))
    for j in range(wl.pass_len):
        if j not in blobs:
            blobs[j] = run_op(wl, wl.op(j), tally, timed=False)[0]
    digest = hashlib.sha256(b"".join(blobs[j] for j in range(wl.pass_len)))
    return tally, speed, digest.hexdigest()


def one_pass(wl, tally, tracer=None) -> str:
    """One pass over the workload's ops; returns the digest of its reports."""
    digest = hashlib.sha256()
    for op in wl.ops:
        digest.update(run_op(wl, op, tally, tracer)[0])
    return digest.hexdigest()


def tail(latencies_ms, inputs):
    """Each input's median latency over its runs, and the highest percentile
    of those with at least TAIL_BEYOND inputs above it.  Taking the inputs'
    medians first keeps the slowest inputs in the tail and leaves out the
    single runs that a stall of the machine slowed."""
    runs = {}
    for ms, index in zip(latencies_ms, inputs):
        runs.setdefault(index, []).append(ms)
    ordered = sorted(statistics.median(v) for v in runs.values())
    n = len(ordered)
    i = max(n - TAIL_BEYOND - 1, 0)
    return ordered[i], {"percentile": 100.0 * (i + 1) / n, "inputs": n, "beyond": n - i - 1}


def child_samples(measure, repeats):
    """Run ``measure(i)`` (CPU time of a fresh child process) for i below
    ``repeats``, each after a reference child (calib.py); returns the raw
    values, the scaled values and the child results."""
    raw, scaled, results = [], [], []
    for i in range(repeats):
        factor = probes.reference_child_s(ROOT) / calib.CHILD_NOMINAL_S
        value, result = measure(i)
        raw.append(value)
        scaled.append(value / factor)
        results.append(result)
    return raw, scaled, results


def end_to_end(wl, name, seed, seconds, repeats, record):
    tally, speed, digest = timed_loop(wl, seconds)
    factors = speed.factors(len(tally.latencies_ns))
    raw_ms = [ns / 1e6 for ns in tally.latencies_ns]
    latencies_ms = [ms / f for ms, f in zip(raw_ms, factors)]
    tail_ms, tail_info = tail(latencies_ms, tally.timed_inputs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def setup(i):
        return probes.setup_seconds(ROOT, name, seed, WORK / f"setup-{os.getpid()}-{i}"), None

    cold_argv = wl.cli_argv()
    setup_raw, setup_s, _ = child_samples(setup, repeats["setup"])
    cold_raw, cold_ms, cold_rc = child_samples(lambda i: probes.cli_cold_ms(ROOT, cold_argv), repeats["cold"])
    cold_ok = all(rc == 0 for rc in cold_rc)

    record.update(
        digest=digest,
        clock="thread CPU time, scaled to reference speed (calib.py)",
        ops=len(latencies_ms),
        op_tail=tail_info,
        speed={
            "reference_samples": len(speed.samples_ns),
            "reference_ms_median": statistics.median(speed.samples_ns) / 1e6,
            "factor_min": min(factors),
            "factor_max": max(factors),
        },
        raw={
            "throughput_per_s": tally.throughput(),
            "op_p50_ms": statistics.median(raw_ms),
            "op_tail_ms": tail(raw_ms, tally.timed_inputs)[0],
            "setup_s": statistics.median(setup_raw),
            "cli_cold_ms": statistics.median(cold_raw),
        },
        setup_samples_s=setup_s,
        cli_cold={"argv": ["python", "-m", "qharm", *cold_argv], "exit_codes": sorted(set(cold_rc)),
                  "samples_ms": cold_ms},
    )
    metrics = {
        "throughput_per_s": (tally.throughput([ms * 1e6 for ms in latencies_ms]), "ops/s"),
        "op_p50_ms": (statistics.median(latencies_ms), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "ok_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "cli_cold_ms": (statistics.median(cold_ms), "ms"),
    }
    return tally, metrics, tally.correct and cold_ok


def per_layer(wl, seconds, repeats, record):
    import workloads
    from tracing import GRID_PASSES, Tracer

    # Untraced and traced passes alternate, so drift in machine speed
    # reaches both sides of the overhead ratio alike.
    untraced, traced = Tally(), Tally()
    tracer = Tracer()
    digests = set()
    passes = 0
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < deadline:
        digests.add(one_pass(wl, untraced))
        tracer.install()
        try:
            digests.add(one_pass(wl, traced, tracer))
        finally:
            tracer.uninstall()
        passes += 1
    layers, total_ns = tracer.layers()
    spans_path = WORK / f"spans-{wl.name}.jsonl"
    tracer.dump(spans_path)

    metrics = {}
    for boundary, (calls, self_ns) in layers.items():
        metrics[f"{boundary}.calls"] = (calls / passes, "count")
        metrics[f"{boundary}.self_ms"] = (self_ns / passes / 1e6, "ms")
        metrics[f"{boundary}.share"] = (self_ns / total_ns, "ratio")
    points = sum(layers[b][0] for b in GRID_PASSES) * workloads.GRID_SIZE
    metrics["verify.points_evaluated"] = (points / passes, "count")
    metrics["verify.csv_bytes"] = (wl.csv_bytes / (2 * passes), "bytes")
    metrics["qharm.import.ms"] = (statistics.median(probes.import_ms(ROOT) for _ in range(repeats["import"])), "ms")
    metrics["trace.untraced_throughput_per_s"] = (untraced.throughput(), "ops/s")
    metrics["trace.traced_throughput_per_s"] = (traced.throughput(), "ops/s")
    metrics["trace.overhead_pct"] = ((untraced.throughput() / traced.throughput() - 1.0) * 100.0, "%")

    record.update(
        digest=sorted(digests)[0],
        passes={"untraced": passes, "traced": passes, "ops_per_pass": wl.pass_len},
        spans={"file": str(spans_path.relative_to(ROOT)), "count": len(tracer.spans)},
    )
    # Every pass, traced or not, must produce the same reports.
    deterministic = len(digests) == 1
    if not deterministic:
        record["nondeterministic_digests"] = sorted(digests)
    return traced, metrics, traced.correct and untraced.correct and deterministic


def execute(name, seed, seconds, trace, *, tiny=False, repeats=None):
    """One workload run; returns the result line and the record."""
    repeats = repeats or {"setup": SETUP_REPEATS, "cold": COLD_REPEATS, "import": IMPORT_REPEATS}
    record = {"machine": probes.machine_record(seed), "workload": name, "seconds": seconds, "trace": trace}
    import workloads

    wl = workloads.WORKLOADS[name](seed, WORK / f"{name}-{os.getpid()}", tiny=tiny)
    try:
        if trace:
            tally, metrics, correct = per_layer(wl, seconds, repeats, record)
        else:
            tally, metrics, correct = end_to_end(wl, name, seed, seconds, repeats, record)
    finally:
        wl.close()
    record.update(
        attempted=tally.attempted,
        failed=tally.failed,
        fail_ratio=tally.failed / tally.attempted,
        wrong=tally.wrong,
        inconsistent=sorted(tally.inconsistent),
        failures=dict(tally.reasons),
    )
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, record


def print_run(name, result, record):
    print(json.dumps({"record": record}))
    for metric, m in result["metrics"].items():
        print(f"{name:<11} {metric:<42} {m['value']:>16.6f} {m['unit']}")
    if "op_tail" in record:
        t = record["op_tail"]
        print(f"{name:<11} op_tail_ms is p{t['percentile']:.2f} of the medians of {t['inputs']} inputs"
              f" ({t['beyond']} beyond), over {record['ops']} ops")
    print(f"{name:<11} failed/attempted {result['failed']}/{result['attempted']}"
          f" (fail_ratio {record['fail_ratio']:.6f})  digest {record['digest']}")


def run_all(args):
    """Each workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.exit(f"workload {name} exited {proc.returncode}")
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qharm benchmark")
    ap.add_argument("--workload", required=True, choices=[*NAMES, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "qharm" / "__init__.py").is_file():
        print(f"error: qharm sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        run_all(args)
        return 0
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("QHARM_TOL", None)  # reports use the library's default tolerance
    result, record = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    print_run(args.workload, result, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
