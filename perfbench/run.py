#!/usr/bin/env python3
"""localsym benchmark: four seeded workloads, one closed-loop client.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                      # every workload, both modes

Every run of a workload answers the same fixed query population; the
seed sets the order in which each pass goes through it.

With ``--trace 0`` the run measures the end-to-end metrics: queries are
answered one after another in whole passes over the population, each pass
in its own seeded order, until ``--seconds`` of query time have passed and
at least 100 queries were answered.  Each answer is checked by the
workload's oracle outside the timed region.  Throughput and latency
percentiles are taken per pass and reported as the median over the passes.
``setup_s`` is the median over several fresh interpreters of the time from
process start to inputs ready (import and input generation; the CLI input
files are written after it, because this host's disk takes from 0.08 to
0.47 s to write the same files and no library change can move that).

Query times are speed-scaled: a shared host's CPU speed drifts by a
quarter and more over seconds to minutes, so a fixed loop of stdlib
``Fraction``, dict, string and JSON work (no library code) is timed at
most every REF_PERIOD_S, just before a query, and each query's time is
multiplied by REF_NOMINAL_S over the latest probe's time.  The figures so read as times
on a host whose reference loop takes REF_NOMINAL_S; the unscaled ones are
printed beside them.  ``setup_s`` is not scaled: it is mostly process
start and imports, which do not follow the loop's speed.

With ``--trace 1`` the run makes an untimed warm-up pass, then alternates
untraced and traced passes over the workload's trace set (fixed work, so
counts are exact), and reports the last traced pass's per-layer self
times, call counts and cache hit ratios, and the median tracing overhead.
Spans are written to ``.perfbench_work/spans-<workload>.csv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit, the failures by error class and
the machine context.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 5  # at least, and for at least SETUP_PROBE_S
SETUP_PROBE_S = 3.0
MIN_ANSWERED = 100
TRACE_ALTERNATIONS = 3
CHILD_TIMEOUT_S = 170
REF_PERIOD_S = 0.02
# the reference loop's median time, busy, on a 2-vCPU Xeon (2.0 GHz) VM
REF_NOMINAL_S = 0.0022

clock = time.perf_counter

# Known failure messages of the library, grouped so that a fix shows up as
# a falling count in one class.
ERROR_CLASSES = (
    ("widen the search box", "widen_search_box"),
    ("non-norm found", "no_small_non_norm"),
)


def load_library():
    """Put the checkout's sources on the path and import the benchmark's
    modules; refuse to run without the sources."""
    global tracing, workloads
    if not (SRC / "localsym" / "__init__.py").is_file():
        sys.exit(f"perfbench: no localsym sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads


def reference_loop():
    """A fixed amount of big-integer and of dict, string and JSON work, no
    library code.  The blend tracks the host's speed on every workload
    better than either half: the Fraction sum alone over-corrected the
    verdicts workload's JSON and object traffic."""
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i)
    table = {}
    for i in range(200):
        table.setdefault(f"k{i % 37}", []).append((i, str(i), i / 2))
    json.loads(json.dumps(table))
    return total


def speed_scale():
    """REF_NOMINAL_S over the reference loop's time: above 1 while the host
    runs faster than nominal."""
    start = clock()
    reference_loop()
    return REF_NOMINAL_S / (clock() - start)


class Speed:
    """The latest speed scale, probed at most every REF_PERIOD_S."""

    def __init__(self):
        self.last = -REF_PERIOD_S
        self.scale = 1.0
        self.scales = []

    def update(self):
        if clock() - self.last >= REF_PERIOD_S:
            self.scale = speed_scale()
            self.scales.append(self.scale)
            self.last = clock()


def error_class(exc):
    msg = str(exc)
    for needle, name in ERROR_CLASSES:
        if needle in msg:
            return name
    return "other." + type(exc).__name__


class Session:
    """Answers queries one at a time, timing only the library calls, and
    checks every answer.  An answer equal to one already verified for the
    same query is accepted without re-running the oracle.  With a Speed,
    `durations`, `latencies` and `wall` are speed-scaled; `raw_wall` never
    is."""

    def __init__(self, workload, verified, tracer=None, speed=None):
        self.workload = workload
        self.verified = verified
        self.tracer = tracer
        self.speed = speed
        self.wall = 0.0
        self.raw_wall = 0.0
        self.durations = []
        self.latencies = []
        self.attempted = 0
        self.ok = 0
        self.errors = Counter()
        self.excluded = Counter()  # lru hits and misses made by oracle checks

    def one(self, i, run):
        q = self.workload.queries[i]
        self.attempted += 1
        if self.speed:
            self.speed.update()
        if self.tracer:
            self.tracer.enabled = True
        start = clock()
        try:
            answer = run(q)
        except Exception as exc:  # a failing query is counted; the loop goes on
            self._add(clock() - start)
            self.errors[error_class(exc)] += 1
            return
        finally:
            if self.tracer:
                self.tracer.enabled = False
        self.latencies.append(self._add(clock() - start))
        if self.tracer:
            before = tracing.cache_stats()
        reason = self.check(i, q, answer)
        if self.tracer:
            for name, (hits, misses) in tracing.cache_stats().items():
                self.excluded[name + ".hits"] += hits - before[name][0]
                self.excluded[name + ".misses"] += misses - before[name][1]
        if reason is None:
            self.ok += 1
        else:
            self.errors["wrong_answer"] += 1
            if self.errors["wrong_answer"] == 1:
                print(f"wrong answer on query {i}: {reason}", file=sys.stderr)

    def _add(self, elapsed):
        self.raw_wall += elapsed
        if self.speed:
            elapsed *= self.speed.scale
        self.wall += elapsed
        self.durations.append(elapsed)
        return elapsed

    def check(self, i, q, answer):
        known = self.verified.get(i)
        if known is not None and known == answer:
            return None
        try:
            reason = self.workload.check(q, answer)
        except Exception as exc:  # a malformed answer can break the oracle
            reason = f"oracle raised {exc!r}"
        if reason is None:
            self.verified[i] = answer
        return reason

    @property
    def failed(self):
        return self.attempted - self.ok


def percentile(sorted_values, q):
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def setup_seconds(workload_name):
    """Median time from spawning a fresh interpreter to its inputs ready."""
    samples = []
    while len(samples) < SETUP_PROBES or sum(samples) < SETUP_PROBE_S:
        start = clock()
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload_name],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        samples.append(float(out.stdout.split()[-1]) - start)
    return statistics.median(samples)


def measure(workload, seed, seconds):
    """The end-to-end run: closed loop in whole passes over the population,
    each in a seeded order, until `seconds` of query time have passed and
    MIN_ANSWERED queries were answered (so that at least a tenth of them
    lie beyond p90), or four times `seconds` have passed.  Metrics are
    taken per pass from speed-scaled times; the run reports their medians.
    The run length counts unscaled time."""
    tracing.clear_caches()
    session = Session(workload, {}, speed=Speed())
    rng = random.Random(seed)
    order = list(range(len(workload.queries)))
    per_pass = []
    while session.raw_wall < seconds or (
        len(session.latencies) < MIN_ANSWERED and session.raw_wall < 4 * seconds
    ):
        rng.shuffle(order)
        wall, ok, answered = session.wall, session.ok, len(session.latencies)
        for i in order:
            session.one(i, workload.run)
        # latency of answered queries; of all queries if none was answered
        lat = sorted(session.latencies[answered:] or session.durations[-len(order):])
        per_pass.append({
            "ok_per_s": (session.ok - ok) / (session.wall - wall),
            "query_ms.p50": 1000 * percentile(lat, 0.5),
            "query_ms.p90": 1000 * percentile(lat, 0.9),
        })
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return session, metrics


def measure_traced(workload, spans_path):
    """An untimed warm-up pass, then TRACE_ALTERNATIONS pairs of an
    untraced and a traced pass over the workload's trace set, each from
    cleared caches.  Layer figures come from the last traced pass; the
    overhead is the median over the pairs."""
    verified = {}
    n = len(workload.queries) if workload.trace_queries is None else workload.trace_queries

    def one_pass(run, tracer=None):
        tracing.clear_caches()
        session = Session(workload, verified, tracer)
        for i in range(n):
            session.one(i, run)
        return session

    one_pass(workload.run)  # lets the interpreter specialize; fills the oracle memo
    tracer = tracing.Tracer()
    traced_run = tracer.span(tracing.ROOT_SPAN, workload.run)
    overheads = []
    for _ in range(TRACE_ALTERNATIONS):
        plain = one_pass(workload.run)
        tracer.reset()
        tracer.install()
        try:
            traced = one_pass(traced_run, tracer)
            stats = tracing.cache_stats()
        finally:
            tracer.uninstall()
        overheads.append((traced.wall - plain.wall) / plain.wall)
    tracer.write(spans_path)

    metrics = {}
    self_times = tracer.self_times()
    for name in tracer.names:
        total, calls = self_times.get(name, (0.0, 0))
        metrics[name + ".self_s"] = total
        metrics[name + ".calls"] = calls
    for name in ("numfield.Bq.mul", "numfield.Bq.inverse", "localfield.reduce"):
        metrics[name + ".calls"] = tracer.counts[name]
    for name in ("weyl.enumerate_involutions.returned", "distinction.decide.log_entries",
                 "invgraph.descend.steps"):
        metrics[name] = tracer.counts[name]
    decides = metrics["distinction.decide.calls"]
    yes = tracer.counts["distinction.decide.yes"]
    metrics["distinction.decide.yes_frac"] = yes / decides if decides else 0.0
    for name, (hits, misses) in stats.items():
        hits -= traced.excluded[name + ".hits"]
        misses -= traced.excluded[name + ".misses"]
        metrics[name + ".hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["trace.overhead_frac"] = statistics.median(overheads)
    # the share of query time spent inside library spans (the rest is the
    # benchmark's own code between them)
    metrics["trace.library_frac"] = (traced.wall - metrics[tracing.ROOT_SPAN + ".self_s"]) / traced.wall
    metrics["failed_frac"] = traced.failed / traced.attempted
    for cls in ("widen_search_box", "no_small_non_norm", "wrong_answer"):
        metrics[f"errors.{cls}"] = traced.errors[cls]
    metrics["errors.other"] = sum(v for k, v in traced.errors.items() if k.startswith("other."))
    return traced, metrics


def context():
    """Machine and source facts recorded beside the metrics (not gated)."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        commit = ref
    src_loc = sum(
        1 for f in sorted((SRC / "localsym").rglob("*.py"))
        for line in f.read_text().splitlines() if line.strip()
    )
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "commit": commit, "src_loc": src_loc}


def evaluate(workload, seed, seconds, trace, spec):
    """Measure one built workload; returns the session and the result
    object whose metrics are the declared ones of the mode."""
    if trace:
        session, metrics = measure_traced(workload, WORK / f"spans-{workload.name}.csv")
        declared = spec["per_layer"]
    else:
        setup = setup_seconds(workload.name)
        session, metrics = measure(workload, seed, seconds)
        metrics["setup_s"] = setup
        scales = session.speed.scales
        print(f"speed scale: median {statistics.median(scales):.3f} over {len(scales)} probes; "
              f"unscaled: {len(session.latencies) / session.raw_wall:.6g} answered/s over the run")
        declared = spec["end_to_end"]
    result = {
        "correct": session.errors["wrong_answer"] == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    return session, result


def run_one(args, spec):
    run_dir = WORK / f"run-{os.getpid()}"
    WORK.mkdir(exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](run_dir)
        workload.write_inputs()
        session, result = evaluate(workload, args.seed, args.seconds, args.trace, spec)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{session.attempted} queries, {len(session.latencies)} answered")
    for name, m in result["metrics"].items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    classes = " ".join(f"{k}={v}" for k, v in sorted(session.errors.items())) or "none"
    print(f"  failed_frac {session.failed / session.attempted:.4f} "
          f"({session.failed}/{session.attempted}); by class: {classes}")
    print("context " + json.dumps(context(), sort_keys=True))
    print(json.dumps(result), flush=True)


def setup_probe(args):
    """Build the inputs (writing no files) and print when they are ready."""
    workloads.WORKLOADS[args.workload](WORK / f"probe-{os.getpid()}")
    print(clock(), flush=True)


def run_all(args):
    """Each workload in a fresh process, untraced then traced."""
    ok = True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            ok &= subprocess.run(cmd, timeout=CHILD_TIMEOUT_S).returncode == 0
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    load_library()
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_probe:
        setup_probe(args)
        return 0
    spec = json.loads(SPEC_PATH.read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    run_one(args, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
