#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

    python3 perfbench/selftest.py

For every workload, on the first few queries of its population:

- an untraced and a traced run emit exactly the declared end-to-end and
  per-layer metrics, each with its declared unit and a finite value, and
  every answer passes the oracle;
- each wrapper that corrupts the answers (a wrong value, and for
  ``certify`` and ``verdicts`` a distinguished verdict turned into an
  undistinguished one) makes them fail the oracle: they count in
  ``failed`` and the result is not ``correct``.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys

import run

TINY = {"certify": 24, "verdicts": 30, "cones": 60, "tables": 12}


def corrupt_certify(answer):
    verdict, x, predicted, got = answer
    if got is None:
        return answer
    other = workloads.symspace.SymplecticOrbit()
    if got == other:
        other = workloads.symspace.UnitaryOrbit(1)
    return verdict, x, predicted, other


def undistinguish_certify(answer):
    verdict = answer[0]
    if not verdict.distinguished:
        return answer
    return workloads.distinction.Verdict(False, None, verdict.failure_log), None, None, None


def corrupt_verdicts(answer):
    code, out = answer
    return code, out + out


def undistinguish_verdicts(answer):
    code, out = answer
    env = json.loads(out)
    env["payload"]["distinguished"] = False
    env["payload"]["witness"] = None
    return code, json.dumps(env) + "\n"


def corrupt_cones(answer):
    path, terminal, inside = answer
    return path, terminal, tuple(not x for x in inside)


def corrupt_tables(answer):
    invs, symbols, reciprocity, norms, k_class, formula, opposition = answer
    return invs, symbols, reciprocity, [norms[0], 2 * norms[1]], k_class, formula, opposition


CORRUPT = {
    "certify": (corrupt_certify, undistinguish_certify),
    "verdicts": (corrupt_verdicts, undistinguish_verdicts),
    "cones": (corrupt_cones,),
    "tables": (corrupt_tables,),
}


def tiny(name, work_dir):
    workload = workloads.WORKLOADS[name](work_dir)
    workload.queries = workload.queries[: TINY[name]]
    workload.trace_queries = None
    workload.write_inputs()
    return workload


def check_metrics(result, declared):
    problems = []
    got = result["metrics"]
    if list(got) != [m["name"] for m in declared]:
        problems.append(f"metric names {sorted(got)} differ from the declared ones")
    for m in declared:
        entry = got.get(m["name"])
        if entry is None:
            continue
        if entry["unit"] != m["unit"]:
            problems.append(f"{m['name']}: unit {entry['unit']!r}, declared {m['unit']!r}")
        if not isinstance(entry["value"], (int, float)) or not math.isfinite(entry["value"]):
            problems.append(f"{m['name']}: value {entry['value']!r} is not a finite number")
    if result["attempted"] < 1:
        problems.append("no query attempted")
    return problems


def main():
    global workloads
    run.load_library()
    workloads = run.workloads
    run.SETUP_PROBES = 1
    run.SETUP_PROBE_S = 0
    run.MIN_ANSWERED = 1
    spec = json.loads(run.SPEC_PATH.read_text())
    work_dir = run.WORK / f"selftest-{os.getpid()}"
    run.WORK.mkdir(exist_ok=True)
    failures = []
    try:
        for name in workloads.WORKLOADS:
            for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
                _, result = run.evaluate(tiny(name, work_dir), 1, 3.0, trace, spec)
                problems = check_metrics(result, declared)
                if not result["correct"]:
                    problems.append("an answer failed the oracle")
                failures += [f"{name} trace {trace}: {p}" for p in problems]
                print(f"{name} trace {trace}: {len(result['metrics'])} metrics, "
                      f"{result['attempted']} attempted, {result['failed']} failed")

            for corrupt in CORRUPT[name]:
                workload = tiny(name, work_dir)
                honest = workload.run
                workload.run = lambda q: corrupt(honest(q))
                _, result = run.evaluate(workload, 1, 3.0, 0, spec)
                print(f"{name} with {corrupt.__name__}: {result['attempted']} attempted, "
                      f"{result['failed']} failed, correct={result['correct']}")
                if result["failed"] == 0 or result["correct"]:
                    failures.append(f"{name}: {corrupt.__name__} passed the oracle")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for f in failures:
        print("FAIL", f)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
