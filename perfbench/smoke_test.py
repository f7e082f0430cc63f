#!/usr/bin/env python3
"""Smoke test of the benchmark: a tiny run of every workload.

    python3 perfbench/smoke_test.py

Builds the benchmark like run.py, then runs each workload at --scale tiny
(10k vertices, a few update batches) untraced and traced, plus one
`--workload all` run. It asserts that every output check passed, that each
run emits exactly the end-to-end or per-layer metrics BENCHMARK.json names,
with their units, and that the traced run wrote a Chrome trace with spans.
Exits non-zero on the first failure.
"""

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the sibling build/run script)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_tiny(workload, trace, extra=()):
    """Runs one tiny workload; returns (stdout lines, parsed result)."""
    command = [str(run.BINARY), "--workload", workload, "--seed", "7",
               "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny",
               "--work-dir", str(run.WORK_DIR / "smoke"), *extra]
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=run.RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("FAIL %s trace=%d: exit %d\n%s" %
                 (workload, trace, proc.returncode, proc.stderr))
    return lines, json.loads(lines[-1])


def expect(condition, message):
    if not condition:
        sys.exit("FAIL " + message)


def check_result(label, result, declared):
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           label + ": result keys")
    expect(result["correct"] is True and result["failed"] == 0,
           label + ": output checks")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           label + ": attempted")
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(emitted == declared, "%s: metrics %s != declared %s" %
           (label, sorted(emitted), sorted(declared)))


def main():
    if not run.build():
        sys.exit("FAIL build")
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload in WORKLOADS:
        _, result = run_tiny(workload, 0)
        check_result(workload + " untraced", result, end_to_end)
        for name in end_to_end:
            expect(result["metrics"][name]["value"] > 0,
                   "%s: %s is 0" % (workload, name))
        trace_file = run.WORK_DIR / "smoke" / ("trace-" + workload + ".json")
        lines, result = run_tiny(workload, 1, ["--trace-out", str(trace_file)])
        check_result(workload + " traced", result, per_layer)
        spans = json.loads(trace_file.read_text())["traceEvents"]
        expect(spans and all(s["ph"] == "X" for s in spans),
               workload + ": trace file has spans")
        expect(any("self_s" in line for line in lines),
               workload + ": self-time table printed")
        print("ok  %-14s %3d spans" % (workload, len(spans)))
    lines, result = run_tiny("all", 0)
    expect(result["correct"] is True, "all: output checks")
    expect(any(l.startswith("derived: solve-seq.wall_s / solve-par.wall_s")
               for l in lines), "all: derived ratio printed")
    for workload in WORKLOADS:
        for name in end_to_end:
            expect(workload + "." + name in result["metrics"],
                   "all: %s.%s missing" % (workload, name))
    print("ok  all")
    return 0


if __name__ == "__main__":
    sys.exit(main())
