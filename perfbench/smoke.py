#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Runs every workload of BENCHMARK.json at reduced size (--smoke: a few
hundred to a few thousand nodes, one second of measurement) with tracing
off and on. It checks that each run exits 0 and reports correct results,
and that it prints every end-to-end or per-layer metric named in
BENCHMARK.json with the unit named there, and nothing else.

    python3 perfbench/smoke.py        # from the root of a checkout
"""

import json
import math
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            cmd = spec["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                                     "--trace", str(trace), "--smoke"]
            run = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            label = "%s --trace %d" % (workload, trace)
            before = len(problems)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                problems.append("%s: exit %d\n%s" % (label, run.returncode, run.stderr[-2000:]))
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append("%s: result keys %s" % (label, sorted(result)))
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: incorrect (%s failed)\n%s"
                                % (label, result["failed"], run.stderr[-2000:]))
            metrics = result["metrics"]
            for name, unit in expected[trace].items():
                got = metrics.get(name)
                if got is None:
                    problems.append("%s: missing %s" % (label, name))
                elif got.get("unit") != unit:
                    problems.append("%s: %s has unit %s, expected %s"
                                    % (label, name, got.get("unit"), unit))
                elif not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
                    problems.append("%s: %s has value %r" % (label, name, got.get("value")))
            for name in set(metrics) - set(expected[trace]):
                problems.append("%s: unexpected metric %s" % (label, name))
            print("ok  " if len(problems) == before else "BAD ", label, flush=True)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
