#!/usr/bin/env python3
"""Self-test of the campaign benchmark (about a minute on 4 CPUs).

    python3 perfbench/selftest.py

Runs every workload at tiny sample counts, untraced and traced, and
checks that the result line has exactly the keys the benchmark promises
and every metric named in BENCHMARK.json with its unit.  Then checks
that the output check catches what it must: a corrupted store entry and
a forced store-digest mismatch both come back as failed samples
(correct = false), and a copy of the benchmark without the sources next
to it exits non-zero without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(workload, *extra, cwd=ROOT):
    """Run the benchmark at tiny scale; (exit code, last stdout line)."""
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--scale", "tiny", *extra]
    r = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=600)
    lines = r.stdout.strip().splitlines()
    return r.returncode, (lines[-1] if lines else "")


def result(workload, *extra):
    code, last = bench(workload, *extra)
    try:
        res = json.loads(last)
    except json.JSONDecodeError:
        res = None
    check(code == 0 and isinstance(res, dict),
          f"{workload} {' '.join(extra)}: exit 0 with a JSON result line")
    return res or {}


def metrics_match(res, spec_metrics, what):
    got = res.get("metrics", {})
    want = {m["name"]: m["unit"] for m in spec_metrics}
    check(set(got) == set(want), f"{what}: exactly the BENCHMARK.json metrics"
          + (f" (missing {sorted(set(want) - set(got))},"
             f" extra {sorted(set(got) - set(want))})"
             if set(got) != set(want) else ""))
    check(all(isinstance(got[n].get("value"), (int, float)) and
              got[n].get("unit") == u for n, u in want.items() if n in got),
          f"{what}: every metric has a numeric value and its unit")


def main():
    for w in (w["name"] for w in SPEC["workloads"]):
        res = result(w, "--trace", "0")
        check(set(res) == {"correct", "attempted", "failed", "metrics"},
              f"{w}: result has exactly correct/attempted/failed/metrics")
        check(res.get("correct") is True and res.get("failed") == 0 and
              res.get("attempted", 0) >= 1,
              f"{w}: output check passes with no failed sample")
        metrics_match(res, SPEC["end_to_end"], f"{w} untraced")
        check(all(v["value"] > 0 for v in res.get("metrics", {}).values()),
              f"{w} untraced: every end-to-end metric is non-zero")
        res = result(w, "--trace", "1")
        check(res.get("correct") is True and res.get("failed") == 0,
              f"{w} traced: entry point and layer pass agree")
        metrics_match(res, SPEC["per_layer"], f"{w} traced")

    res = result("fig04-grid", "--corrupt-entry")
    check(res.get("correct") is False and res.get("failed", 0) > 0,
          "a corrupted store entry is reported as failed samples")
    res = result("uarch-deep", "--expect-digest", "0" * 16)
    check(res.get("correct") is False and
          res.get("failed") == res.get("attempted"),
          "a store-digest mismatch fails every sample of the run")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, last = bench("uarch-deep", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and not last.startswith("{"),
          "without the sources the benchmark exits non-zero, no result")

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
