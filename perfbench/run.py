#!/usr/bin/env python3
"""Campaign benchmark for vstack.

Builds the library and the benchmark driver (perfbench/driver.cc) from
the sources next to this directory, runs one named workload, checks its
outputs, and prints one JSON result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 repeats the workload, each time in a fresh driver process with
an empty store, until S seconds have passed, and reports the medians of
the end-to-end metrics.  --trace 1 runs the workload once untraced, once
through its entry point with timestamped progress, and once as a
width-1 layer pass with a span around every public call, and reports
the per-layer metrics.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("uarch-deep", "fig04-grid", "fig04-fleet", "arch-sw")
# fig04-fleet runs the fig04-grid plan and must leave the same store.
DIGEST_OF = {"fig04-fleet": "fig04-grid"}
REFERENCE = HERE / "reference_digests.json"
CALL_TIMEOUT_S = 150    # one driver process
END_TO_END = {"wall_s": "s", "samples_per_s": "1/s", "cpu_s": "s",
              "peak_rss_mb": "MB", "setup_s": "s"}


def fail(msg, code):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def width():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configure (once) and build the driver; build output goes to a log."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no vstack sources at {ROOT / 'src'}; run from a full checkout",
             2)
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), *gen,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(width())])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (full log: {log})", 1)


def clean_env():
    """The caller's environment without any VSTACK_* setting."""
    return {k: v for k, v in os.environ.items() if not k.startswith("VSTACK_")}


def stop_group(proc):
    """SIGKILL whatever is left of a driver's process group (the driver
    and its fleet workers) and wait until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def vbench(opts, store, extra=()):
    """One driver process; returns its JSON record, or None on failure."""
    cmd = [str(BUILD / "vbench"), "--workload", opts.workload,
           "--seed", str(opts.seed), "--jobs", str(width()),
           "--store", str(store), "--worker", str(BUILD / "vstack-worker"),
           "--scale", opts.scale, *extra]
    if opts.corrupt_entry:
        cmd.append("--corrupt-entry")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            env=clean_env(), cwd=ROOT,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: driver timed out after {CALL_TIMEOUT_S}s",
              file=sys.stderr)
        return None
    finally:
        # Also on SIGTERM: never leave a driver or fleet worker behind.
        stop_group(proc)
    if proc.returncode != 0:
        print(f"perfbench: driver exited {proc.returncode}: "
              f"{err.strip()[-2000:]}", file=sys.stderr)
        return None
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print("perfbench: driver printed no result", file=sys.stderr)
        return None


def reference_digest(opts):
    if opts.expect_digest:
        return opts.expect_digest
    if opts.scale != "full" or not REFERENCE.is_file():
        return None
    refs = json.loads(REFERENCE.read_text())
    key = DIGEST_OF.get(opts.workload, opts.workload)
    return refs.get(key, {}).get(str(opts.seed))


def provenance(opts, build_info):
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            commit = r.stdout.strip()
    h = hashlib.sha256()
    files = sorted(p for d in (ROOT / "src", HERE) for p in d.rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    files.append(ROOT / "tools" / "vstack_worker_main.cc")
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return {"workload": opts.workload, "seed": opts.seed, "width": width(),
            "cpus": os.cpu_count(), "cpu_model": model,
            "build_type": build_info.get("type"),
            "compiler": build_info.get("compiler"),
            "git_commit": commit, "source_sha256": h.hexdigest()[:16],
            "trace": opts.trace, "scale": opts.scale}


class Tally:
    """Sample accounting and the output check across driver processes."""

    def __init__(self, want_digest):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.want = want_digest
        self.seen = None

    def crashed(self, what):
        self.attempted += 1
        self.failed += 1
        self.errors.append(f"{what}: driver failed")

    def add(self, what, rec):
        """Count one checked run; a store digest that differs from the
        reference or from an earlier run fails all its samples."""
        self.attempted += rec["attempted"]
        self.failed += rec["failed"]
        self.errors += [f"{what}: {e}" for e in rec["errors"]]
        digest = rec["digest"]
        if self.seen is None:
            self.seen = digest
        bad = []
        if digest != self.seen:
            bad.append(f"store digest {digest} != {self.seen} of this run")
        if self.want and digest != self.want:
            bad.append(f"store digest {digest} != reference {self.want}")
        if bad:
            self.failed += rec["attempted"] - rec["failed"]
            self.errors += [f"{what}: {b}" for b in bad]


def untraced(opts, work, tally):
    iters = []
    t0 = time.monotonic()
    while True:
        start = time.monotonic()
        store = work / f"it{len(iters)}"
        rec = vbench(opts, store)
        if rec is None:
            tally.crashed(f"iteration {len(iters)}")
        else:
            tally.add(f"iteration {len(iters)}", rec)
            iters.append(rec)
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        # Stop before an iteration that would end past the measuring
        # window (judged by the last one's length); the first always runs.
        now = time.monotonic()
        if rec is None or now - t0 + (now - start) > opts.seconds:
            break
    if not iters:
        return {}, None
    med = lambda k: statistics.median(r[k] for r in iters)
    metrics = {
        "wall_s": med("wall_s"),
        "samples_per_s": statistics.median(r["classified"] / r["wall_s"]
                                           for r in iters),
        "cpu_s": med("cpu_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "setup_s": med("setup_s"),
    }
    print("iterations: " + json.dumps(
        [{k: r[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s",
                            "attempted", "failed", "digest")}
         for r in iters]))
    return ({k: {"value": v, "unit": END_TO_END[k]}
             for k, v in metrics.items()}, iters[0].get("build", {}))


def traced(opts, work, tally):
    base = vbench(opts, work / "untraced")
    if base is None:
        tally.crashed("untraced pass")
    else:
        tally.add("untraced pass", base)
    rec = vbench(opts, work / "traced", ["--trace"])
    if rec is None:
        tally.crashed("traced pass")
        return {}, None
    entry, layer = rec["entry"], rec["layer"]
    tally.add("traced entry point", entry)
    # The width-1 layer pass must store exactly what the entry point did.
    layer_rec = {"attempted": entry["attempted"],
                 "failed": layer["quarantined"], "errors": layer["errors"],
                 "digest": layer["digest"]}
    if layer["errors"]:
        layer_rec["failed"] = entry["attempted"]
    tally.add("layer pass", layer_rec)
    metrics = rec["metrics"]
    if base is not None:
        metrics["trace.overhead_s"] = {
            "value": entry["wall_s"] - base["wall_s"], "unit": "s"}
        metrics["suite.unattributed_cpu_s"] = {
            "value": base["cpu_s"] - layer["span_total_s"], "unit": "s"}
    return metrics, rec.get("build", {})


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs (perfbench/selftest.py).
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help=argparse.SUPPRESS)
    ap.add_argument("--corrupt-entry", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--expect-digest", help=argparse.SUPPRESS)
    opts = ap.parse_args()
    if opts.seed < 0 or not 1 <= opts.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in [1, 120]", 64)

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build()
    work = BUILD / "runs" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally(reference_digest(opts))
    try:
        if opts.trace:
            metrics, build_info = traced(opts, work, tally)
        else:
            metrics, build_info = untraced(opts, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if build_info is None:
        fail("no run of the workload completed", 1)
    print("provenance: " + json.dumps(provenance(opts, build_info)))
    for e in tally.errors:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0 and not tally.errors,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
