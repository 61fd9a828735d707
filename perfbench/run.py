#!/usr/bin/env python3
"""End-to-end benchmark of the sharded detection service.

Builds the benchmark driver (perfbench/CMakeLists.txt, which compiles the
repository's src/ tree) into .bench_build, runs one workload, and prints
the driver's report. The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload ingest-1shard --seed 1 \
        --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
reports its per-layer metrics, each layer's self time and the tracing
overhead, and writes the spans to .bench_out/. Everything the run
writes stays inside the checkout (.bench_build, .bench_state,
.bench_out) and the state directory is removed at exit.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def run_logged(cmd, log):
    """Runs a build step with its output in `log`; False on failure."""
    with open(log, "a") as out:
        try:
            return subprocess.run(cmd, cwd=ROOT, stdout=out, stderr=out,
                                  timeout=BUILD_TIMEOUT_S).returncode == 0
        except subprocess.TimeoutExpired:
            return False


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "service", "router.h")):
        fail("no service sources under src/ next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if not run_logged(["cmake", "-S", HERE, "-B", BUILD,
                           "-DCMAKE_BUILD_TYPE=Release"], log):
            fail("configure failed, see " + log)
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_logged(["cmake", "--build", BUILD, "--target", "perfbench",
                       "-j", jobs], log):
        fail("build failed, see " + log)


def check_result(line, names):
    """The result line, parsed, if it carries every expected metric."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    metrics = result["metrics"]
    if names and set(metrics) != set(names):
        return None
    for m in metrics.values():
        if not isinstance(m.get("value"), (int, float)) or "unit" not in m:
            return None
    return result


def main():
    plan = load_json(os.path.join(HERE, "plan.json")) or {}
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=plan.get("default_seed", 1))
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    workloads = plan.get("workloads", {})
    if workloads and args.workload not in workloads:
        fail("unknown workload " + args.workload)
    build()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json")) or {}
    names = [m["name"] for m in
             bench.get("per_layer" if args.trace else "end_to_end", [])]
    state = os.path.join(ROOT, ".bench_state",
                         "%s-%d" % (args.workload, os.getpid()))
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", state]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            out_dir, "trace-%s-seed%d.jsonl" % (args.workload, args.seed))]
        for row in plan.get("layer_to_end_to_end", []):
            if args.workload in row["on"]:
                print("layer %-16s %s -> %s" % (row["layer"],
                      ", ".join(row["metrics"]), ", ".join(row["moves"])))
        sys.stdout.flush()

    # Stream the report through, holding back the last line: it is
    # printed only once the driver has exited cleanly and it parses.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    watchdog.start()
    last = None
    try:
        for line in proc.stdout:
            if last is not None:
                sys.stdout.write(last)
                sys.stdout.flush()
            last = line
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(state, ignore_errors=True)
    if code != 0:
        fail("driver exited with code %d" % code, 1)
    result = check_result(last or "", names)
    if result is None:
        fail("malformed result line: %r" % last, 1)
    print(json.dumps(result, separators=(",", ":")))


if __name__ == "__main__":
    main()
