#!/usr/bin/env python3
"""Builds and runs the distributed-round benchmark for one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
                             [--out results.jsonl]
    python3 perfbench/run.py --smoke

Run from the repository root. The first run configures and builds
round_bench and tormet_node (Release) under .bench_build/perfbench; later
runs only re-check the build. The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"} holding the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1). --out appends {"workload", "seed", "trace", "result"} to a
JSON-lines file that perfbench/compare.py reads.

--smoke is the benchmark's own test: every workload at tiny scale, both
trace modes, checking metric names and units against BENCHMARK.json and
that the tally check passes on honest runs and fails on a tampered
reference.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOADS = ["privcount-replay", "psc-p256", "relay-fanin"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BENCH_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("CMakeLists.txt", "src", "apps/tormet_node.cpp"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"no {needed} at {ROOT}: run from a repository checkout")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "--target", "round_bench", "tormet_node",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return (os.path.join(BUILD, "round_bench"),
            os.path.join(BUILD, "tormet", "tormet_node"))


def run_bench(binary, node_bin, workload, seed, seconds, trace, extra=()):
    """Runs round_bench once; returns (human lines, result dict)."""
    work = os.path.join(WORK, f"{workload}-s{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = dict(os.environ, TMPDIR=work)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--node-bin", node_bin, "--work", work, *extra]
    # A process group of its own, so a timeout also stops the node processes.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=BENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{workload} seed {seed}: no result within {BENCH_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"{workload} seed {seed}: round_bench exited {proc.returncode}")
    lines = out.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail(f"unexpected result keys {sorted(result)}")
    shutil.rmtree(work, ignore_errors=True)
    return lines[:-1], result


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_names(result, trace):
    """Problems with the result's metric names and units, as strings."""
    want = declared_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    problems = [f"missing metric {n}" for n in want if n not in got]
    problems += [f"undeclared metric {n}" for n in got if n not in want]
    problems += [f"{n}: unit {got[n]}, declared {u}"
                 for n, u in want.items() if n in got and got[n] != u]
    return problems


def smoke(binary, node_bin):
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            start = time.time()
            _, result = run_bench(binary, node_bin, workload, 1, 1, trace,
                                  ["--tiny"])
            where = f"{workload} --trace {trace}"
            problems += [f"{where}: {p}" for p in check_names(result, trace)]
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: tally check failed on honest runs")
            print(f"smoke {where}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, {time.time() - start:.1f} s")
    _, result = run_bench(binary, node_bin, WORKLOADS[0], 1, 1, 0,
                          ["--tiny", "--tamper-reference"])
    if result["correct"] or result["failed"] != result["attempted"]:
        problems.append("tally check did not reject a tampered reference")
    print(f"smoke tampered reference: correct {result['correct']}, "
          f"failed {result['failed']}/{result['attempted']}")
    for p in problems:
        print(f"SMOKE FAIL: {p}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the result to this JSON-lines file")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    binary, node_bin = build()
    if args.smoke:
        return smoke(binary, node_bin)
    if args.workload is None:
        fail("--workload is required")
    lines, result = run_bench(binary, node_bin, args.workload, args.seed,
                              args.seconds, args.trace)
    problems = check_names(result, args.trace)
    if problems:
        fail("; ".join(problems))
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                "trace": args.trace, "result": result}) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
