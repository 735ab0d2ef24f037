#!/usr/bin/env python3
"""GARCIA lifecycle benchmark entry point.

Builds perfbench/lifecycle_bench from the repository's sources into
.bench_build/ (incremental after the first run), then runs one workload:

    python3 perfbench/run.py --workload zipf_serve --seed 3 --seconds 10 --trace 0

An untraced run is three rounds, each a whole lifecycle in a fresh process;
every end-to-end metric is a median over them. A traced run is one untraced
and one traced round; the traced round gives the per-layer metrics, and the
two give trace.overhead_pct. The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics. Full results with
provenance go to .bench_build/results/, and the traced round's Chrome
trace-event JSON to .bench_build/traces/. --smoke runs the same phases and
checks at tiny sizes. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(OUT, "cmake")
BINARY = os.path.join(CMAKE_DIR, "lifecycle_bench")
WORKLOADS = ("fullgraph_train", "sampled_train", "zipf_serve")
ROUNDS = 3
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once and builds incrementally; output goes to build.log."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no GARCIA sources under {ROOT}/src; nothing to build")
    os.makedirs(OUT, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", CMAKE_DIR, "--target",
                  "lifecycle_bench", "-j", jobs])
    with open(os.path.join(OUT, "build.log"), "a") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log, stderr=log,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as err:
                fail(f"build step {cmd[:2]} failed: {err}")
            if done.returncode != 0:
                fail(f"build step {cmd[:2]} failed; see {OUT}/build.log")


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return done.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_round(args, tag, index, trace, deadline):
    """One lifecycle round in a fresh process; returns (result, report)."""
    cmd = [BINARY,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(trace),
           "--work-dir", os.path.join(OUT, "work", f"{tag}-{os.getpid()}"),
           "--trace-out", os.path.join(OUT, "traces", f"{tag}.trace.json")]
    if args.smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()),
                              check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} round {index} did not finish in time")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(done.stdout)
        fail(f"round {index} exited {done.returncode} without a result")
    if done.returncode != 0:
        result["correct"] = False
    return result, lines[:-1]


def end_to_end(rounds):
    """Phase times: median round. Latency: median over every round's
    open-loop windows. Quality is per-round equal."""
    def pooled(key):
        values = [v for r in rounds for v in r[key]]
        return statistics.median(values), len(values)

    def median_of(key):
        return statistics.median(r[key] for r in rounds), len(rounds)

    first = rounds[0]
    rows = [
        ("setup_s", "s", pooled("setup_s")),
        ("fit_s", "s", median_of("fit_s")),
        ("refresh_s", "s", median_of("refresh_s")),
        ("tail_auc", "1", (first["tail_auc"], first["tail_n"])),
        ("overall_auc", "1", (first["overall_auc"], first["overall_n"])),
        ("serve_p50_us", "us", pooled("window_p50_us")),
        ("recall_at_10", "1", (first["recall_at_10"], first["recall_n"])),
        ("fresh_frac", "1", (first["fresh_frac"], first["requests"])),
        ("peak_rss_mb", "MB", median_of("peak_rss_mb")),
    ]
    return {name: {"value": value, "unit": unit, "samples": n}
            for name, unit, (value, n) in rows}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: every phase and check in seconds")
    args = parser.parse_args()

    build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.smoke:
        tag += "-smoke"
    for sub in ("results", "traces", "work"):
        os.makedirs(os.path.join(OUT, sub), exist_ok=True)

    plan = [1, 0] if args.trace else [0] * ROUNDS
    rounds, results, report = [], [], []
    for index, trace in enumerate(plan):
        result, lines = run_round(args, tag, index, trace, deadline)
        results.append(result)
        rounds.append(result["round"])
        report = report or lines
    fingerprints = {r["fingerprint"] for r in rounds}
    attempted = sum(r["attempted"] for r in results) + len(rounds) - 1
    failed = sum(r["failed"] for r in results) + len(fingerprints) - 1
    correct = failed == 0 and all(r["correct"] for r in results)

    e2e = end_to_end(rounds)
    if args.trace:
        traced, untraced = rounds[0], rounds[1]
        metrics = dict(results[0]["layers"])
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (traced["timed_s"] - untraced["timed_s"]) /
                     untraced["timed_s"],
            "unit": "%", "samples": 1}
    else:
        metrics = e2e

    for line in report:
        print(line)
    for i, r in enumerate(rounds):
        print(f"round {i}: fit {r['fit_s']:.3f} s, refresh "
              f"{r['refresh_s']:.3f} s, serve {r['serve_s']:.3f} s, "
              f"fingerprint {r['fingerprint']}")
    if len(fingerprints) > 1:
        print("CHECK FAILED: rounds disagree on their outputs")
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:14.6g} {m['unit']:6s} "
              f"(n={m['samples']})")
    provenance = dict(results[0]["provenance"], git_commit=git_commit(),
                      rounds=len(rounds), trace=args.trace)
    with open(os.path.join(OUT, "results", f"{tag}.json"), "w") as f:
        json.dump({"provenance": provenance, "correct": correct,
                   "attempted": attempted, "failed": failed,
                   "end_to_end": e2e, "metrics": metrics, "rounds": rounds},
                  f, indent=1)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()}}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
