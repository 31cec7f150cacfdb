#!/usr/bin/env python3
"""Build and run the JIT performance benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: hecbench_warm, jit_cold (see perfbench/README.md). The first run in a checkout configures and builds
perfbench/ (which compiles the project's libraries from src/) into
$CARGO_TARGET_DIR, default .bench_build; later runs rebuild incrementally.
Run state (reference outputs, per-run work directories, saved results) lives
in .bench_run/.

The last line of stdout is the result object. Lines before it starting with
"#row" are detail rows (machine descriptor, per-program rows, scaling table);
a traced run whose untraced twin (same workload and seed) has already run
also prints "#row" lines with the tracing overhead of every end-to-end
metric.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    log = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=log, stderr=log)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "perfbench"], check=True, stdout=log, stderr=log)
    return os.path.join(build_dir, "perfbench")


def overhead_rows(results_dir, workload, seed, trace, e2e):
    """Saves this run's end-to-end metrics; returns traced-minus-untraced
    rows when both runs of this workload and seed exist."""
    os.makedirs(results_dir, exist_ok=True)
    path = lambda t: os.path.join(results_dir, f"{workload}-{seed}-trace{t}.json")
    with open(path(trace), "w") as f:
        json.dump(e2e, f)
    try:
        with open(path(0)) as f0, open(path(1)) as f1:
            untraced, traced = json.load(f0), json.load(f1)
    except (OSError, ValueError):
        return []
    rows = []
    for name in sorted(untraced):
        if name in traced:
            u, t = untraced[name]["value"], traced[name]["value"]
            rows.append({"tracing_overhead": name, "untraced": u, "traced": t,
                         "difference": t - u, "unit": untraced[name]["unit"]})
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: project sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    state = os.path.join(ROOT, ".bench_run")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--state-dir", state]
    try:
        # Reference outputs first, in their own process (a no-op once they
        # exist for this build), so they never count in the run's metrics.
        subprocess.run(cmd + ["--references-only", "1"], cwd=ROOT,
                       stdout=sys.stderr, check=True, timeout=RUN_TIMEOUT_S)
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.CalledProcessError as e:
        print(f"perfbench: reference run failed: {e}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"perfbench: benchmark exited with {proc.returncode}",
              file=sys.stderr)
        return proc.returncode or 1

    e2e = {}
    for line in lines:
        if line.startswith("#e2e "):
            e2e = json.loads(line[5:])
    rows = overhead_rows(os.path.join(state, "results"), args.workload,
                         args.seed, args.trace, e2e)
    out = lines[:-1] + ["#row " + json.dumps(r) for r in rows] + lines[-1:]
    sys.stdout.write("\n".join(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
