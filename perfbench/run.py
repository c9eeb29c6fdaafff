#!/usr/bin/env python3
"""Whole-run benchmark for the SIA runtime.

Builds the benchmark program sia_perfbench (perfbench/CMakeLists.txt:
the runtime libraries from ../src plus sia_perfbench.cpp), runs one
workload for a fixed measuring time, writes a result record with host
context, and prints every metric by name and unit. The last line of
stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload comm_storm --seed 1 \
        --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(a separate set of runs that also writes a trace-event file). The build
tree and all run output live in $CARGO_TARGET_DIR (default .bench_build)
under the checkout root; records go to <build>/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("comm_storm", "io_storm", "sparse_fock")
BUILD_TIMEOUT_S = 840
# sia_perfbench measures for --seconds, plus set-up (plain reference runs, a
# warm-up run) and at most one program run past the deadline.
RUN_MARGIN_S = 120


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(bdir):
    """Configures (once) and builds sia_perfbench; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "sia_perfbench"])
    # The compiler's temporary files stay inside the build tree too.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        left = deadline - time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=max(1.0, left))
        except (OSError, subprocess.TimeoutExpired) as err:
            log("perfbench: build step failed: %s" % err)
            return None
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: %s" % " ".join(cmd))
            return None
    exe = os.path.join(bdir, "sia_perfbench")
    return exe if os.path.exists(exe) else None


def git_revision():
    """HEAD of the checkout, or "unknown" when the checkout is not itself
    a git work tree (a parent directory's repository does not count)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if (proc.returncode != 0 or len(lines) != 2
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT)):
        return "unknown"
    return lines[1]


def source_digest():
    """sha256 over src/ (paths and contents): identifies the code measured
    when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        return 1

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    results = os.path.join(bdir, "results")
    work = os.path.join(bdir, "work", tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(results, exist_ok=True)
    trace_file = os.path.join(results, tag + ".trace.json")

    # Runtime scratch (served-array files, per-run scratch dirs) goes to
    # TMPDIR inside the checkout; environment overrides of the runtime's
    # knobs would change what is measured, so they are dropped.
    env = dict(os.environ)
    for key in ("SIA_AUTOTUNE", "SIA_TRANSPORT", "SIA_FAULT_PLAN",
                "SIA_CALIBRATION"):
        env.pop(key, None)
    env["TMPDIR"] = work
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--trace-file", trace_file, "--work-dir", work]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=args.seconds + RUN_MARGIN_S)
    except subprocess.TimeoutExpired:
        log("perfbench: sia_perfbench timed out")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: sia_perfbench exited with %d" % proc.returncode)
        return 1
    record = json.loads(lines[-1])
    reported = [(name, m["unit"]) for name, m in record["metrics"].items()]
    if reported != declared_metrics(args.trace):
        log("perfbench: sia_perfbench metrics differ from BENCHMARK.json")
        return 1

    record["host"].update({
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "nproc_os": os.cpu_count(),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "python": platform.python_version(),
    })
    record["command"] = ["python3", "perfbench/run.py"] + sys.argv[1:]
    record_path = os.path.join(results, tag + ".json")
    with open(record_path, "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")

    host = record["host"]
    print("workload %s seed %d: %d program runs, %d failed; nproc %s, %s, "
          "%s, gemm %s, rev %s" % (
              args.workload, args.seed, record["attempted"],
              record["failed"], host["nproc"], host["build_type"],
              host["compiler"], host["gemm_kernel"], host["git_revision"]))
    for name, metric in record["metrics"].items():
        print("  %-40s %.6g %s" % (name, metric["value"], metric["unit"]))
    print("record: %s" % os.path.relpath(record_path, ROOT))
    if args.trace:
        print("trace events: %s" % os.path.relpath(trace_file, ROOT))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
