#!/usr/bin/env python3
"""Build the decode-service benchmark in Release and run one workload.

    python3 perfbench/run.py --workload fleet_motor --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --repro-f1-f2

Run from the repository root.  The program's libraries are compiled from
src/ into .bench_build/perfbench (Release, fault hooks out, telemetry in).
The last line of standard output is the run's JSON result; build output
goes to standard error.  --trace 1 also writes a Chrome trace of the spans
to .bench_build/perfbench/trace_<workload>.json.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build; refuses anything but a Release build."""
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    with open(cache) as f:
        if "CMAKE_BUILD_TYPE:STRING=Release\n" not in f.read():
            sys.exit("perfbench: build directory is not a Release build")
    jobs = str(max(1, (os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "perfbench", "perfbench_selftest"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def run(cmd):
    """Run one benchmark process to its end; its output passes through."""
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repro-f1-f2", action="store_true",
                    help="reproduce the drain faults F1 and F2 on their "
                         "smallest shape")
    ap.add_argument("--selftest", action="store_true",
                    help="unit tests of the harness, then a short run of "
                         "every workload")
    args = ap.parse_args()
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as e:
        sys.stderr.write("perfbench: build failed: %s\n" % e)
        return 1
    binary = os.path.join(BUILD, "perfbench")
    if args.selftest:
        rc = run([os.path.join(BUILD, "perfbench_selftest")])
        for w in ("fleet_motor", "fleet_wide", "cluster_aged"):
            rc = rc or run([binary, "--workload", w, "--seed", "7",
                            "--seconds", "10", "--trace", "1", "--short"])
        return rc
    if args.repro_f1_f2:
        return run([binary, "--repro-f1-f2"])
    if not args.workload:
        ap.error("--workload is required")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(BUILD, "trace_%s.json" % args.workload)]
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
