#!/usr/bin/env python3
"""Build the ANT end-to-end benchmark from source and run one workload.

    python3 perfbench/run.py --workload compile|serve|decode --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout. The first run configures and builds
the `ant` library and the `perfbench` program with CMake (Release) into
`$CARGO_TARGET_DIR/perfbench`, or `.bench_build/perfbench` when that
variable is unset; later runs only rebuild what changed. Build output
goes to stderr, so the last line of stdout is the program's JSON result.
Artifacts are written under `<build>/work` and removed when the run
ends; a traced run leaves its Chrome trace and per-layer table in
`<build>/traces`.

`--quick` runs reduced sizes of the same workload and checks, for the
benchmark's own tests (perfbench/selftest.py).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("compile", "serve", "decode")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build(bdir):
    """Configure (once) and build the program; output goes to stderr."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("run.py: build step failed: %s\n"
                             % " ".join(cmd))
            return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="reduced sizes, for the benchmark's own tests")
    a = p.parse_args()

    bdir = build_dir()
    if not build(bdir):
        return 1
    exe = os.path.join(bdir, "perfbench")
    work = os.path.join(bdir, "work")
    traces = os.path.join(bdir, "traces")
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", str(a.trace),
           "--work-dir", work, "--trace-dir", traces]
    if a.quick:
        cmd.append("--quick")
    sys.stdout.flush()
    rc = subprocess.run(cmd).returncode
    if rc != 0:
        sys.stderr.write("run.py: workload %s exited with %d\n"
                         % (a.workload, rc))
        return rc if rc > 0 else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
