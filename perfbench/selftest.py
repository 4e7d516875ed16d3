#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark, in reduced sizes.

    python3 perfbench/selftest.py

Run from the root of a checkout. For every workload it runs
`run.py --quick` untraced and traced, and checks the result line against
BENCHMARK.json: the keys, every metric name and unit, attempted >= 1,
failed == 0, and non-zero end-to-end values. It then copies only
BENCHMARK.json and perfbench/ into a scratch directory under the build
tree and checks that the command fails there without printing a
result. Exits non-zero on the first problem.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    sys.stderr.write("selftest: FAIL: %s\n" % msg)
    sys.exit(1)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        for trace, want in ((0, e2e), (1, layers)):
            r = run(["--workload", w["name"], "--seed", "3", "--seconds",
                     "1", "--trace", str(trace), "--quick"])
            what = "%s trace=%d" % (w["name"], trace)
            if r.returncode != 0:
                fail("%s exited %d:\n%s" % (what, r.returncode,
                                            r.stderr[-2000:]))
            res = json.loads(r.stdout.strip().splitlines()[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                fail("%s: result keys %s" % (what, sorted(res)))
            if res["correct"] is not True or res["attempted"] < 1:
                fail("%s: correct/attempted %s" % (what, res))
            if res["failed"] != 0:
                fail("%s: %d operations failed" % (what, res["failed"]))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                fail("%s: metrics %s, expected %s" % (what, got, want))
            if trace == 0 and any(v["value"] == 0
                                  for v in res["metrics"].values()):
                fail("%s: an end-to-end metric reads 0" % what)
            print("selftest: ok  %s  attempted=%d" % (what,
                                                      res["attempted"]))

    # Without the sources next to it the command must fail, quietly.
    bare = os.path.join(os.environ.get("CARGO_TARGET_DIR")
                        or os.path.join(ROOT, ".bench_build"),
                        "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".b"))
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "serve", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare, env=env,
                       capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if r.returncode == 0 or r.stdout.strip():
        fail("the bare copy exited %d with stdout %r"
             % (r.returncode, r.stdout[-200:]))
    print("selftest: ok  bare copy fails (exit %d)" % r.returncode)


if __name__ == "__main__":
    main()
