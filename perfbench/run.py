#!/usr/bin/env python3
"""Build and run one workload of the slc benchmark.

    python3 perfbench/run.py --workload charlib|ssta|serve --seed N \
        --seconds S --trace 0|1

Run it from the root of an slc checkout.  It builds
perfbench/slcbench.exe from source with dune (build output goes to
stderr), runs the workload at its pool width, and passes the program's
stdout through.  The last line is the JSON result; it is checked to be
strict JSON with well-formed metric names before it is printed, and
the script exits non-zero without printing a result otherwise.
"""

import argparse
import json
import os
import re
import subprocess
import sys

# The pool width (SLC_DOMAINS) is part of each workload's definition.
WIDTH = {"charlib": 1, "ssta": 2, "serve": 1}
EXE = os.path.join("_build", "default", "perfbench", "slcbench.exe")
NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}\Z")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def reject_constant(c):
    raise ValueError("non-finite number " + c)


def check_result(line):
    """The result object, or ValueError if it breaks the output format."""
    r = json.loads(line, parse_constant=reject_constant)
    if not isinstance(r, dict) or set(r) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys")
    if not isinstance(r["correct"], bool):
        raise ValueError("correct is not a boolean")
    for k in ("attempted", "failed"):
        if type(r[k]) is not int or r[k] < 0:
            raise ValueError(k + " is not a whole number")
    if r["attempted"] < 1:
        raise ValueError("nothing attempted")
    for name, m in r["metrics"].items():
        if not NAME.match(name):
            raise ValueError("bad metric name %r" % name)
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            raise ValueError("metric %s keys" % name)
        if type(m["value"]) not in (int, float) or not isinstance(m["unit"], str):
            raise ValueError("metric %s value or unit" % name)
    return r


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WIDTH))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1")
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("perfbench", "dune"))):
        fail("run from the root of an slc checkout (needs dune-project, lib/ and perfbench/)")
    # No shared dune cache: the build reads and writes only the checkout.
    build_env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/slcbench.exe"],
            env=build_env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build: %s" % e)
    if build.returncode != 0:
        fail("build failed")
    env = dict(os.environ, SLC_DOMAINS=str(WIDTH[a.workload]))
    env.pop("SLC_TELEMETRY", None)
    try:
        run = subprocess.run(
            [EXE, "--workload", a.workload, "--seed", str(a.seed),
             "--seconds", str(a.seconds), "--trace", str(a.trace)],
            env=env, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("run: %s" % e)
    lines = run.stdout.decode(errors="replace").splitlines()
    sys.stdout.write("".join(l + "\n" for l in lines[:-1]))
    if run.returncode != 0 or not lines:
        fail("workload exited with code %d" % run.returncode)
    try:
        check_result(lines[-1])
    except ValueError as e:
        fail("malformed result line (%s): %s" % (e, lines[-1]))
    print(lines[-1])


if __name__ == "__main__":
    main()
