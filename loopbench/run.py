#!/usr/bin/env python3
"""Build the closed-loop benchmark from source and run one workload.

    python3 loopbench/run.py --workload loop --seed 1 --seconds 35 --trace 0

Builds loopbench/main.exe with dune from the repository root this
script sits in (dune's shared cache off, so nothing is written outside
the repository), then runs it with the same arguments.  With --trace 1
the span record is written to loopbench/_out/.  The benchmark's last
line of standard output is its JSON result; build output goes to
standard error.  Exits non-zero, printing no result, when the build
fails.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def dune():
    exe = shutil.which("dune")
    if exe:
        return [exe]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def option(argv, name):
    if name in argv:
        i = argv.index(name)
        if i + 1 < len(argv):
            return argv[i + 1]
    return None


def main(argv):
    cmd = dune()
    if cmd is None:
        print("run.py: dune not found", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        print("run.py: not inside the cloudmirror repository", file=sys.stderr)
        return 2
    build = subprocess.run(
        cmd
        + ["build", "--root", ROOT, "--display", "quiet", "--cache", "disabled"]
        + ["./loopbench/main.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2
    extra = []
    if option(argv, "--trace") == "1":
        out = os.path.join(HERE, "_out")
        os.makedirs(out, exist_ok=True)
        name = "trace-%s-seed%s.json" % (option(argv, "--workload"), option(argv, "--seed"))
        extra = ["--trace-out", os.path.join(out, name)]
    exe = os.path.join(ROOT, "_build", "default", "loopbench", "main.exe")
    sys.stdout.flush()
    try:
        return subprocess.run([exe] + argv + extra, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
