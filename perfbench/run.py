#!/usr/bin/env python3
"""Builds the benchmark from source and runs one measurement.

Run from the repository root:

    python3 perfbench/run.py --workload plan|serve|sweep --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The OCaml program (perfbench/main.ml) is built with dune into
.bench_build/ (dune cache disabled, so nothing is written outside the
checkout) and run with the same arguments.  Its standard output is
forwarded only when it succeeds, so a failed build or run exits non-zero
without printing a result line.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def dune_command():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root (dune-project and lib/ missing)",
              file=sys.stderr)
        return 2
    dune = dune_command()
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    build = subprocess.run(
        dune + ["build", "--root", ".", "--build-dir", BUILD_DIR, "--cache=disabled",
                "--profile", "release", "./perfbench/main.exe"],
        stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0 or not os.path.isfile(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    proc = subprocess.Popen([EXE] + sys.argv[1:], stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"perfbench: main.exe exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 4
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
