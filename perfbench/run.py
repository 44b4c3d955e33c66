#!/usr/bin/env python3
"""Build the benchmark program from this checkout and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is built with dune into
.bench_build/, with dune's shared cache off and TMPDIR inside it, so
nothing is written outside the checkout.  Its last stdout line is the JSON
result described in BENCHMARK.json.  Without the repository's sources next to perfbench/ the
build is impossible and the script exits non-zero without a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
TARGET = "./perfbench/main.exe"


def main():
    missing = [p for p in ("dune-project", "lib", "bin") if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print("perfbench: not a full checkout, missing: " + ", ".join(missing), file=sys.stderr)
        return 2
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(ROOT, BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)
    # Build output goes to stderr: stdout carries only the result line.
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, "--cache=disabled",
             "--display=quiet", TARGET],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print("perfbench: cannot run dune: %s" % e, file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
