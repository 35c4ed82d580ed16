#!/usr/bin/env python3
"""Build and run the end-to-end serving benchmark.

    python3 perfbench/run.py --workload small_rpc --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root.  The first call configures and builds the
library and perfbench_e2e (Release) into the directory named by
CARGO_TARGET_DIR, or .bench_build; later calls only rebuild what changed.
Every other argument goes to perfbench_e2e, whose last stdout line is the
result JSON.  See perfbench/README.md.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = "perfbench_e2e"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """Identifies the code under test without git: a SHA-256 over the
    library sources and build files, in path order."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    log_path = os.path.join(build_dir, "perfbench-build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    # At most 8 compile jobs: each can take several hundred MB.
    jobs = min(len(os.sched_getaffinity(0)), 8)
    steps.append(["cmake", "--build", build_dir, "--target", TARGET,
                  "-j", str(jobs)])
    # Compiler temporaries stay inside the build directory.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, cwd=ROOT, env=env, stdout=log,
                              stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as text:
                    sys.stderr.write(text.read()[-4000:])
                fail("build failed (full log: %s)" % log_path)
    return os.path.join(build_dir, TARGET)


def main():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no ELPC sources next to perfbench/; run from a full checkout")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    command = [binary] + sys.argv[1:] + ["--commit", source_digest()]
    sys.exit(subprocess.run(command, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
