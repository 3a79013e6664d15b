#!/usr/bin/env python3
"""Build velobench and the tools it drives, then run one benchmark workload.

    python3 bench/velobench/run.py --serve-mevps RATE \\
        --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The repository's own CMake build is
configured into $CARGO_TARGET_DIR (default .bench_build), with
velobench.cmake adding the velobench target, and only velobench and the
tools it drives are built. The build is incremental, so only the first run
of a fresh checkout pays for it. Build output goes to stderr; the result
document is the last line of stdout. Exits non-zero, without a result, when
the benchmark cannot be built (for example when the repository sources are
absent).
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def build(build_dir):
    """Configure (once) and build; returns True on success."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        print("velobench: no repository sources under %s" % ROOT, file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        # The repository's own build, with the velobench target added.
        cmd = ["cmake", "-S", ROOT, "-B", build_dir,
               "-DCMAKE_PROJECT_velodrome_INCLUDE=" + os.path.join(HERE, "velobench.cmake")]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "velobench", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(build_dir):
        print("velobench: build failed", file=sys.stderr)
        return 2
    argv = [os.path.join(build_dir, "velobench")] + sys.argv[1:]
    argv += ["--tools", os.path.join(build_dir, "tools"),
             "--work", os.path.join(build_dir, "work")]
    sys.stdout.flush()
    os.execv(argv[0], argv)


if __name__ == "__main__":
    sys.exit(main())
