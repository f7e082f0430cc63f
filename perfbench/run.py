#!/usr/bin/env python3
"""Build and run the semis end-to-end benchmark.

    python3 perfbench/run.py --workload <solve-seq|solve-par|update-stream|all>
                             --seed <n> --seconds <s> --trace <0|1>
                             [--scale full|tiny] [--trace-out FILE]

Run it from the root of a checkout. It builds perfbench/ (which compiles the
library from src/) in Release mode under .bench_build/, then runs the
semis_perfbench binary with its inputs and scratch files under .bench_work/.
Every metric is printed by name with its unit; the last line of stdout is
the JSON result. The exit status is the binary's: 0 when every output check
passed. A failed build exits non-zero without printing a result.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_work"
BINARY = BUILD_DIR / "semis_perfbench"
# Each run must end well inside the caller's 180 s limit.
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the benchmark; returns False on failure."""
    configure = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not (BUILD_DIR / "CMakeCache.txt").exists() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [configure, ["cmake", "--build", str(BUILD_DIR), "-j", "4"]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return BINARY.exists()


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main(argv):
    if not build():
        return 1
    command = [str(BINARY), *argv, "--work-dir", str(WORK_DIR),
               "--commit", source_id()]
    with subprocess.Popen(command) as proc:
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
                  file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
