#!/usr/bin/env python3
"""Build and run the perfbench binary from the root of a checkout.

    python3 perfbench/run.py --workload <ingest|scan|train_cv|compact> \
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench (and the library sources it
links) into .bench_build/ with CMake in Release mode; later runs rebuild
only what changed.  Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.  The exit code is the benchmark's:
nonzero when the build fails or an output check fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("ingest", "scan", "train_cv", "compact")


def source_id(root):
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(root, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha1-" + digest.hexdigest()[:12]


def build(root, bench_dir, build_dir, env):
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "--parallel", jobs])
    for cmd in steps:
        result = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    work_dir = os.path.join(root, ".bench_build", "work", args.workload)
    tmp_dir = os.path.join(root, ".bench_build", "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    # The library reads SSDFAIL_* from the environment; the binary pins
    # them too, so a caller's shell cannot change what is measured.  The
    # compiler's temporary files stay inside the checkout.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SSDFAIL_")}
    env["TMPDIR"] = tmp_dir
    if not build(root, bench_dir, build_dir, env):
        return 1

    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--work-dir", work_dir, "--commit", source_id(root)]
    sys.stdout.flush()
    result = subprocess.run(cmd, cwd=root, env=env)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
