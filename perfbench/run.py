#!/usr/bin/env python3
"""Entry point of the end-to-end benchmark (see README.md here).

Run from the repository root:

    python3 perfbench/run.py --workload road_cold --seed 1 --seconds 10 --trace 0

Builds the repository's library, the `kosr_cli` server and the benchmark
program from source (CMake, Release) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when the variable is unset, then replaces itself with
the program, whose last line of standard output is the JSON result. Build
output goes to standard error. Exits non-zero without a result when the
build or the run fails.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("road_cold", "tcp_hot", "update_mixed")


def source_digest():
    """Commit id, or a digest of the sources when the tree is not a git checkout."""
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True)
        return head.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "kosr_perfbench", "kosr_cli"],
                   stdout=sys.stderr, check=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="default 1; 1009 is the held-out seed")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", type=int, choices=(0, 1), default=0,
                        help="1 plants one wrong expected cost; the run must "
                             "then report correct=false")
    args = parser.parse_args()

    build_dir = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
        "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    program = os.path.join(build_dir, "kosr_perfbench")
    argv = [program,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--self-check", str(args.self_check),
            "--cli", os.path.join(build_dir, "kosr_tools", "kosr_cli"),
            "--work-dir", os.path.join(build_dir, "run-" + args.workload),
            "--commit", source_digest()]
    sys.stdout.flush()
    os.execv(program, argv)


if __name__ == "__main__":
    sys.exit(main())
