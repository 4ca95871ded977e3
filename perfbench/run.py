#!/usr/bin/env python3
"""Build and run the bqc benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload lp-bound --seed 1 --seconds 10 --trace 0

Builds the `bqc` binary (the daemon the serve workload starts) and the
`perfbench` binary in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), then runs `perfbench`.  Its last line of standard output
is the result object.  Exits non-zero, without a result, when the checkout does
not hold the program's sources.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path


def main() -> int:
    root = Path.cwd()
    if not (root / "Cargo.toml").is_file() or not (root / "crates").is_dir():
        print("perfbench: run from the root of a bqc source checkout", file=sys.stderr)
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    builds = [
        ["cargo", "build", "--release", "--offline", "-q", "--bin", "bqc"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", str(Path("perfbench") / "Cargo.toml")],
    ]
    for command in builds:
        # Build output goes to stderr: stdout carries only the report.
        if subprocess.run(command, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 2
    work = target / "perfbench-work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        command = [str(target / "release" / "perfbench"), *sys.argv[1:],
                   "--bqc", str(target / "release" / "bqc"), "--work-dir", str(work)]
        return subprocess.run(command).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
