#!/usr/bin/env python3
"""Builds the benchmark and runs one workload pinned to one CPU.

usage: python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. The build goes to
$CARGO_TARGET_DIR (default: perfbench/target). The last line of standard
output is the result object; see perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def git_sha():
    """The checked-out commit, or "unknown" outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return sha.stdout.strip() if sha.returncode == 0 else "unknown"


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=dict(os.environ, CARGO_TARGET_DIR=target),
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    run = subprocess.run(
        [os.path.join(target, "release", "perfbench")] + sys.argv[1:],
        env=dict(os.environ, PERFBENCH_GIT_SHA=git_sha()),
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
