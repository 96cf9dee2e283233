#!/usr/bin/env python3
"""Build the SMASH benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (`perfbench/Cargo.toml`) that
depends on the workspace crates by path. It is built into
`$CARGO_TARGET_DIR` (default: `.bench_build` in the current directory).
A traced run writes its spans to
`$CARGO_TARGET_DIR/perfbench-trace/<workload>-seed<n>.jsonl`.

The last line on standard output is the run's JSON result. Build output
goes to standard error. A failed build exits non-zero without a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def flag_value(args, flag):
    for i, a in enumerate(args[:-1]):
        if a == flag:
            return args[i + 1]
    return None


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
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
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    args = sys.argv[1:]
    if flag_value(args, "--trace") == "1" and flag_value(args, "--trace-out") is None:
        name = "{}-seed{}.jsonl".format(
            flag_value(args, "--workload"), flag_value(args, "--seed")
        )
        args += ["--trace-out", os.path.join(target, "perfbench-trace", name)]
    exe = os.path.join(target, "release", "smash-perfbench")
    return subprocess.run([exe] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
