#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default perfbench/target). Build output goes to standard error. The
benchmark's report goes to standard output, and its last line is one JSON
object. Traced runs also write their spans to
<target dir>/perfbench-spans/<workload>.tsv.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    args = sys.argv[1:]
    opts = dict(zip(args[::2], args[1::2]))
    if opts.get("--trace") == "1" and "--workload" in opts:
        args += ["--spans", os.path.join(target, "perfbench-spans", opts["--workload"] + ".tsv")]
    exe = os.path.join(target, "release", "nbbst-perfbench")
    return subprocess.run([exe] + args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
