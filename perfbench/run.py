#!/usr/bin/env python3
"""Build the Refrint benchmark and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_apps --seed 1 --seconds 20 --trace 0

Workloads: paper_apps, policy_sweep, serve_fleet (see perfbench/README.md).
The script builds `refrint-cli` (the server the serve workload starts) and
the benchmark program in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), then replaces itself with the benchmark program. The last
line the program prints on stdout is the JSON result; everything else goes
to stderr.
"""

import os
import subprocess
import sys


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "refrint-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        # Cargo's output goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            sys.exit(2)
    release = os.path.join(target, "release")
    bench = os.path.join(release, "perfbench")
    args = [bench, "--cli", os.path.join(release, "refrint-cli"),
            "--scratch", os.path.join(target, "perfbench-scratch")] + sys.argv[1:]
    # Fixed mmap and trim thresholds turn off glibc's data-dependent
    # threshold adjustment, which otherwise makes peak RSS jump between two
    # levels from one seed to the next. The servers started inherit them.
    os.environ["MALLOC_MMAP_THRESHOLD_"] = "131072"
    os.environ["MALLOC_TRIM_THRESHOLD_"] = "131072"
    sys.stdout.flush()
    os.execv(bench, args)


if __name__ == "__main__":
    main()
