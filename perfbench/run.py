#!/usr/bin/env python3
"""Build the qsyn CLI and the perfbench harness from source, then run one
benchmark workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds go to $CARGO_TARGET_DIR (default: .bench_build in the checkout).
The harness's output passes through unchanged; its last line is the JSON
result. Exits non-zero, printing no result, when either build fails.

The harness (and the serve daemon it spawns) runs with glibc's mmap
threshold pinned at its default, 128 KiB. Left dynamic, glibc moves the
threshold as blocks are freed, so the same workload flips between
mapping fresh pages for every QMDD compute table and reusing heap
memory, depending on allocation history; grid-stream runs then differ by
up to 2x from seed to seed. README.md ("Noise") has the measurements.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(manifest, extra, env):
    """Release-build one manifest; cargo's own output goes to stderr."""
    if not os.path.isfile(manifest):
        print(f"perfbench: missing {manifest}; run from a full checkout", file=sys.stderr)
        return False
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    return subprocess.run(cmd + extra, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def revision():
    """The checkout's git revision, when the checkout is itself a git
    repository (not merely nested inside one)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.splitlines()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(ROOT):
        return out[1]
    return "unknown"


def main():
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    if not build(os.path.join(ROOT, "Cargo.toml"), ["--bin", "qsyn"], env):
        return 1
    if not build(os.path.join(HERE, "Cargo.toml"), [], env):
        return 1
    env["MALLOC_MMAP_THRESHOLD_"] = str(128 * 1024)
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--qsyn", os.path.join(release, "qsyn"),
        "--revision", revision(),
    ]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
