#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload fwd-gwlb --seed 1 --seconds 20 --trace 0

Arguments pass through to the benchmark binary (see main.go). The build and
Go's caches live under $CARGO_TARGET_DIR (default .bench_build) at the root,
so nothing is written outside the checkout. The exit code is the
benchmark's; a failed build exits 1 without printing a result.
"""
import os
import shutil
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOMODCACHE": os.path.join(out, "gomodcache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-buildvcs=false",
        "GOWORK": "off",
        "GOENV": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(out, "perfbench")
    go = shutil.which("go") or "/usr/local/go/bin/go"
    try:
        build = subprocess.run([go, "build", "-o", binary, "."],
                               cwd=os.path.join(root, "perfbench"), env=env,
                               stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--spans" not in args:
        args += ["--spans", os.path.join(out, "spans")]
    return subprocess.run([binary] + args, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
