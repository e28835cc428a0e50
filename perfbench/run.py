#!/usr/bin/env python3
"""Build and run the QOC end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package in release mode (into `$CARGO_TARGET_DIR`,
default `.bench_build`), then runs it with the given arguments plus the host
fields it cannot learn itself (rustc version, source revision). The last line
of standard output is the result object. Build failures exit non-zero without
printing a result.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Inputs of the build, hashed when the checkout is not a git repository.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]
SKIP_DIRS = {"target", ".bench_build", ".git", "__pycache__"}


def source_revision():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
            )
            return "git:" + out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for entry in SOURCES:
        path = os.path.join(ROOT, entry)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "sha256:" + digest.hexdigest()[:16]


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    run = subprocess.run(
        [binary, *sys.argv[1:],
         "--out-dir", os.path.join(target, "perfbench-report"),
         "--rustc", rustc_version(),
         "--revision", source_revision()],
        env=env, cwd=ROOT,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
