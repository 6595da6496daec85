#!/usr/bin/env python3
"""Builds xmem-cli and the benchmark harness from source, then runs one
benchmark run and relays its report; the last stdout line is the JSON
result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: admit_hot, fleet_hot, cold_pipeline, churn_zipf. Build
products go to $CARGO_TARGET_DIR (default: .bench_build at the
repository root). Exits non-zero without a result when the repository's
sources are missing or the build fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def cargo_build(args, env):
    built = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if built.returncode != 0:
        fail(f"cargo build {' '.join(args)} failed")


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        if head.returncode == 0:
            return head.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates")
    ):
        fail("the repository's sources are not next to the benchmark")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    cargo_build(["-p", "xmem", "--bin", "xmem-cli"], env)
    cargo_build(["--manifest-path", os.path.join(BENCH, "Cargo.toml")], env)
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True)

    harness = subprocess.run(
        [
            os.path.join(target, "release", "perfbench"),
            "--server", os.path.join(target, "release", "xmem-cli"),
            "--fleet", os.path.join(BENCH, "fleet.json"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", args.trace,
            "--commit", source_id(),
            "--rustc", rustc.stdout.strip() or "unknown",
        ],
        cwd=ROOT,
    )
    sys.exit(harness.returncode)


if __name__ == "__main__":
    main()
