#!/usr/bin/env python3
"""Print the wall time and peak RSS of each test binary of the workspace.

Builds the test binaries of `cargo test --workspace` (debug unless
`--release`), then runs them one at a time, each with the arguments
`cargo test` would give it, and prints one row per binary: its wall time
and its peak resident set size. The peak is the child's own resource
usage as `wait4` returns it, the figure `getrusage(RUSAGE_CHILDREN)`
accumulates for that child alone, so no reading of one binary leaks into
the next. Linux counts the child's peak from the fork, so no binary
reads below this script's own RSS (about 15 MB). Doc tests are not
binaries and are not run.

With `--per-test NAME` the binaries whose target name is NAME are run
once per test instead (`--exact`, one test at a time, ignored tests
left out, as `cargo test` does), which shows the test that peaks.

    python3 scripts/test_footprint.py [--release] [--only NAME ...] [--per-test NAME]

Run it from the repository root. It changes no machine setting and
never runs more than one test binary at a time; the environment is
passed through, so `CACHE_FUZZ_CASES=60` reproduces CI's debug step.
"""

import argparse
import json
import os
import subprocess
import sys
import time


def test_binaries(release):
    """(label, target name, executable, package dir) of every test binary,
    in build order."""
    cmd = ["cargo", "test", "--workspace", "--no-run", "--message-format=json"]
    if release:
        cmd.append("--release")
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True).stdout
    found = []
    for line in out.splitlines():
        msg = json.loads(line)
        if msg.get("reason") != "compiler-artifact" or not msg.get("executable"):
            continue
        if not msg["profile"]["test"]:
            continue
        target = msg["target"]
        # `path+file:///dir#name@version`, or `...#version` when the
        # package is named after its directory.
        source, _, spec = msg["package_id"].partition("#")
        package = spec.split("@")[0] if "@" in spec else source.rsplit("/", 1)[-1]
        label = f"{package}::{target['name']} ({target['kind'][0]})"
        package_dir = os.path.dirname(msg["manifest_path"])
        found.append((label, target["name"], msg["executable"], package_dir))
    return found


def run(executable, args, package_dir):
    """Run one binary to completion from its package's directory, as
    `cargo test` does; return (exit code, wall s, peak RSS MB)."""
    env = dict(os.environ, CARGO_MANIFEST_DIR=package_dir)
    start = time.monotonic()
    child = subprocess.Popen(
        [executable, *args], stdout=subprocess.DEVNULL, cwd=package_dir, env=env
    )
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.monotonic() - start
    # `Popen` would wait again otherwise; the child is already reaped.
    child.returncode = os.waitstatus_to_exitcode(status)
    # Linux reports ru_maxrss in KiB.
    return child.returncode, wall, usage.ru_maxrss / 1024.0


def list_tests(executable):
    out = subprocess.run(
        [executable, "--list", "--format=terse"], stdout=subprocess.PIPE, check=True, text=True
    ).stdout
    return [line[: -len(": test")] for line in out.splitlines() if line.endswith(": test")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--release", action="store_true", help="measure the release test binaries")
    ap.add_argument("--only", action="append", help="run only binaries with this target name")
    ap.add_argument("--per-test", metavar="NAME", help="run binary NAME once per test")
    opts = ap.parse_args()

    rows = []
    for label, name, exe, package_dir in test_binaries(opts.release):
        if opts.only and name not in opts.only:
            continue
        if opts.per_test == name:
            for test in list_tests(exe):
                code, wall, rss = run(exe, ["--exact", test, "-q"], package_dir)
                rows.append((f"{label} {test}", code, wall, rss))
                print(f"{wall:9.1f} s {rss:9.1f} MB  {label} {test}", flush=True)
        else:
            code, wall, rss = run(exe, ["-q"], package_dir)
            rows.append((label, code, wall, rss))
            print(f"{wall:9.1f} s {rss:9.1f} MB  {label}", flush=True)
    if not rows:
        sys.exit("no test binary matched")

    print()
    print("| binary | wall s | peak RSS MB | exit |")
    print("|---|---:|---:|---:|")
    for label, code, wall, rss in rows:
        print(f"| {label} | {wall:.1f} | {rss:.0f} | {code} |")
    label, _, _, rss = max(rows, key=lambda r: r[3])
    print(f"\ntotal {sum(r[2] for r in rows):.1f} s; peak {rss:.0f} MB in {label}")
    sys.exit(max(1 if r[1] else 0 for r in rows))


if __name__ == "__main__":
    main()
