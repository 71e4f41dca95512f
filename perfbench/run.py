#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (its own Cargo workspace, depending on the
repository's crates by path) in release mode, then runs one workload. The
last line of standard output is the JSON result. Build output goes to
standard error. The build directory is `$CARGO_TARGET_DIR`, or
`.bench_build` when that is unset; store files and traces live under
`.bench_build/perfbench-data`.
"""

import os
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def parse(argv):
    opts = {}
    it = iter(argv)
    for flag in it:
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            raise ValueError(f"unknown argument {flag!r}")
        value = next(it, None)
        if value is None:
            raise ValueError(f"{flag} needs a value")
        opts[flag] = value
    missing = {"--workload", "--seed", "--seconds", "--trace"} - opts.keys()
    if missing:
        raise ValueError(f"missing {', '.join(sorted(missing))}")
    int(opts["--seed"])
    float(opts["--seconds"])
    if opts["--trace"] not in ("0", "1"):
        raise ValueError("--trace must be 0 or 1")
    return opts


def main():
    try:
        opts = parse(sys.argv[1:])
    except ValueError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    root = Path(__file__).resolve().parent.parent
    manifest = root / "perfbench" / "Cargo.toml"
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", str(manifest)],
            cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    binary = target / "release" / "perfbench"
    data = root / ".bench_build" / "perfbench-data"
    cmd = [str(binary)]
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        cmd += [flag, opts[flag]]
    cmd += ["--data-dir", str(data)]
    sys.stdout.flush()
    try:
        run = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: workload exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
