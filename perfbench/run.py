#!/usr/bin/env python3
"""Build and run the layered host-time benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (its own Cargo workspace, path dependencies
on the repository's crates) in release mode, into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs the workload in a child process of its
own, so that its peak memory belongs to that workload alone. The child's
report is relayed, and its result line is checked for the keys the
benchmark promises before it is printed again as the last line.
"""

import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("paper-quick", "engine-scale", "ledger-commit")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def parse_args(argv):
    wanted = {"--workload": None, "--seed": None, "--seconds": None, "--trace": None}
    if len(argv) % 2:
        fail("flags come in --name value pairs")
    for flag, value in zip(argv[::2], argv[1::2]):
        if flag not in wanted:
            fail(f"unknown flag {flag}")
        wanted[flag] = value
    missing = [f for f, v in wanted.items() if v is None]
    if missing:
        fail(f"missing {' '.join(missing)}")
    if wanted["--workload"] not in WORKLOADS:
        fail(f"unknown workload {wanted['--workload']}; expected one of {', '.join(WORKLOADS)}")
    return wanted


def run(cmd, timeout, **kwargs):
    """Run cmd to completion in a process group of its own. On timeout, kill
    the whole group (cargo's compilers, perfbench's reference-kernel child)
    and wait for it to end."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            wait_for_group(proc.pid)
            fail(f"{cmd[0]} did not finish within {timeout} s")
    return proc.returncode, out


def wait_for_group(pgid, limit_s=10.0):
    """Wait until no process of the group is left, for at most limit_s."""
    deadline = time.monotonic() + limit_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def check_result(line):
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"the result line is not JSON: {e}")
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        fail("the result line does not have exactly the keys " + ", ".join(sorted(RESULT_KEYS)))
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number of at least 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        fail("failed must be a whole number")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or not isinstance(metric["value"], (int, float)):
            fail(f"metric {name} is malformed")


def main():
    args = parse_args(sys.argv[1:])
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join("perfbench", "Cargo.toml")
    code, _ = run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        BUILD_TIMEOUT_S,
        env=env,
        stdout=sys.stderr,
    )
    if code != 0:
        fail(f"cargo build failed with exit code {code}")
    binary = os.path.join(root, target, "release", "perfbench")
    cmd = [binary, "--scratch", os.path.join(target, "perfbench-scratch")]
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        cmd += [flag, args[flag]]
    code, out = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    lines = out.splitlines()
    if code != 0 or not lines:
        sys.stdout.write(out)
        fail(f"perfbench exited with code {code}")
    check_result(lines[-1])
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
