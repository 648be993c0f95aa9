#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, print its result.

Run from the repository root:

    python3 perfbench/run.py --workload fleet-clean --seed 2020 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 2020 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

It builds the benchmark (`perfbench/`, a cargo package of its own) and
the product `fleet` binary in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs the workload. The last line of
stdout is the result object (`correct`, `attempted`, `failed`,
`metrics`); build output goes to stderr. The exit code is non-zero when
the build fails, an output check fails or the run overruns its time
limit. `--all` runs every workload in turn and exits non-zero if any run
did. `--self-test` runs the benchmark's unit and smoke tests and
checks that every workload reports exactly the metrics BENCHMARK.json
names.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ["fleet-clean", "fleet-net", "policy-search", "paper-iss"]
# A run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170
ROOT = Path.cwd()


def fail(msg, code):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build(target):
    """Builds the benchmark and the fleet binary; all output to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    steps = [
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", "perfbench/Cargo.toml"],
        ["cargo", "build", "--release", "--offline", "-p", "iw-bench", "--bin", "fleet"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}", 3)
    return target / "release" / "iw-perfbench", target / "release" / "fleet"


def run_bench(bench, fleet, target, argv, capture=False, timeout=RUN_TIMEOUT_S):
    """Runs the benchmark binary in its own process group, so a timeout
    also stops the fleet processes it started."""
    out_dir = target / "perfbench"
    cmd = [str(bench), *argv, "--fleet-bin", str(fleet), "--out-dir", str(out_dir)]
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {timeout} s: {' '.join(argv)}", 4)
    return proc.returncode, (out.decode() if capture else "")


def self_test(bench, fleet, target):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target), PERFBENCH_FLEET_BIN=str(fleet))
    tests = subprocess.run(
        ["cargo", "test", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
        cwd=ROOT, env=env)
    if tests.returncode != 0:
        fail("cargo test failed", 1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if [w["name"] for w in spec["workloads"]] != WORKLOADS:
        fail("BENCHMARK.json workloads differ from run.py's", 1)
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            argv = ["--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", trace, "--size", "tiny"]
            code, out = run_bench(bench, fleet, target, argv, capture=True)
            result = json.loads(out.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if code != 0 or not result["correct"] or got != want[trace]:
                fail(f"{workload} trace={trace}: exit {code}, result {result}", 1)
            print(f"self-test: {workload} trace={trace} ok ({len(got)} metrics)")
    print("self-test: ok")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=2020)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--all", action="store_true", help="run every workload in turn")
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    if not (a.self_test or a.all) and a.workload is None:
        p.error("--workload, --all or --self-test is required")
    # The benchmark builds the program from the checkout's sources.
    for needed in ("Cargo.toml", "crates/bench/Cargo.toml", "perfbench/Cargo.toml"):
        if not (ROOT / needed).is_file():
            fail(f"no {needed} under {ROOT}: run from the repository root", 2)

    target = target_dir()
    started = time.monotonic()
    bench, fleet = build(target)
    if a.self_test:
        self_test(bench, fleet, target)
        return
    worst = 0
    for workload in WORKLOADS if a.all else [a.workload]:
        argv = ["--workload", workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
                "--trace", a.trace]
        # The first run in a checkout also builds; later runs keep 170 s.
        timeout = max(RUN_TIMEOUT_S - (time.monotonic() - started), 60)
        code, _ = run_bench(bench, fleet, target, argv, timeout=timeout)
        worst = worst or code
        started = time.monotonic()
    sys.exit(worst)


if __name__ == "__main__":
    main()
