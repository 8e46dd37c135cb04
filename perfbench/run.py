#!/usr/bin/env python3
"""Build and run the repo benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <soak|stream|fleet|checkpoint> \
        [--seed N] [--seconds S] [--trace 0|1]

Configures and builds the perfbench program, together with the vapres
library from src/, with CMake (Release) into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when the variable is unset. The build directory
must lie inside the current directory. Then runs one workload and passes
its output through; the last line is one JSON object with the keys
correct, attempted, failed and metrics. A traced run (--trace 1) also
writes its spans as Chrome trace_event JSON into <build dir>/traces/.

Exit status: perfbench's (0 = every correctness check passed), 2 when the
build fails, 3 when perfbench exceeds its time limit.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("soak", "stream", "fleet", "checkpoint")
# Every workload's default seed; a performance claim must also hold on
# the held-out seed 2.
DEFAULT_SEED = 1
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def run_child(cmd, timeout):
    """Runs `cmd` in its own process group and returns (code, out, err).

    On a timeout, SIGTERM or SIGINT the whole group is killed and reaped
    before this process goes on or exits, so nothing outlives the run.
    """
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()

    def on_signal(signum, _frame):
        kill_group()
        sys.exit(128 + signum)

    previous = {s: signal.signal(s, on_signal)
                for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group()
        raise
    finally:
        for s, handler in previous.items():
            signal.signal(s, handler)
    return proc.returncode, out, err


def build_dir() -> Path:
    root = Path.cwd().resolve()
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    out = (base if base.is_absolute() else root / base).resolve() / "perfbench"
    if root not in out.parents:
        sys.exit(f"perfbench: build directory {out} is outside {root}")
    return out


def build(source: Path, tree: Path) -> Path:
    steps = []
    if not (tree / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(source), "-B", str(tree),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(tree), "-j", "4",
                  "--target", "perfbench"])
    for cmd in steps:
        try:
            code, out, err = run_child(cmd, BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: build step failed: {e}", file=sys.stderr)
            sys.exit(2)
        if code != 0:
            sys.stderr.write(out[-4000:] + err[-4000:])
            print("perfbench: build failed", file=sys.stderr)
            sys.exit(2)
    return tree / "perfbench"


def valid_result(line: str) -> bool:
    try:
        r = json.loads(line)
    except ValueError:
        return False
    return (isinstance(r, dict)
            and set(r) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(r["attempted"], int) and r["attempted"] >= 1
            and isinstance(r["failed"], int)
            and isinstance(r["metrics"], dict))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    tree = build_dir()
    exe = build(Path(__file__).resolve().parent, tree)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = tree / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{seed}.trace.json")]
    try:
        code, out, err = run_child(cmd, RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3
    sys.stderr.write(err)
    lines = out.rstrip("\n").split("\n")
    if not valid_result(lines[-1]):
        sys.stderr.write(out)
        print("perfbench: the program printed no valid result",
              file=sys.stderr)
        return code or 1
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
