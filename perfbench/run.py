#!/usr/bin/env python3
"""The repo benchmark: builds the programs from source and runs a workload.

    python3 perfbench/run.py --workload serve_rw --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --test                  # the stream determinism test

Run from the root of a source checkout. Build products, scratch files and
traces go to .bench_build/ there. The last line of stdout is the run's
result as one JSON object (see perfbench/README.md).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["serve_rw", "routed_fanout", "mine_offline"]
TARGETS = ["perfbench", "bbsmined", "bbsrouter", "bbsmine_cli"]
RUN_TIMEOUT_S = 175


def build(root: Path, build_dir: Path, targets) -> None:
    """Configures and builds `targets`; progress goes to stderr."""
    cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
           "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (build_dir / "Makefile").exists():
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j",
                    str(os.cpu_count() or 1), "--target", *targets],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def run_workload(root: Path, build_dir: Path, args, workload: str) -> str:
    """Runs one workload; returns its result line (raises on failure)."""
    bench_dir = root / ".bench_build"
    cmd = [str(build_dir / "perfbench"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--bin-dir", str(build_dir / "bbsmine" / "tools"),
           "--work-dir", str(bench_dir / "runs" / f"{workload}-{os.getpid()}"),
           "--trace-path", str(bench_dir / "traces" / f"{workload}.trace.json")]
    (bench_dir / "traces").mkdir(parents=True, exist_ok=True)
    # A session of its own, so a timeout or a signal to this script takes
    # the daemons down with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def stop(signum, _frame):
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(128 + signum)

    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
    finally:
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, signal.SIG_DFL)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        raise RuntimeError(f"{workload}: exited {proc.returncode}")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return lines[-1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own test")
    args = parser.parse_args()
    if not args.test and args.workload is None:
        parser.error("--workload is required")

    root = Path(__file__).resolve().parent.parent
    build_dir = root / ".bench_build" / "perfbench"
    try:
        if args.test:
            build(root, build_dir, ["perfbench_stream_test"])
            return subprocess.run([str(build_dir / "perfbench_stream_test")]
                                  ).returncode
        build(root, build_dir, TARGETS)
        if args.workload != "all":
            print(run_workload(root, build_dir, args, args.workload))
            return 0
        results = {w: json.loads(run_workload(root, build_dir, args, w))
                   for w in WORKLOADS}
        print(json.dumps(results))
        return 0
    except (subprocess.CalledProcessError, RuntimeError, OSError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
