#!/usr/bin/env python3
"""Build and run the memx benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper_mpeg --seed 1 --seconds 30 --trace 0

The first run configures and builds perfbench/ (the memx libraries plus
memx_perfbench) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later runs only re-check the build. Generated inputs go to
.bench_work/ and Chrome traces to .bench_out/. The last stdout line is
the JSON result; on any build or run failure the script exits non-zero
without printing one. See perfbench/README.md for the workloads and
metrics.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_mpeg", "policy_sweep", "trace_stream", "serve_mix")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


def build(bench_dir: Path, build_dir: Path) -> Path:
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "memx_perfbench",
         "-j", BUILD_JOBS],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return build_dir / "memx_perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--ops", type=int, default=0,
                        help="fixed operation count instead of --seconds")
    parser.add_argument("--record", action="store_true",
                        help="rewrite perfbench/expected from this build")
    args = parser.parse_args()

    bench_dir = Path(__file__).resolve().parent
    # memx_perfbench reads perfbench/expected and writes .bench_work/ and
    # .bench_out/ relative to the repository root.
    os.chdir(bench_dir.parent)
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(bench_dir, build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--ops", str(args.ops)]
    if args.record:
        cmd.append("--record")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=None if args.record else RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if args.record:
        sys.stdout.write(proc.stdout)
        return proc.returncode
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: memx_perfbench exited with {proc.returncode} "
              "without a result line", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
