#!/usr/bin/env python3
"""Build ctj_benchmark from this checkout and run one workload.

    python3 ctjbench/run.py --workload train --seed 1 --seconds 12 --trace 0

Run from the repository root. The build goes to .bench_build/ (configured
once, then rebuilt incrementally on every call). The benchmark's stdout is
passed through; its last line is the JSON result object. Each run also
writes a full record (metrics, checks, git_rev, host_cpus, simd_level,
workers, seed) to .bench_build/runs/ or --out, and a traced run writes its
spans to .bench_build/traces/<workload>.jsonl. The exit code is the
benchmark's: non-zero when the build fails or any correctness check fails.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("train", "eval", "serve_sweep", "serve_stream")
RUN_TIMEOUT_S = 170


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build(root: Path, build_dir: Path) -> Path:
    hook = root / "ctjbench" / "attach.cmake"
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(root), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release",
             f"-DCMAKE_PROJECT_ctj_INCLUDE={hook}"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "ctj_benchmark",
         "-j", jobs],
        check=True, stdout=sys.stderr)
    return build_dir / "ctj_benchmark"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for the run record "
                        "(default .bench_build/runs)")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        log(f"no repository sources under {root}; run from a full checkout")
        return 2
    build_dir = root / ".bench_build"
    try:
        binary = build(root, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        log("build failed:", e)
        return 3

    out_dir = Path(args.out) if args.out else build_dir / "runs"
    out_dir.mkdir(parents=True, exist_ok=True)
    record = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--json", str(record),
           "--scratch", str(build_dir / "scratch")]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(traces / f"{args.workload}.jsonl")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 4


if __name__ == "__main__":
    sys.exit(main())
