#!/usr/bin/env python3
"""Build (on first use) and run the end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The C++ benchmark is configured and built with
CMake under $CARGO_TARGET_DIR (default `.bench_build`) from the sources in
this checkout; later runs only rebuild what changed. Its output is passed
through unchanged, so the last stdout line is the JSON result. The exit
status is the benchmark's (non-zero when a correctness gate fails) or, when
the build fails, non-zero without a result line.
"""

import argparse
import fcntl
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir() -> pathlib.Path:
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target


def run_logged(cmd, log, env, timeout):
    """Run `cmd` with its output appended to `log`; returns the exit code."""
    with open(log, "ab") as out:
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT)
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return 124


def build(target: pathlib.Path, env) -> pathlib.Path:
    cmake_dir = target / "perfbench"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    log = target / "perfbench-build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(target / "perfbench-build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (cmake_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                          str(cmake_dir), "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(cmake_dir), "--target",
                      "perfbench", "-j", jobs])
        for step in steps:
            if run_logged(step, log, env, BUILD_TIMEOUT_S) != 0:
                tail = log.read_text(errors="replace").splitlines()[-30:]
                sys.stderr.write("perfbench: build failed; last lines of "
                                 f"{log}:\n" + "\n".join(tail) + "\n")
                if not (cmake_dir / "perfbench").exists():
                    # A failed first configure must not stick.
                    (cmake_dir / "CMakeCache.txt").unlink(missing_ok=True)
                sys.exit(3)
    return cmake_dir / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = build_dir()
    tmp = target / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    binary = build(target, env)

    work = target / "runs" / f"{args.workload}-seed{args.seed}"
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", repr(args.seconds), "--trace",
           str(args.trace), "--work-dir", str(work)]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run exceeded "
                         f"{RUN_TIMEOUT_S} s and was stopped\n")
        return 124


if __name__ == "__main__":
    sys.exit(main())
