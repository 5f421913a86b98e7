#!/usr/bin/env python3
"""Build the program and the benchmark binary, then run one workload.

Run from the repository root:

    python3 dvfbench/run.py --workload serve-mix|replay \
        --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR (default .bench_build) and is
incremental, so only the first run in a checkout compiles. The last line of
standard output is the benchmark's JSON result; build output goes to standard
error. Scratch files (traces, journals, the daemon socket) live in
.bench_work and are removed when the run ends.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve-mix", "replay")


def build(build_dir):
    """Configures once, then builds dvfbench and dvfc; exits on failure."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", "4", "--target", "dvfbench", "dvfc"],
        check=True, stdout=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"dvfbench: build failed: {err}", file=sys.stderr)
        return 1

    # Relative paths keep the daemon's socket path short.
    workdir = ".bench_work"
    shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    cmd = [os.path.join(build_dir, "dvfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dvfc", os.path.join(build_dir, "tools", "dvfc"),
           "--repo", ".", "--workdir", workdir]
    # Own session, so a run that overstays can be stopped with the daemon
    # it started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("dvfbench: run exceeded 170 s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    if proc.returncode != 0:
        return proc.returncode or 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
