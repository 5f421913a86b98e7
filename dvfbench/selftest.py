#!/usr/bin/env python3
"""Build and run the benchmark's own tests.

Run from the repository root: python3 dvfbench/selftest.py
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4", "--target",
                    "dvfbench_tests"], check=True)
    cpp = subprocess.run([os.path.join(build_dir, "dvfbench_tests")])
    py = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                         os.path.join(HERE, "tests"), "-p", "test_*.py"])
    return 1 if cpp.returncode or py.returncode else 0


if __name__ == "__main__":
    sys.exit(main())
