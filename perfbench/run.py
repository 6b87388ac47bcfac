#!/usr/bin/env python3
"""Build and run Quill's benchmark.

    python3 perfbench/run.py --workload point-serve --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  Builds perfbench/main.exe and
bin/quillsh.exe with dune, then runs main.exe with the same arguments;
its last line of standard output is the run's JSON result.  Build
output goes to standard error.  Every process the run starts (the
benchmark and the quillsh servers it spawns) shares one process group,
which is killed and waited for before this script exits.
"""
import os
import signal
import subprocess
import sys
import time

# A run must finish within 180 s; the first run in a checkout also builds.
RUN_TIMEOUT_S = 170


def build():
    cmd = ["dune", "build", "--root", ".", "./perfbench/main.exe", "./bin/quillsh.exe"]
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return 1


def reap_group(pgid):
    """SIGKILL whatever is left of the run's process group and wait until
    the group is empty."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    if build() != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    proc = subprocess.Popen([exe] + sys.argv[1:], start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        proc.kill()
        proc.wait()
        code = 1
    # Servers the benchmark failed to stop (it stops them on every normal
    # path) are still in its process group.
    reap_group(proc.pid)
    return code


if __name__ == "__main__":
    sys.exit(main())
