#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/main.exe and
bin/pascalr.exe with dune (into _build, with the shared dune cache
disabled), then runs one workload.  The last line of standard output is
the result object; see perfbench/README.md for the workloads and
metrics.  Exits non-zero, without a result line, when the checkout is
incomplete, the build fails or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("division", "oltp-index", "adhoc-serve")
RUN_TIMEOUT_S = 170  # a run must end well within three minutes
BUILD_TIMEOUT_S = 850  # the first build in a fresh checkout


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def stop_group(pgid):
    """Kill every process left in the run's process group and wait
    until none is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)

    # Hermetic inputs: PASCALR_* variables change the library's defaults.
    set_vars = sorted(k for k in os.environ if k.startswith("PASCALR_"))
    if set_vars:
        fail(f"refusing to run with {', '.join(set_vars)} set", 2)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(needed):
            fail(f"{needed} missing: run from the root of a full checkout")

    env = dict(os.environ)
    env["DUNE_CACHE"] = "disabled"
    env["XDG_CACHE_HOME"] = os.path.join(root, "perfbench", "_run", "cache")
    build = [
        "dune", "build", "--root", ".", "--display", "quiet",
        "./perfbench/main.exe", "./bin/pascalr.exe",
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        fail("dune not found on PATH")
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if built.returncode != 0:
        fail("build failed")

    bench = os.path.join("_build", "default", "perfbench", "main.exe")
    pascalr = os.path.join("_build", "default", "bin", "pascalr.exe")
    cmd = [
        bench, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--pascalr", pascalr,
    ]
    sys.stdout.flush()
    # Its own process group, so that the server it starts can be
    # stopped with it whatever happens.
    proc = subprocess.Popen(cmd, start_new_session=True)

    def on_signal(signum, _frame):
        stop_group(proc.pid)
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    stop_group(proc.pid)
    if code != 0:
        fail(f"run failed with exit code {code}")


if __name__ == "__main__":
    main()
