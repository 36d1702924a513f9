#!/usr/bin/env python3
"""Benchmark entry point for hsq.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload serve-read --seed 1 --seconds 10 --trace 0

Builds the `hsq` binary and the benchmark program from source with dune,
then runs one workload.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Scratch
files go to .perfbench_work/ in the checkout; only the span dumps of
traced runs are left there afterwards.  See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("serve-read", "accurate-disk")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORK_DIR = ".perfbench_work"


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def clean_work_dir():
    if not os.path.isdir(WORK_DIR):
        return
    for entry in os.listdir(WORK_DIR):
        path = os.path.join(WORK_DIR, entry)
        if os.path.isdir(path) and not os.path.islink(path):
            shutil.rmtree(path, ignore_errors=True)
        elif not entry.startswith("spans-"):
            os.remove(path)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for path in ("dune-project", "bin/hsq_cli.ml", "lib/serve/server.ml", "perfbench/dune"):
        if not os.path.exists(path):
            die(f"run from the root of an hsq checkout ({path} is missing)")
    dune = shutil.which("dune")
    if dune is None:
        die("dune is not on PATH")

    targets = ["./bin/hsq_cli.exe", "./perfbench/bench.exe"]
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", *targets],
            stdout=sys.stderr,
            stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        die(f"build did not finish within {BUILD_TIMEOUT_S} s", 1)
    if build.returncode != 0:
        die("build failed", 1)

    hsq = os.path.abspath("_build/default/bin/hsq_cli.exe")
    bench = os.path.abspath("_build/default/perfbench/bench.exe")
    cmd = [
        bench,
        "--hsq", hsq,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    # Its own session, so the daemons it forks can be stopped with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc)
        proc.wait()
        clean_work_dir()
        die(f"run did not finish within {RUN_TIMEOUT_S} s", 1)
    kill_group(proc)
    clean_work_dir()
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
