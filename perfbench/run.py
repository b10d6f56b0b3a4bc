#!/usr/bin/env python3
"""Run one workload of the service benchmark and print its result.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the driver from source into
perfbench/.build (CMake), runs the self-test of the output checks, runs the
workload in a fresh directory under perfbench/.runs (removed on every exit
path), validates the run's metrics-registry dump with metrics_check, and
prints one JSON line: {"correct", "attempted", "failed", "metrics"}.

The program runs with its defaults: every OTB_* variable is removed from the
environment.  `--knob NAME=VALUE` sets one back, for reference arms only
(README.md "Reference figures").

Any failure prints "svcbench: workload=W phase=P: reason" to stderr and
exits non-zero; P is one of build, setup, measure, check.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = BENCH / ".build"
RUNS = BENCH / ".runs"
WORKLOADS = ("kv-read-large", "jobs-contended", "kv-durable-net")
RUN_TIMEOUT_S = 170  # the whole run, build excluded, must end well inside 180 s


class Failure(Exception):
    def __init__(self, phase, reason):
        super().__init__(reason)
        self.phase = phase


def build():
    if not (ROOT / "src" / "service" / "service.h").is_file():
        raise Failure("build", f"library sources not found under {ROOT / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "-j", "2"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=880)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise Failure("build", f"{' '.join(cmd[:2])} exited {proc.returncode}")
    selftest = subprocess.run([str(BUILD / "svcbench_selftest")], stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=60)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout)
        raise Failure("build", "the self-test of the output checks failed")


def run_child(cmd, env, phase, deadline, capture):
    """Run one driver process in its own process group; kill the group on
    timeout or interruption so nothing is left running."""
    proc = subprocess.Popen(cmd, env=env, start_new_session=True,
                            stdout=subprocess.PIPE if capture else subprocess.DEVNULL)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise Failure(phase, "timed out or interrupted; process group killed")
    if proc.returncode != 0:
        raise Failure(phase, f"driver exited {proc.returncode}")
    return out.decode() if capture else ""


def run(args):
    env = {k: v for k, v in os.environ.items() if not k.startswith("OTB_")}
    for knob in args.knob:
        name, sep, value = knob.partition("=")
        if not sep or not name.startswith("OTB_"):
            raise Failure("setup", f"--knob wants OTB_NAME=VALUE, got {knob!r}")
        env[name] = value
    build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    RUNS.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS))
    try:
        driver = [str(BUILD / "svcbench"), "--workload", args.workload,
                  "--run-dir", str(run_dir)]
        if args.workload == "kv-durable-net":
            run_child(driver + ["--prepare"], env, "setup", deadline, capture=False)
        out = run_child(driver + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                                  "--trace", str(args.trace)],
                        env, "measure", deadline, capture=True)
        lines = out.strip().splitlines()
        if not lines:
            raise Failure("measure", "driver printed no result")
        result = json.loads(lines[-1])
        domains = ["otb.service", "otb.tx"]
        if args.workload == "kv-durable-net":
            domains.append("otb.service.net")
        check = subprocess.run([str(BUILD / "metrics_check"), "--validate",
                                str(run_dir / "metrics.json")] + domains,
                               stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                               timeout=60)
        if check.returncode != 0:
            sys.stderr.write(check.stdout)
            sys.stderr.write(f"svcbench: workload={args.workload} phase=check: "
                             "metrics_check --validate failed on the registry dump\n")
            result["correct"] = False
        return result
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def interrupt(signum, frame):
    raise KeyboardInterrupt


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--knob", action="append", default=[],
                        help="OTB_NAME=VALUE set for the program (reference arms only)")
    args = parser.parse_args()
    # SIGTERM unwinds like Ctrl-C, so the finally blocks kill and clean up.
    signal.signal(signal.SIGTERM, interrupt)
    try:
        result = run(args)
    except Failure as f:
        sys.stderr.write(f"svcbench: workload={args.workload} phase={f.phase}: {f}\n")
        return 1
    except KeyboardInterrupt:
        sys.stderr.write(f"svcbench: workload={args.workload} phase=measure: interrupted\n")
        return 1
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
