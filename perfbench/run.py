#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload compile-cold|simulate|study \
        --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune, runs it, and prints two JSON lines on
standard output: the run record (seed, environment, set-up samples, tail
percentile and sample count), then the result object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones; set-up time (from the launch of a process to the end of
its set-up) and the peak heap through set-up are measured over SETUP_RUNS
launches and reported as their medians. With --trace 1 they are the
per-layer ones. perfbench/README.md describes every metric.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
WORKLOADS = ("compile-cold", "simulate", "study")
SETUP_RUNS = 7
DEADLINE = time.monotonic() + 175  # the whole run must end within 180 s


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def dune():
    found = shutil.which("dune")
    if found:
        return [found]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    fail("dune is not on PATH")


def build():
    if not (
        os.path.isfile(os.path.join(ROOT, "dune-project"))
        and os.path.isdir(os.path.join(ROOT, "lib"))
    ):
        fail("not a checkout of the repository: dune-project or lib/ is missing")
    # Dune's shared cache lives outside the checkout; build without it.
    built = subprocess.run(
        dune() + ["build", "--root", ROOT, "./perfbench/main.exe"],
        cwd=ROOT,
        env=dict(os.environ, DUNE_CACHE="disabled"),
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if built.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def launch(args):
    """Runs main.exe; returns its last output line as JSON and the launch
    time on the wall clock its set-up end is reported on."""
    started = time.time()
    try:
        done = subprocess.run(
            [EXE] + args,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=sys.stderr,
            text=True,
            timeout=max(1.0, DEADLINE - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        fail("main.exe timed out")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("main.exe exited with code %d" % done.returncode)
    return json.loads(lines[-1]), started


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    opts = parser.parse_args()
    build()
    args = [
        "--workload", opts.workload,
        "--seed", str(opts.seed),
        "--seconds", str(opts.seconds),
        "--trace", opts.trace,
    ]
    # The set-up-only launches are split between before and after the timed
    # one, so that their median spans the whole run rather than the few
    # seconds in which a shared host may happen to be slow.
    extra = SETUP_RUNS - 1 if opts.trace == "0" else 0
    launches = [launch(args + ["--setup-only"]) for _ in range(extra // 2)]
    result, started = launch(args)
    launches.append((result, started))
    launches += [launch(args + ["--setup-only"]) for _ in range(extra - extra // 2)]
    setups = [record["setup_end_unix"] - started for record, started in launches]
    heaps = [record["peak_heap_mb"] for record, _ in launches]
    metrics = result["metrics"]
    if opts.trace == "0":
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["peak_heap_mb"] = {"value": statistics.median(heaps), "unit": "MiB"}
    env = dict(result["env"], cpu_count=os.cpu_count())
    print(json.dumps({
        "run": {
            "workload": result["workload"],
            "seed": result["seed"],
            "seconds": opts.seconds,
            "trace": int(opts.trace),
            "env": env,
            "setup_samples_s": setups,
            "peak_heap_samples_mb": heaps,
            "passes": result["passes"],
            "latency_tail_percentile": result["latency_tail_percentile"],
            "latency_tail_samples": result["latency_tail_samples"],
            "failed_ratio": result["failed"] / result["attempted"],
        }
    }))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
