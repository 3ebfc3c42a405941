"""StrandWeaver reproduction benchmark: one command, four workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The workloads are regions-sfr,
design-grid, campaign-j2 and phases-ref (cells.py).  One closed-loop
client runs campaigns, each in a fresh interpreter (campaign.py), until
``--seconds`` are used, after a warm-up that compiles every ``.pyc`` and
builds the native core.  ``--trace 0`` prints the end-to-end metrics,
each the median over the run's campaigns; ``--trace 1`` alternates
traced and untraced campaigns and prints the per-layer metrics
(tracing.py).  The last line of standard output is the JSON result.
README.md in this directory defines every metric and output check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: the program under test, relative to the checkout root.
SRC = "src"

#: fewest campaigns a run makes (more if ``--seconds`` allows).
MIN_CAMPAIGNS = 3

#: fresh-interpreter starts measured before each campaign.
SETUP_STARTS = 2

#: a campaign process taking longer than this is killed.
CAMPAIGN_TIMEOUT_S = 120

SETUP_PROBE = (
    "import time, repro\n"
    "from repro.sim import cnative\n"
    "ok = cnative.available()\n"
    "print(time.perf_counter(), ok)\n"
)

END_TO_END_UNITS = {
    "cells_per_s": "1/s",
    "sim_ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

LAYER_UNITS = {
    "workloads.generate_s": "s",
    "workloads.generate_calls": "count",
    "workloads.emit_ops_per_s": "1/s",
    "lang.specialize_s": "s",
    "lang.specialize_calls": "count",
    "sim.compile_s": "s",
    "sim.native_s": "s",
    "sim.native_cells": "count",
    "sim.native_declines": "count",
    "sim.native_ops_per_s": "1/s",
    "sim.pyfast_cells": "count",
    "sim.reference_s": "s",
    "sim.reference_cells": "count",
    "sim.reference_ops_per_s": "1/s",
    "sim.stats_marshal_s": "s",
    "harness.sweep.transfer_s": "s",
    "harness.cachedir.store_s": "s",
    "harness.cachedir.lookup_s": "s",
    "harness.cachedir.hit_ratio": "ratio",
    "harness.sweep.worker_busy_s": "s",
    "harness.sweep.parallel_efficiency": "ratio",
    "harness.experiment.canonical_reuse": "ratio",
    "harness.experiment.programs_held": "count",
    "trace.coverage": "ratio",
    "trace.overhead": "s",
}


class BenchError(Exception):
    """The benchmark could not run (not a wrong program output)."""


def child_env(tmp: str) -> dict:
    """Environment of every child: the checkout's ``src`` on the path,
    temporary files inside the checkout, a fixed hash seed, and no
    ``REPRO_*`` override that could pick another engine than the one a
    workload names."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.abspath(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = tmp
    return env


def _descendants(pid: int) -> list:
    """Every live descendant of ``pid``, such as a campaign's pool workers."""
    found = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as fh:
                kids = [int(kid) for kid in fh.read().split()]
        except OSError:
            continue
        for kid in kids:
            found += [kid] + _descendants(kid)
    return found


def run_child(cmd, env, timeout=CAMPAIGN_TIMEOUT_S) -> str:
    """Run ``cmd`` and return its stdout.  The child stays in this
    process group, so whoever stops the benchmark stops it too; on a
    timeout it is killed with all its descendants."""
    proc = subprocess.Popen(
        cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        for pid in _descendants(proc.pid) + [proc.pid]:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        proc.communicate()
        raise BenchError(f"{cmd[1:3]} exceeded {timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1:3]} exited {proc.returncode}:\n{err[-2000:]}")
    return out


def warm_up(env: dict) -> bool:
    """Compile every ``.pyc`` and build the native core before timing;
    return whether ``cnative.available()`` holds."""
    run_child([sys.executable, "-m", "compileall", "-q", SRC], env, timeout=600)
    out = run_child([sys.executable, "-c", SETUP_PROBE], env, timeout=600)
    return out.split()[-1] == "True"


def setup_time(env: dict) -> float:
    """Seconds from spawning a fresh interpreter until it has imported
    ``repro`` and loaded the native core (``perf_counter`` is the
    system-wide monotonic clock, so the child's reading is comparable)."""
    t0 = time.perf_counter()
    out = run_child([sys.executable, "-c", SETUP_PROBE], env)
    return float(out.split()[0]) - t0


def campaign(args, env, tmp: str, index: int, traced: bool, check: bool) -> dict:
    work = os.path.join(tmp, f"campaign-{index}")
    cmd = [
        sys.executable, os.path.join(HERE, "campaign.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--tmp", work,
    ]
    if traced:
        cmd.append("--trace")
    if check:
        cmd.append("--check")
    run_env = dict(env)
    if args.workload == "phases-ref":
        run_env["REPRO_PROF_PHASES"] = "1"
    try:
        out = run_child(cmd, run_env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return json.loads(out.strip().splitlines()[-1])


def measure(args, env, tmp: str):
    """Run campaigns until ``--seconds`` are used; return (campaign
    docs, traced flags, setup samples)."""
    docs, traced_flags, setup = [], [], []
    durations = []
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        index = len(docs)
        if not args.trace:
            setup += [setup_time(env) for _ in range(SETUP_STARTS)]
        traced = bool(args.trace) and index % 2 == 1
        t0 = time.perf_counter()
        docs.append(campaign(args, env, tmp, index, traced, check=index == 0))
        traced_flags.append(traced)
        durations.append(time.perf_counter() - t0)
        done = len(docs) >= MIN_CAMPAIGNS and (not args.trace or len(docs) % 2 == 0)
        # Stop before a campaign as slow as the slowest so far would
        # overrun the deadline.
        if done and time.perf_counter() + max(durations) > deadline:
            return docs, traced_flags, setup


def end_to_end(docs, setup) -> dict:
    med = statistics.median
    return {
        "cells_per_s": med([(d["attempted"] - d["failed"]) / d["wall_s"] for d in docs]),
        "sim_ops_per_s": med([d["sim_ops"] / d["wall_s"] for d in docs]),
        "peak_rss_mb": med([d["peak_rss_mb"] for d in docs]),
        "setup_s": med(setup),
    }


def per_layer(docs, traced_flags) -> dict:
    traced = [d for d, t in zip(docs, traced_flags) if t]
    plain = [d for d, t in zip(docs, traced_flags) if not t]
    out = {
        name: statistics.median([d["layers"][name] for d in traced])
        for name in LAYER_UNITS
        if name != "trace.overhead"
    }
    out["trace.overhead"] = (
        statistics.median([d["wall_s"] for d in traced])
        - statistics.median([d["wall_s"] for d in plain])
    )
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("regions-sfr", "design-grid", "campaign-j2", "phases-ref"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program under test at ./{SRC}/repro; "
              "run from the root of a checkout", file=sys.stderr)
        return 2

    tmp = os.path.abspath(os.path.join(".perfbench-tmp", str(os.getpid())))
    os.makedirs(tmp, exist_ok=True)
    env = child_env(tmp)
    try:
        native_ok = warm_up(env)
        docs, traced_flags, setup = measure(args, env, tmp)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(".perfbench-tmp")
        except OSError:
            pass

    attempted = sum(d["attempted"] for d in docs)
    failed = sum(d["failed"] for d in docs)
    if not native_ok:
        # Timing another engine than the one the workloads name would
        # read as a program regression: fail every cell instead.
        print("perfbench: cnative.available() is false: the native replay "
              "core did not build or load", file=sys.stderr)
        failed = attempted
    for d in docs:
        for err in d["errors"]:
            print(f"perfbench: output check failed: {err}", file=sys.stderr)
    info = docs[0]["info"]
    if "speedup_geomean" in info:
        err = info["speedup_geomean"] / info["paper_speedup"] - 1.0
        print(f"design-grid StrandWeaver/intel-x86 geomean speed-up "
              f"{info['speedup_geomean']:.3f}x vs paper {info['paper_speedup']}x "
              f"(model error {err:+.1%}; information only)")

    if args.trace:
        values, units = per_layer(docs, traced_flags), LAYER_UNITS
    else:
        values, units = end_to_end(docs, setup), END_TO_END_UNITS
    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
