"""One campaign of one workload, in a fresh interpreter.

``run.py`` starts this script once per campaign so every campaign starts
with empty host-side caches (the in-process memo and program caches
and, for campaign-j2, a fresh result-cache directory).  It submits the
workload's cells through ``run_sweep``, times the campaign, checks every
cell's output, and prints one JSON line with the outcome.

    PYTHONPATH=src python3 perfbench/campaign.py --workload design-grid \
        --seed 1 --tmp .perfbench-tmp/x [--trace] [--check]

``--trace`` records layer spans (see tracing.py); ``--check`` also
replays one sampled cell on the native and the reference engine and
compares them field for field, after the timed campaign.
"""

from __future__ import annotations

import argparse
import functools
import glob
import hashlib
import json
import os
import random
import resource
import sys
import time

import cells as bench_cells
import tracing

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

#: the StrandWeaver/Intel x86 TXN geomean speed-up the paper reports.
PAPER_TXN_SPEEDUP = 1.45


def summary_digest(stats) -> str:
    blob = json.dumps(stats.summary(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class EngineProbe(tracing.ProcessState):
    """Counts which engine replayed each cell, in every process.

    ``run_sweep`` forks its pool after this is installed, so workers
    inherit the counting wrappers; each worker writes its counts and its
    peak RSS to ``probe-<pid>.json`` as it exits.
    """

    def _reset(self) -> None:
        self.counts = {"cells": 0, "native": 0, "declined": 0, "profiled": 0}

    def _count(self, key: str) -> None:
        self.touch()
        self.counts[key] += 1

    def install(self) -> None:
        from repro.harness import sweep
        from repro.sim import cnative, machine

        run_native = cnative.run_native

        @functools.wraps(run_native)
        def counted_native(*args, **kwargs):
            per_core = run_native(*args, **kwargs)
            self._count("declined" if per_core is None else "native")
            return per_core

        active_profiler = machine.active_profiler

        @functools.wraps(active_profiler)
        def counted_profiler(*args, **kwargs):
            prof = active_profiler(*args, **kwargs)
            if prof.enabled:
                self._count("profiled")
            return prof

        execute = sweep._execute

        @functools.wraps(execute)
        def counted_execute(cell):
            self._count("cells")
            return execute(cell)

        cnative.run_native = counted_native
        machine.active_profiler = counted_profiler
        sweep._execute = counted_execute

    def flush(self) -> None:
        doc = dict(self.counts)
        doc["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        path = os.path.join(self.out_dir, f"probe-{self.pid}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def totals(self) -> dict:
        """Counts of this process plus every worker; ``worker_rss_kb``
        sums the workers' peak resident sets."""
        out = dict(self.counts, worker_rss_kb=0)
        for path in glob.glob(os.path.join(self.out_dir, "probe-*.json")):
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            for key in self.counts:
                out[key] += doc[key]
            out["worker_rss_kb"] += doc["maxrss_kb"]
        return out


def engine_check(workload: str, probe: dict, executed: int) -> list:
    """Errors if any cell ran on another engine than the workload names."""
    errors = []
    if probe["cells"] != executed:
        errors.append(
            f"engine probe saw {probe['cells']} executed cells, sweep ran {executed}"
        )
    if workload == "phases-ref":
        if probe["profiled"] != executed or probe["native"]:
            errors.append(
                f"phases-ref must replay every cell on the profiled reference "
                f"engine: {probe['profiled']} profiled, {probe['native']} native, "
                f"{executed} cells"
            )
    elif probe["declined"] or probe["native"] != executed:
        errors.append(
            f"native core declined {probe['declined']} replays and ran "
            f"{probe['native']} of {executed} cells"
        )
    return errors


def output_errors(labelled, results, digests) -> dict:
    """Label -> error for every cell that failed or whose summary differs
    from its committed digest."""
    errors = {}
    for (name, _cell), res in zip(labelled, results):
        if not res.ok:
            errors[name] = res.error
        elif digests.get(name) != summary_digest(res.stats):
            errors[name] = (f"summary digest {summary_digest(res.stats)} "
                            f"!= committed {digests.get(name)}")
    return errors


def reference_check(workload: str, seed: int, labelled, results) -> list:
    """Replay one sampled cell natively and on the reference engine."""
    from repro.harness.experiment import generation_for_cell
    from repro.sim.machine import REFERENCE_ENGINE_ENV, Machine
    from repro.prof.phases import PROF_PHASES_ENV

    idx = random.Random(f"check:{workload}:{seed}").randrange(len(labelled))
    name, cell = labelled[idx]
    run = generation_for_cell(cell.benchmark, cell.design, cell.model,
                              cell.workload_cfg())
    saved = {k: os.environ.pop(k, None) for k in (REFERENCE_ENGINE_ENV, PROF_PHASES_ENV)}
    try:
        native = Machine(cell.design, cell.machine_cfg).run(run.program)
        os.environ[REFERENCE_ENGINE_ENV] = "1"
        reference = Machine(cell.design, cell.machine_cfg).run(run.program)
    finally:
        os.environ.pop(REFERENCE_ENGINE_ENV, None)
        for key, value in saved.items():
            if value is not None:
                os.environ[key] = value
    errors = []
    if native.per_core != reference.per_core or native.summary() != reference.summary():
        errors.append(f"{name}: native and reference engines disagree")
    if results[idx].ok and results[idx].stats.per_core != native.per_core:
        errors.append(f"{name}: campaign result differs from the native replay")
    return errors


def design_grid_speedup(labelled, results) -> float:
    from repro.sim.stats import geomean

    by_label = {name: res.stats for (name, _), res in zip(labelled, results) if res.ok}
    ratios = []
    for name, stats in by_label.items():
        if "/strandweaver/" in name:
            base = by_label.get(name.replace("/strandweaver/", "/intel-x86/"))
            if base is not None:
                ratios.append(stats.speedup_over(base))
    return geomean(ratios)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=bench_cells.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tmp", required=True, help="scratch directory of this campaign")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--check", action="store_true")
    args = ap.parse_args()

    from repro.harness import experiment, sweep
    from repro.harness.cachedir import CellCache

    os.makedirs(args.tmp)  # fresh: stale probe or span files must not count
    labelled = bench_cells.cells_for(args.workload, args.seed)
    cells = [cell for _name, cell in labelled]
    jobs = bench_cells.JOBS[args.workload]
    with open(DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)[args.workload]

    probe = EngineProbe(args.tmp)
    probe.install()
    log = None
    if args.trace:
        log = tracing.SpanLog(args.tmp)
        tracing.install(log)

    t0 = time.perf_counter()
    if args.workload == "campaign-j2":
        cache = CellCache(os.path.join(args.tmp, "cache"))
        cold = sweep.run_sweep(cells, jobs=jobs, cache=cache)
        # The warm pass reads the disk cache, as a second `repro sweep`
        # process would; the in-process memo must not answer it.
        experiment.clear_memo()
        warm = sweep.run_sweep(cells, jobs=jobs, cache=cache)
        passes = [cold, warm]
    else:
        passes = [sweep.run_sweep(cells, jobs=jobs)]
    t1 = time.perf_counter()

    own_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if log is not None:
        log.flush()
    counts = probe.totals()
    executed = sum(1 for p in passes for res in p.cells if res.source == "run")
    sim_ops = sum(
        res.stats.total.ops for p in passes for res in p.cells
        if res.ok and res.source == "run"
    )
    # Campaign-level errors fail every cell; cell errors fail their cell.
    errors = engine_check(args.workload, counts, executed)
    cell_errors = {}
    failed_cells = 0
    for p in passes:
        pass_errors = output_errors(labelled, p.cells, digests)
        failed_cells += len(pass_errors)
        cell_errors.update(pass_errors)
    if args.workload == "campaign-j2":
        cold, warm = passes
        if warm.cache_hits != len(cells):
            errors.append(f"warm pass hit the cache {warm.cache_hits}/{len(cells)} times")
        for (name, _), a, b in zip(labelled, cold.cells, warm.cells):
            if a.ok and b.ok and a.stats.summary() != b.stats.summary():
                cell_errors[name] = "warm-pass summary differs from cold pass"
                failed_cells += 1

    info = {}
    if args.check:
        errors += reference_check(args.workload, args.seed, labelled, passes[0].cells)
        if args.workload == "design-grid":
            info["speedup_geomean"] = design_grid_speedup(labelled, passes[0].cells)
            info["paper_speedup"] = PAPER_TXN_SPEEDUP

    attempted = sum(len(p.cells) for p in passes)
    failed = attempted if errors else min(failed_cells, attempted)
    errors += [f"{name}: {msg}" for name, msg in sorted(cell_errors.items())]
    doc = {
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "wall_s": t1 - t0,
        "sim_ops": sim_ops,
        "peak_rss_mb": (own_rss_kb + counts["worker_rss_kb"]) / 1024.0,
        "info": info,
    }
    if log is not None:
        doc["layers"] = tracing.layer_metrics(args.tmp, (t0, t1))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
