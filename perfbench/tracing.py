"""Layer spans for the traced run, recorded from outside the program.

:func:`install` wraps the public entry point of each layer (trace
generation, specialization, compilation to flat arrays, the three engine
tiers, stats marshalling, the result cache, pool transfer and the sweep's
per-cell execution) with a span recorder.  Each span keeps its name,
start, end, parent span and cell id.  ``run_sweep`` forks its pool after
the wrappers are installed, so the workers inherit them; each process
writes its own spans to ``spans-<pid>.json`` when it exits, and
:func:`layer_metrics` merges the files.

Times come from ``time.perf_counter``, which on Linux reads the
system-wide monotonic clock, so spans of different processes share one
time axis.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import threading
import time
from typing import Dict, List, Optional

# A span record: [name, start, end, span id, parent id, thread id, cell, attrs]
NAME, START, END, SID, PARENT, TID, CELL, ATTRS = range(8)


class ProcessState:
    """State kept per process.  A forked pool worker starts from a clean
    copy and writes it out (:meth:`flush`) when multiprocessing shuts the
    worker down; the campaign process flushes explicitly."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.pid = os.getpid()
        self._finalizer = None
        self._reset()
        os.register_at_fork(after_in_child=self._forked)

    def _reset(self) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        raise NotImplementedError

    def _forked(self) -> None:
        self.pid = os.getpid()
        self._reset()
        self._finalizer = False

    def touch(self) -> None:
        """Call before recording anything in this process."""
        if self._finalizer is False:
            from multiprocessing import util

            # Registered lazily: the worker's bootstrap clears the
            # finalizer registry right after the fork.
            self._finalizer = util.Finalize(None, self.flush, exitpriority=100)


class SpanLog(ProcessState):
    """In-memory spans of one process, written out once at the end."""

    def _reset(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._next_id = 0
        self._id_lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        self.touch()
        stack = self._stack()
        with self._id_lock:
            self._next_id += 1
            sid = self._next_id
        rec = [
            name, time.perf_counter(), 0.0, sid,
            stack[-1][SID] if stack else 0,
            threading.get_ident(),
            getattr(self._local, "cell", None),
            None,
        ]
        stack.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack().pop()
        self.spans.append(rec)

    def parent(self) -> Optional[list]:
        """The innermost open span of this thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def set_cell(self, cell: Optional[str]) -> None:
        self._local.cell = cell

    def flush(self) -> None:
        from repro.harness import experiment

        doc = {
            "pid": self.pid,
            "programs_held": len(experiment._PROGRAMS),
            "spans": self.spans,
        }
        path = os.path.join(self.out_dir, f"spans-{self.pid}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def wrap(self, owner, attr: str, name: str, after=None, kind=None) -> None:
        """Replace ``owner.attr`` by a traced call; ``after(rec, args,
        result)`` may annotate the closed span."""
        fn = getattr(owner, attr)
        log = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = log.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                log.close(rec)
            if after is not None:
                after(rec, args, result)
            return result

        setattr(owner, attr, kind(traced) if kind is not None else traced)


def _attrs(rec: list) -> dict:
    if rec[ATTRS] is None:
        rec[ATTRS] = {}
    return rec[ATTRS]


def install(log: SpanLog) -> None:
    """Wrap every layer's entry point with spans written to ``log``."""
    from multiprocessing.reduction import ForkingPickler

    from repro.harness import cachedir, experiment, sweep
    from repro.sim import cnative, fastcore, machine

    def generated(rec, args, run) -> None:
        _attrs(rec)["ops"] = sum(len(t.ops) for t in run.program.threads)

    def native_done(rec, args, per_core) -> None:
        if per_core is None:
            _attrs(rec)["declined"] = True
            return
        _attrs(rec)["ops"] = sum(c.ops for c in per_core)
        run = log.parent()
        if run is not None:
            _attrs(run)["tier"] = "native"

    def pyfast_done(rec, args, result) -> None:
        run = log.parent()
        if run is not None:
            _attrs(run)["tier"] = "pyfast"

    def machine_done(rec, args, stats) -> None:
        # A replay that neither native nor pyfast finished ran on the
        # reference per-op engine.
        if _attrs(rec).get("tier") is None:
            rec[NAME] = "sim.reference"
            _attrs(rec)["ops"] = stats.total.ops

    def looked_up(rec, args, stats) -> None:
        _attrs(rec)["hit"] = stats is not None

    def swept(rec, args, result) -> None:
        attrs = _attrs(rec)
        attrs["jobs"] = result.jobs
        attrs["ran"] = sum(1 for res in result.cells if res.source == "run")

    log.wrap(experiment, "generate_canonical", "workloads.generate", generated)
    log.wrap(experiment, "specialize_run", "lang.specialize")
    log.wrap(cnative, "_program_streams", "sim.compile")
    log.wrap(fastcore, "compile_trace", "sim.compile")
    log.wrap(cnative, "run_native", "sim.native", native_done)
    log.wrap(fastcore, "run_fast", "sim.pyfast", pyfast_done)
    log.wrap(machine.Machine, "run", "sim.run", machine_done)
    log.wrap(cachedir, "machine_stats_to_doc", "sim.stats_marshal")
    log.wrap(cachedir, "machine_stats_from_doc", "sim.stats_marshal")
    log.wrap(cachedir.CellCache, "lookup", "harness.cachedir.lookup", looked_up)
    log.wrap(cachedir.CellCache, "store", "harness.cachedir.store")
    log.wrap(ForkingPickler, "dumps", "harness.sweep.transfer", kind=staticmethod)
    log.wrap(ForkingPickler, "loads", "harness.sweep.transfer", kind=staticmethod)
    log.wrap(sweep, "run_sweep", "harness.sweep.run_sweep", swept)

    execute = sweep._execute

    @functools.wraps(execute)
    def execute_cell(cell):
        log.set_cell(cell.key()[:12])
        rec = log.open("harness.sweep.cell")
        try:
            return execute(cell)
        finally:
            log.close(rec)
            log.set_cell(None)

    sweep._execute = execute_cell


def _union(intervals: List[tuple]) -> float:
    total = 0.0
    end = float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def layer_metrics(out_dir: str, window: tuple) -> Dict[str, float]:
    """Merge every process's spans and reduce them to per-layer metrics.

    A layer's time is its spans' self time: duration minus the child
    spans it encloses.  ``window`` is the (start, end) of the timed
    campaign; ``trace.coverage`` is the share of it during which some
    layer span was open in some process.
    """
    spans: List[list] = []
    held = 0
    for path in sorted(glob.glob(os.path.join(out_dir, "spans-*.json"))):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        held += doc["programs_held"]
        pid = doc["pid"]
        for rec in doc["spans"]:
            rec[SID] = (pid, rec[SID])
            rec[PARENT] = (pid, rec[PARENT]) if rec[PARENT] else None
            spans.append(rec)

    child_time: Dict[tuple, float] = {}
    for rec in spans:
        if rec[PARENT] is not None:
            child_time[rec[PARENT]] = (
                child_time.get(rec[PARENT], 0.0) + rec[END] - rec[START]
            )
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    ops: Dict[str, int] = {}
    for rec in spans:
        name = rec[NAME]
        self_s[name] = (
            self_s.get(name, 0.0) + rec[END] - rec[START] - child_time.get(rec[SID], 0.0)
        )
        attrs = rec[ATTRS] or {}
        if attrs.get("declined"):
            name = "sim.native.declined"
        calls[name] = calls.get(name, 0) + 1
        ops[name] = ops.get(name, 0) + attrs.get("ops", 0)

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    cells = [r for r in spans if r[NAME] == "harness.sweep.cell"]
    busy = sum(r[END] - r[START] for r in cells)
    sweeps = [r for r in spans if r[NAME] == "harness.sweep.run_sweep"]
    capacity = sum(
        r[ATTRS]["jobs"] * (r[END] - r[START]) for r in sweeps if r[ATTRS]["ran"]
    )
    lookups = [r for r in spans if r[NAME] == "harness.cachedir.lookup"]
    hits = sum(1 for r in lookups if r[ATTRS]["hit"])
    lo, hi = window
    covered = _union([
        (max(r[START], lo), min(r[END], hi))
        for r in spans
        if r[NAME] != "harness.sweep.run_sweep" and r[END] > lo and r[START] < hi
    ])
    generate_s = self_s.get("workloads.generate", 0.0)
    native_s = self_s.get("sim.native", 0.0)
    reference_s = self_s.get("sim.reference", 0.0)
    return {
        "workloads.generate_s": generate_s,
        "workloads.generate_calls": calls.get("workloads.generate", 0),
        "workloads.emit_ops_per_s": rate(ops.get("workloads.generate", 0), generate_s),
        "lang.specialize_s": self_s.get("lang.specialize", 0.0),
        "lang.specialize_calls": calls.get("lang.specialize", 0),
        "sim.compile_s": self_s.get("sim.compile", 0.0),
        "sim.native_s": native_s,
        "sim.native_cells": calls.get("sim.native", 0),
        "sim.native_declines": calls.get("sim.native.declined", 0),
        "sim.native_ops_per_s": rate(ops.get("sim.native", 0), native_s),
        "sim.pyfast_cells": calls.get("sim.pyfast", 0),
        "sim.reference_s": reference_s,
        "sim.reference_cells": calls.get("sim.reference", 0),
        "sim.reference_ops_per_s": rate(ops.get("sim.reference", 0), reference_s),
        "sim.stats_marshal_s": self_s.get("sim.stats_marshal", 0.0),
        "harness.sweep.transfer_s": self_s.get("harness.sweep.transfer", 0.0),
        "harness.cachedir.store_s": self_s.get("harness.cachedir.store", 0.0),
        "harness.cachedir.lookup_s": self_s.get("harness.cachedir.lookup", 0.0),
        "harness.cachedir.hit_ratio": rate(hits, len(lookups)),
        "harness.sweep.worker_busy_s": busy,
        "harness.sweep.parallel_efficiency": rate(busy, capacity),
        "harness.experiment.canonical_reuse": rate(
            len(cells), calls.get("workloads.generate", 0)
        ),
        "harness.experiment.programs_held": held,
        "trace.coverage": rate(covered, hi - lo),
    }
