"""Parallel sweep engine: fan out simulation cells over a process pool.

Like the paper's evaluation — 8 benchmarks x 5 designs x 3 language
models plus the Figure 9/10 sweeps, each an independent gem5 run — our
cells are embarrassingly parallel: one cell is one (benchmark, design,
model, workload knobs, :class:`MachineConfig`) simulation with no shared
state.  :func:`run_sweep` evaluates any iterable of fully-specified
cells with

* **deterministic ordering** — results come back in input order no
  matter how the pool schedules them;
* **per-cell error capture** — one failed cell reports its exception
  class, message and traceback (:class:`CellFailure`), the rest of the
  sweep completes;
* **canonical-key affinity** — the pool runs one task per group of
  cells sharing (benchmark, model, workload config), so each canonical
  program is generated once per campaign and freed by its worker once
  the group is done (:func:`group_cells`, :func:`_execute_group`);
* **worker-loss isolation** — a worker that dies (OOM-killed, segfault,
  SIGKILL) poisons only the cell it was running: the pool is respawned
  and every other unfinished cell is re-executed in isolation, so the
  culprit is identified definitively instead of taking innocent
  neighbours down with a ``BrokenProcessPool``;
* **per-cell timeouts and bounded retries** — ``timeout`` kills a hung
  cell's worker and fails (or retries) just that cell; ``retries``
  re-runs failing cells a bounded number of times, with the attempt
  count recorded in the failure;
* **three-level caching** — the in-process memo (shared with
  :func:`repro.harness.experiment.run_cell`), then the content-addressed
  on-disk cache (:mod:`repro.harness.cachedir`), then a real run.
  Identical cells appearing twice in one sweep are simulated once.

``jobs <= 1`` runs every cell inline in this process (no pool, no
pickling), which is the bit-identical reference path the parallel path
is validated against.  Setting ``timeout`` forces the pool path even at
``jobs=1``: a hung cell can only be killed from outside its process.
"""

from __future__ import annotations

import os
import signal
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: test-only fault hooks, read inside the worker: a cell whose label
#: equals the value of KILL dies by SIGKILL (simulating an OOM-killed or
#: segfaulting worker); a cell matching HANG sleeps far past any test
#: timeout (simulating a livelocked cell).  Unset in production.
TEST_KILL_ENV = "REPRO_SWEEP_TEST_KILL"
TEST_HANG_ENV = "REPRO_SWEEP_TEST_HANG"
_HANG_SECONDS = 60.0

from repro.harness.cachedir import CellCache, cell_fingerprint, fingerprint_key
from repro.harness.experiment import (
    RunKey,
    default_config,
    memo_lookup,
    memo_store,
    release_canonical,
    run_cell,
)
from repro.lang.dialect import dialect_for_design
from repro.prof.runlog import Progress, RunLog
from repro.sim.config import TABLE_I, MachineConfig
from repro.sim.stats import MachineStats
from repro.workloads import WorkloadConfig


class SweepMonitor:
    """Fan-in point for campaign telemetry: forwards cell lifecycle
    events to an optional ``repro.runlog/1`` writer and an optional live
    progress line.  With neither attached every call is a no-op, so the
    engine's behaviour (and its deterministic results) are unchanged."""

    def __init__(
        self,
        total: int,
        runlog: Optional[RunLog] = None,
        progress: Optional[Progress] = None,
    ) -> None:
        self.runlog = runlog
        self.progress = progress
        self.total = total
        self.done = 0

    @property
    def enabled(self) -> bool:
        return self.runlog is not None or self.progress is not None

    def started(self, label: str, index: int) -> None:
        if self.runlog is not None:
            self.runlog.cell_start(label, index)

    def finished(
        self,
        label: str,
        index: int,
        ok: bool,
        wall_time_s: float,
        source: str = "run",
        worker: Optional[int] = None,
    ) -> None:
        self.done += 1
        if self.runlog is not None:
            self.runlog.cell_finish(
                label, index, ok, wall_time_s, source=source, worker=worker
            )
            self.runlog.maybe_heartbeat(self.done)
        if self.progress is not None:
            self.progress.update(self.done)

    def close(self, errors: int, busy_time_s: float) -> None:
        if self.runlog is not None:
            self.runlog.finish(self.done, errors, busy_time_s)
        if self.progress is not None:
            self.progress.close()


def measure_program_cycles(
    program, design: str, machine_cfg: MachineConfig = TABLE_I
) -> int:
    """Makespan of one already-compiled program on one design.

    The repair engine (:mod:`repro.analysis.repair`) uses this to price
    accepted over-serialization edits in real simulated cycles — same
    machine, same config as the sweep cells, so the numbers are
    comparable with the headline figures.
    """
    from repro.sim.machine import Machine

    return Machine(design, machine_cfg).run(program).cycles


@dataclass(frozen=True)
class SweepCell:
    """One fully-specified simulation: everything that affects its result."""

    benchmark: str
    design: str
    model: str = "txn"
    ops_per_thread: int = 48
    ops_per_region: int = 1
    machine_cfg: MachineConfig = TABLE_I

    def workload_cfg(self) -> WorkloadConfig:
        return default_config(self.ops_per_thread, self.ops_per_region)

    def canonical_key(self) -> tuple:
        """(benchmark, model, workload config): every cell sharing it
        replays a program specialized from one canonical run."""
        return (self.benchmark, self.model, self.workload_cfg())

    def run_key(self) -> RunKey:
        return RunKey(
            self.benchmark,
            self.design,
            self.model,
            self.ops_per_thread,
            self.ops_per_region,
            self.machine_cfg,
        )

    def fingerprint(self) -> Dict[str, object]:
        return cell_fingerprint(
            self.benchmark, self.design, self.model,
            self.workload_cfg(), self.machine_cfg,
        )

    def key(self) -> str:
        """Content-address of this cell (the on-disk cache key)."""
        return fingerprint_key(self.fingerprint())

    def label(self) -> str:
        return f"{self.benchmark}/{self.design}/{self.model}"


@dataclass
class CellFailure:
    """Typed provenance of one cell's failure.

    ``kind`` is ``"exception"`` (the cell raised), ``"timeout"`` (it
    exceeded the per-cell budget and its worker was killed) or
    ``"worker-lost"`` (its worker process died — OOM killer, segfault,
    external SIGKILL).  ``attempts`` counts every execution attempt,
    including retries.
    """

    kind: str
    exception: str  #: exception class name (or a synthetic one)
    message: str
    traceback: str = ""
    attempts: int = 1

    def __str__(self) -> str:
        return self.traceback or f"{self.exception}: {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "exception": self.exception,
            "message": self.message,
            "traceback": self.traceback,
            "attempts": self.attempts,
        }


@dataclass
class CellResult:
    """Outcome of one cell: stats on success, a typed failure otherwise."""

    cell: SweepCell
    stats: Optional[MachineStats]
    failure: Optional[CellFailure] = None
    wall_time: float = 0.0
    #: where the result came from: ``memo`` | ``cache`` | ``run``.
    source: str = "run"

    @property
    def error(self) -> Optional[str]:
        """Human-readable failure text (the traceback when available)."""
        return None if self.failure is None else str(self.failure)

    @property
    def ok(self) -> bool:
        return self.failure is None and self.stats is not None


@dataclass
class SweepResult:
    """All cell results, in input order, plus sweep-level accounting."""

    cells: List[CellResult]
    jobs: int = 1
    wall_time: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    memo_hits: int = 0

    def __post_init__(self) -> None:
        self._by_cell: Dict[SweepCell, CellResult] = {
            res.cell: res for res in self.cells
        }

    @property
    def errors(self) -> int:
        return sum(1 for res in self.cells if not res.ok)

    def result_for(self, cell: SweepCell) -> CellResult:
        return self._by_cell[cell]

    def stats_for(self, cell: SweepCell) -> MachineStats:
        """Stats of ``cell``; raises if the cell failed or is absent."""
        res = self._by_cell.get(cell)
        if res is None:
            raise KeyError(f"cell {cell.label()} was not part of this sweep")
        if not res.ok:
            raise RuntimeError(f"cell {cell.label()} failed:\n{res.error}")
        assert res.stats is not None
        return res.stats

    def to_json(self, deterministic: bool = False) -> Dict[str, object]:
        from repro.obs.export import sweep_to_json

        return sweep_to_json(self, deterministic=deterministic)


@dataclass
class CellPlan:
    """Re-enterable execution plan for a cell list.

    Splits a campaign into what is already resolved (``results`` slots
    filled from prior journal replay, the in-process memo, or the
    on-disk cache) and what remains to run (``pending``: unique
    outstanding cell -> every input index it satisfies).  Both
    :func:`run_sweep` and the campaign service's coordinator build one;
    the coordinator additionally seeds ``done`` from its write-ahead
    journal, which is what makes a ``kill -9``'d campaign resumable with
    exactly-once cell accounting — an index resolved in an earlier life
    is never re-executed, only re-read.
    """

    cells: List[SweepCell]
    results: List[Optional[CellResult]]
    pending: Dict[SweepCell, List[int]]
    memo_hits: int = 0
    cache_hits: int = 0

    def outstanding(self) -> List[SweepCell]:
        """Unique cells still to execute, in first-appearance order."""
        return list(self.pending)

    def first_index(self) -> Dict[SweepCell, int]:
        return {cell: idxs[0] for cell, idxs in self.pending.items()}

    @property
    def complete(self) -> bool:
        return all(res is not None for res in self.results)

    def finish(self) -> List[CellResult]:
        """The fully-resolved result list, in input order."""
        assert self.complete, "plan finished with unresolved cells"
        return [res for res in self.results if res is not None]


def plan_cells(
    cells: Iterable[SweepCell],
    cache: Optional[CellCache] = None,
    use_memo: bool = True,
    done: Optional[Dict[int, CellResult]] = None,
    monitor: Optional[SweepMonitor] = None,
) -> CellPlan:
    """Resolve memo/cache/``done`` hits; dedupe the rest into a plan.

    ``done`` maps input indices to already-settled results (a resumed
    campaign's journal replay); those indices are taken as-is and their
    cells charged to no one.  Identical outstanding cells are planned
    once and fanned back out to every index at settle time.
    """
    cell_list = list(cells)
    results: List[Optional[CellResult]] = [None] * len(cell_list)
    pending: Dict[SweepCell, List[int]] = {}
    memo_hits = cache_hits = 0
    for idx, cell in enumerate(cell_list):
        if done is not None and idx in done:
            results[idx] = done[idx]
            continue
        earlier = pending.get(cell)
        if earlier is not None:
            earlier.append(idx)
            continue
        if use_memo:
            hit = memo_lookup(cell.run_key())
            if hit is not None:
                results[idx] = CellResult(cell, hit, source="memo")
                memo_hits += 1
                if monitor is not None and monitor.enabled:
                    monitor.finished(cell.label(), idx, True, 0.0, source="memo")
                continue
        if cache is not None:
            t_cell = time.perf_counter()
            disk = cache.lookup(cell.fingerprint())
            if disk is not None:
                wall = time.perf_counter() - t_cell
                results[idx] = CellResult(
                    cell, disk, wall_time=wall,
                    source="cache",
                )
                cache_hits += 1
                if use_memo:
                    memo_store(cell.run_key(), disk)
                if monitor is not None and monitor.enabled:
                    monitor.finished(cell.label(), idx, True, wall, source="cache")
                continue
        pending[cell] = [idx]
    return CellPlan(
        cells=cell_list,
        results=results,
        pending=pending,
        memo_hits=memo_hits,
        cache_hits=cache_hits,
    )


def settle_outcome(
    plan: CellPlan,
    cell: SweepCell,
    status: str,
    payload: object,
    seconds: float,
    attempts: int,
    cache: Optional[CellCache] = None,
    use_memo: bool = True,
) -> CellResult:
    """Record one outstanding cell's outcome and fan it to its indices."""
    if status == "ok":
        assert isinstance(payload, MachineStats)
        res = CellResult(cell, payload, wall_time=seconds, source="run")
        if use_memo:
            memo_store(cell.run_key(), payload)
        if cache is not None:
            cache.store(cell.fingerprint(), payload)
    else:
        res = CellResult(
            cell,
            None,
            failure=_failure(status, payload, attempts),
            wall_time=seconds,
        )
    for idx in plan.pending[cell]:
        plan.results[idx] = res
    return res


def expand_cells(
    benchmarks: Sequence[str],
    designs: Sequence[str],
    models: Sequence[str] = ("txn",),
    ops_per_thread: int = 48,
    ops_per_region: int = 1,
    machine_cfg: MachineConfig = TABLE_I,
) -> List[SweepCell]:
    """Cartesian (benchmark x design x model) cell list, in stable order."""
    return [
        SweepCell(bench, design, model, ops_per_thread, ops_per_region, machine_cfg)
        for bench in benchmarks
        for design in designs
        for model in models
    ]


def _execute(cell: SweepCell) -> Tuple[str, object, float, int]:
    """Run one cell; never raises.  Returns (status, payload, seconds,
    worker pid).

    ``payload`` is the :class:`MachineStats` on ``"ok"``, or an
    ``(exception class name, message, traceback)`` triple on ``"error"``.
    """
    if os.environ.get(TEST_KILL_ENV) == cell.label():
        os.kill(os.getpid(), signal.SIGKILL)
    if os.environ.get(TEST_HANG_ENV) == cell.label():
        time.sleep(_HANG_SECONDS)
    t0 = time.perf_counter()
    try:
        stats = run_cell(
            cell.benchmark,
            cell.design,
            cell.model,
            ops_per_thread=cell.ops_per_thread,
            ops_per_region=cell.ops_per_region,
            machine_cfg=cell.machine_cfg,
        )
        return "ok", stats, time.perf_counter() - t0, os.getpid()
    except Exception as exc:
        payload = (type(exc).__name__, str(exc), traceback.format_exc())
        return "error", payload, time.perf_counter() - t0, os.getpid()


def _failure(status: str, payload: object, attempts: int) -> CellFailure:
    """Build the typed failure record for a non-``ok`` outcome."""
    if status == "error":
        exc_name, message, tb = payload  # type: ignore[misc]
        return CellFailure(
            kind="exception",
            exception=str(exc_name),
            message=str(message),
            traceback=str(tb),
            attempts=attempts,
        )
    if status == "timeout":
        return CellFailure(
            kind="timeout",
            exception="TimeoutError",
            message=str(payload),
            attempts=attempts,
        )
    return CellFailure(
        kind="worker-lost",
        exception="BrokenProcessPool",
        message=str(payload),
        attempts=attempts,
    )


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear down a pool that may contain hung or dead workers.

    A plain ``shutdown`` would block on (or leak) a hung worker, so the
    worker processes are terminated first.
    """
    for proc in list(getattr(pool, "_processes", {}).values() or []):
        try:
            proc.terminate()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _run_solo(
    cell: SweepCell, timeout: Optional[float], retries: int, prior_attempts: int
) -> Tuple[str, object, float, Optional[int], int]:
    """Execute one cell in its own single-worker pool, with retries.

    Full isolation: if the worker dies or hangs here, this cell is the
    culprit by construction.  Returns (status, payload, seconds, worker
    pid or None, total attempts including ``prior_attempts``).
    """
    attempts = prior_attempts
    last: Tuple[str, object, float, Optional[int]] = (
        "worker-lost", "cell was never executed", 0.0, None
    )
    for _ in range(retries + 1):
        attempts += 1
        pool = ProcessPoolExecutor(max_workers=1)
        fut = pool.submit(_execute, cell)
        try:
            last = fut.result(timeout=timeout)
            pool.shutdown()
        except FuturesTimeout:
            _kill_pool(pool)
            last = (
                "timeout",
                f"cell exceeded the per-cell timeout of {timeout:g}s",
                float(timeout or 0.0),
                None,
            )
            continue
        except Exception as exc:  # worker process died mid-cell
            _kill_pool(pool)
            last = (
                "worker-lost",
                f"worker process died while running this cell: {exc!r}",
                0.0,
                None,
            )
            continue
        if last[0] == "ok":
            break
    return last[0], last[1], last[2], last[3], attempts


def _dialect_of(design: str) -> str:
    try:
        return dialect_for_design(design).name
    except ValueError:
        return design  # unknown design: the cell fails alone in _execute


def _split_in_two(group: List[SweepCell]) -> Optional[List[List[SweepCell]]]:
    """Halve ``group`` along dialect lines, or None if it has one dialect.

    Designs sharing a dialect (strandweaver and no-persist-queue) replay
    one specialized program, so they always land in the same half.
    """
    units: Dict[str, List[SweepCell]] = {}
    for cell in group:
        units.setdefault(_dialect_of(cell.design), []).append(cell)
    if len(units) < 2:
        return None
    ordered = list(units.values())
    sizes = [len(unit) for unit in ordered]
    cut = min(
        range(1, len(ordered)),
        key=lambda k: abs(2 * sum(sizes[:k]) - len(group)),
    )
    return [
        [cell for unit in ordered[:cut] for cell in unit],
        [cell for unit in ordered[cut:] for cell in unit],
    ]


def group_cells(cells: Sequence[SweepCell], jobs: int) -> List[List[SweepCell]]:
    """Pool tasks for ``cells``: one group per canonical key.

    A group's worker generates its canonical program once and
    specializes it per design.  Groups keep first-appearance order.
    With fewer groups than ``jobs``, the largest group that spans more
    than one dialect is halved along dialect lines, repeatedly, until
    every worker has a task or no group can be split, so ``-j`` is not
    capped at the number of keys.
    """
    by_key: Dict[tuple, List[SweepCell]] = {}
    for cell in cells:
        by_key.setdefault(cell.canonical_key(), []).append(cell)
    groups = list(by_key.values())
    while len(groups) < jobs:
        splits = [
            (i, halves)
            for i, halves in enumerate(map(_split_in_two, groups))
            if halves is not None
        ]
        if not splits:
            break
        i, halves = max(splits, key=lambda split: len(groups[split[0]]))
        groups[i:i + 1] = halves
    return groups


def _execute_group(cells: Sequence[SweepCell]) -> List[Tuple[str, object, float, int]]:
    """Run one group of cells in a pool worker, then free its programs.

    Calls :func:`_execute` once per cell through the module global, so
    per-cell outcomes, wall times and wrappers of ``_execute`` stay per
    cell.  Every cell of a group shares one canonical key; the worker
    releases that key's programs afterwards, so it holds one key's
    programs at a time.
    """
    try:
        return [_execute(cell) for cell in cells]
    finally:
        head = cells[0]
        release_canonical(head.benchmark, head.model, head.workload_cfg())


#: ``settle(cell, status, payload, seconds, worker pid, attempts)``:
#: records one cell's final outcome as soon as it is known.
Settle = Callable[[SweepCell, str, object, float, Optional[int], int], None]


def _run_pool(
    unique: List[SweepCell],
    jobs: int,
    timeout: Optional[float],
    retries: int,
    settle: Settle,
    monitor: Optional[SweepMonitor] = None,
    index_of: Optional[Dict[SweepCell, int]] = None,
) -> None:
    """Fan cells over a process pool, surviving hangs and dead workers.

    Each pool task is one :func:`group_cells` group, and each final
    outcome goes to ``settle`` as it is harvested, while the workers
    are still busy.  Clean outcomes (ok / cell raised) are attributed in
    the parallel batch, with failed cells regrouped while they have
    retries left.  A group waits at most ``timeout`` per cell it holds.
    A hang or worker death cannot be attributed safely inside a shared
    pool — the broken future is not necessarily the broken cell — so the
    pool is torn down and every unfinished cell re-runs through
    :func:`_run_solo`, where blame is unambiguous and the timeout is
    exact.  One poisoned cell therefore fails alone; its neighbours
    complete on the respawned path.
    """
    attempts: Dict[SweepCell, int] = {cell: 0 for cell in unique}

    def _idx(cell: SweepCell) -> int:
        return index_of.get(cell, 0) if index_of is not None else 0

    batch = list(unique)
    solo: List[SweepCell] = []
    while batch:
        groups = group_cells(batch, jobs)
        pool = ProcessPoolExecutor(max_workers=min(jobs, len(groups)))
        futures = []
        for group in groups:
            for cell in group:
                attempts[cell] += 1
                if monitor is not None:
                    monitor.started(cell.label(), _idx(cell))
            futures.append((group, pool.submit(_execute_group, group)))
        retry_batch: List[SweepCell] = []
        broken = False
        try:
            for group, fut in futures:
                outcomes = None
                if not broken or fut.done():
                    try:
                        outcomes = fut.result(
                            timeout=None if timeout is None else timeout * len(group)
                        )
                    except Exception:
                        broken = True
                if outcomes is None:
                    # The group hung, or the worker running *some* group
                    # died and broke the shared pool: which cell is the
                    # culprit is unknowable from here.  Its cells re-run
                    # in isolation, uncharged — the aborted attempt
                    # cannot be pinned on any one of them yet.
                    for cell in group:
                        attempts[cell] -= 1
                        solo.append(cell)
                    continue
                for cell, (status, payload, seconds, pid) in zip(group, outcomes):
                    if status == "ok" or attempts[cell] > retries:
                        settle(cell, status, payload, seconds, pid, attempts[cell])
                    else:
                        retry_batch.append(cell)
        except BaseException:
            _kill_pool(pool)
            raise
        _kill_pool(pool) if broken else pool.shutdown()
        batch = retry_batch
    for cell in solo:
        if monitor is not None:
            monitor.started(cell.label(), _idx(cell))
        status, payload, seconds, pid, n_attempts = _run_solo(
            cell, timeout, retries, attempts[cell]
        )
        settle(cell, status, payload, seconds, pid, n_attempts)


def run_sweep(
    cells: Iterable[SweepCell],
    jobs: int = 1,
    cache: Optional[CellCache] = None,
    use_memo: bool = True,
    timeout: Optional[float] = None,
    retries: int = 0,
    runlog: Optional[RunLog] = None,
    progress: Optional[Progress] = None,
) -> SweepResult:
    """Evaluate every cell, fanning misses out over ``jobs`` processes.

    ``timeout`` bounds each cell's execution in seconds (enforced by
    killing the cell's worker process; forces the pool path even at
    ``jobs=1``).  ``retries`` re-runs a failing cell up to that many
    extra times before recording its :class:`CellFailure`.  ``runlog``
    streams ``repro.runlog/1`` campaign telemetry; ``progress`` drives a
    live status line — both are observation-only and never alter
    results (their wall-clock content is exactly why ``--deterministic``
    sweeps refuse them at the CLI).
    """
    cell_list = list(cells)
    t0 = time.perf_counter()
    monitor = SweepMonitor(len(cell_list), runlog=runlog, progress=progress)

    # Resolve memo and disk hits in the parent; dedupe the remainder so
    # identical cells are simulated once and fanned back out.
    plan = plan_cells(cell_list, cache=cache, use_memo=use_memo, monitor=monitor)
    cache_misses = len(plan.pending) if cache is not None else 0

    unique = plan.outstanding()
    first_index = plan.first_index()

    def settle(
        cell: SweepCell, status: str, payload: object, seconds: float,
        pid: Optional[int], attempts: int,
    ) -> None:
        if monitor.enabled:
            monitor.finished(
                cell.label(), first_index[cell], status == "ok", seconds,
                source="run", worker=pid,
            )
        res = settle_outcome(
            plan, cell, status, payload, seconds, attempts,
            cache=cache, use_memo=use_memo,
        )
        if monitor.enabled:
            # Duplicate cells shared this execution; account them so the
            # campaign's done-count reaches the input cell total.
            for idx in plan.pending[cell][1:]:
                monitor.finished(cell.label(), idx, res.ok, 0.0, source="memo")

    if (jobs > 1 or timeout is not None) and unique:
        _run_pool(
            unique, max(jobs, 1), timeout, retries, settle,
            monitor=monitor if monitor.enabled else None,
            index_of=first_index,
        )
    else:
        for cell in unique:
            if monitor.enabled:
                monitor.started(cell.label(), first_index[cell])
            status, payload, seconds, pid = _execute(cell)
            attempts = 1
            while status != "ok" and attempts <= retries:
                status, payload, seconds, pid = _execute(cell)
                attempts += 1
            settle(cell, status, payload, seconds, pid, attempts)

    final = plan.finish()
    result = SweepResult(
        cells=final,
        jobs=jobs,
        wall_time=time.perf_counter() - t0,
        cache_hits=plan.cache_hits,
        cache_misses=cache_misses,
        memo_hits=plan.memo_hits,
    )
    if monitor.enabled:
        monitor.close(
            errors=result.errors,
            busy_time_s=sum(res.wall_time for res in final),
        )
    return result
