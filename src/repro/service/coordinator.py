"""Crash-safe campaign coordinator: journal replay + supervised workers.

The coordinator turns a :class:`~repro.service.jobs.CampaignSpec` into a
finished artefact (``repro.sweep/1`` or ``repro.soak/1``) while keeping
every step redoable.  The protocol per settled work unit is strictly
write-ahead: the worker's result is journaled (fsync'd) *first*, then
folded into in-memory state and the shared content-addressed cache.  A
``kill -9`` of the coordinator therefore loses at most in-flight work —
never completed work — and re-running the same campaign directory
replays the journal and continues where the previous life stopped:

* indices present in the journal are **re-read, never re-executed**
  (exactly-once accounting; duplicates fold first-wins);
* indices that were resolved from the memo/cache in a previous life but
  not journaled are simply resolved again — the cache is idempotent and
  the simulator deterministic, so the artefact cannot diverge;
* because all result documents are deterministic in ``deterministic``
  mode, an interrupted-and-resumed campaign's artefact is byte-identical
  to an uninterrupted run's.

Worker crashes are the supervisor's problem (respawn + retry budget);
exhausted budgets degrade to typed failures inside the artefact rather
than a lost campaign.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.chaos.soak import (
    SoakCase,
    SoakResult,
    design_pool_for,
    shard_seed_ranges,
)
from repro.harness.cachedir import CellCache
from repro.harness.sweep import (
    CellFailure,
    CellPlan,
    CellResult,
    SweepResult,
    plan_cells,
    settle_outcome,
)
from repro.obs.export import (
    machine_stats_from_doc,
    machine_stats_to_doc,
    sweep_to_json,
)
from repro.service.jobs import CampaignSpec
from repro.service.journal import (
    JOURNAL_NAME,
    CampaignJournal,
    ReplayedCampaign,
    replay_journal,
)
from repro.service.supervisor import (
    SupervisorConfig,
    Task,
    TaskOutcome,
    WorkerSupervisor,
)

#: artefact file name inside a campaign directory.
RESULT_NAME = "result.json"
#: spec file name inside a campaign directory (informational copy; the
#: journal's ``created`` record is the authoritative one).
SPEC_NAME = "spec.json"

#: soak ranges per worker: small enough to load-balance, large enough to
#: amortise each worker's per-design baseline runs.
SOAK_RANGES_PER_WORKER = 4


@dataclass
class CampaignOutcome:
    """What one coordinator life produced."""

    status: str  #: ``finished`` | ``cancelled``
    total: int
    done: int
    errors: int
    result_path: Optional[str] = None
    result_doc: Optional[Dict[str, object]] = None
    replayed: int = 0  #: indices recovered from the journal, not re-run


@dataclass
class _Progress:
    total: int = 0
    done: int = 0
    errors: int = 0


def write_json_atomic(path: str, doc: Dict[str, object]) -> None:
    """Write ``doc`` with the cachedir discipline: tmp, fsync, rename."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True, allow_nan=False)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class Coordinator:
    """Drive one campaign directory to completion, resumably."""

    def __init__(
        self,
        campaign_dir: str,
        campaign_id: str,
        spec: CampaignSpec,
        cache: Optional[CellCache] = None,
        cancel: Optional[threading.Event] = None,
        on_progress: Optional[Callable[[int, int, int], None]] = None,
        supervisor_config: Optional[SupervisorConfig] = None,
    ) -> None:
        self.dir = campaign_dir
        self.campaign_id = campaign_id
        self.spec = spec
        self.cache = cache
        self.cancel = cancel or threading.Event()
        self.on_progress = on_progress
        base = supervisor_config or SupervisorConfig(
            workers=spec.workers,
            timeout_s=spec.timeout_s,
            retries=spec.retries,
        )
        if base.scratch_dir is None:
            base.scratch_dir = campaign_dir
        self.supervisor_config = base
        self.supervisor: Optional[WorkerSupervisor] = None
        self._progress = _Progress(total=spec.total)

    # -- shared plumbing ---------------------------------------------------

    @property
    def journal_path(self) -> str:
        return os.path.join(self.dir, JOURNAL_NAME)

    @property
    def result_path(self) -> str:
        return os.path.join(self.dir, RESULT_NAME)

    def _notify(self) -> None:
        if self.on_progress is not None:
            p = self._progress
            self.on_progress(p.done, p.total, p.errors)

    def run(self) -> CampaignOutcome:
        """Execute (or resume) the campaign; always returns an outcome."""
        replayed = replay_journal(self.journal_path)
        journal = CampaignJournal(self.journal_path, self.campaign_id)
        try:
            if replayed.spec_doc is None:
                journal.append("created", spec=self.spec.to_json())
            journal.append(
                "coordinator-start",
                attempt=replayed.coordinator_starts + 1,
                pid=os.getpid(),
            )
            if replayed.coordinator_starts == 0:
                self._lint_preflight(journal)
            if self.spec.kind == "sweep":
                return self._run_sweep(journal, replayed)
            return self._run_soak(journal, replayed)
        finally:
            journal.close()

    def _lint_preflight(self, journal: CampaignJournal) -> None:
        """Journal a static lint verdict per distinct campaign cell.

        Mirrors the chaos harness's pre-flight: before any cycle is
        simulated, every (workload, design, model) the campaign will run
        is analyzed and its verdict written to the WAL — a correct
        design must lint without ERRORs, NON-ATOMIC must lint *with*
        them.  Only the first coordinator life journals (the replay path
        ignores unknown event types, so old journals stay readable); a
        lint crash must not take the campaign down, so failures are
        journaled as such rather than raised.
        """
        from repro.analysis import analyze
        from repro.chaos.harness import CHAOS_CFG
        from repro.workloads import WORKLOADS, generate_for_design

        if self.spec.kind == "sweep":
            combos = sorted(
                {
                    (c.benchmark, c.design, c.model)
                    for c in self.spec.sweep_cells()
                }
            )
            cfg_of = {
                (c.benchmark, c.design, c.model): c.workload_cfg()
                for c in self.spec.sweep_cells()
            }
        else:
            pool = design_pool_for(self.spec.soak_design_pool())
            combos = sorted(
                (self.spec.workload, design, "txn") for design in pool
            )
            cfg_of = {combo: CHAOS_CFG for combo in combos}
        for benchmark, design, model in combos:
            try:
                run = generate_for_design(
                    WORKLOADS[benchmark], cfg_of[(benchmark, design, model)],
                    design, model,
                )
                report = analyze(run.program, design=design)
            except Exception as exc:  # pragma: no cover - defensive
                journal.append(
                    "lint",
                    cell=f"{benchmark}/{design}/{model}",
                    error=f"{type(exc).__name__}: {exc}",
                )
                continue
            journal.append(
                "lint",
                cell=f"{benchmark}/{design}/{model}",
                design=design,
                errors=len(report.errors),
                warnings=len(report.warnings),
                advisories=len(report.advisories),
                consistent=(len(report.errors) > 0) == (design == "non-atomic"),
            )

    # -- sweep campaigns ---------------------------------------------------

    def _replayed_cell_results(
        self, replayed: ReplayedCampaign, cells: List
    ) -> Dict[int, CellResult]:
        """Rebuild settled :class:`CellResult`\\ s from journal records."""
        done: Dict[int, CellResult] = {}
        for idx, record in replayed.done.items():
            if not 0 <= idx < len(cells):
                continue  # spec drifted? never trust a foreign index
            cell = cells[idx]
            status = record.get("status")
            payload = record.get("payload")
            if status == "ok" and isinstance(payload, dict):
                try:
                    stats = machine_stats_from_doc(payload)
                except (KeyError, TypeError, ValueError):
                    continue  # corrupt payload: re-run the cell
                done[idx] = CellResult(cell, stats, source="journal")
            elif isinstance(payload, dict):
                done[idx] = CellResult(
                    cell,
                    None,
                    failure=CellFailure(
                        kind=str(payload.get("kind", "exception")),
                        exception=str(payload.get("exception", "")),
                        message=str(payload.get("message", "")),
                        traceback=str(payload.get("traceback", "")),
                        attempts=int(payload.get("attempts", 1)),
                    ),
                    source="journal",
                )
        return done

    def _journal_resolved(
        self, journal: CampaignJournal, plan: CellPlan, known: Dict[int, CellResult]
    ) -> None:
        """Journal memo/cache hits so the WAL alone reconstructs progress."""
        for idx, res in enumerate(plan.results):
            if res is None or idx in known:
                continue
            payload = (
                machine_stats_to_doc(res.stats)
                if res.stats is not None
                else (res.failure.to_json() if res.failure else None)
            )
            journal.append(
                "cell-done",
                indices=[idx],
                cell=res.cell.label(),
                status="ok" if res.ok else "failed",
                source=res.source,
                payload=payload,
            )

    def _run_sweep(
        self, journal: CampaignJournal, replayed: ReplayedCampaign
    ) -> CampaignOutcome:
        cells = self.spec.sweep_cells()
        done = self._replayed_cell_results(replayed, cells)
        plan = plan_cells(cells, cache=self.cache, use_memo=True, done=done)
        self._journal_resolved(journal, plan, done)
        self._progress = _Progress(
            total=len(cells),
            done=sum(1 for r in plan.results if r is not None),
            errors=sum(1 for r in plan.results if r is not None and not r.ok),
        )
        self._notify()

        outstanding = plan.outstanding()
        tasks = [
            Task(
                task_id=i, kind="sweep-cell", payload=cell, label=cell.label(),
                affinity=cell.canonical_key(),
            )
            for i, cell in enumerate(outstanding)
        ]
        lock = threading.Lock()

        def _settle(outcome: TaskOutcome) -> None:
            if outcome.status == "cancelled":
                return  # never journaled: a resumed campaign re-runs it
            cell = outstanding[outcome.task_id]
            with lock:
                res = settle_outcome(
                    plan, cell, outcome.status, outcome.payload,
                    outcome.seconds, outcome.attempts,
                    cache=self.cache, use_memo=True,
                )
                payload = (
                    machine_stats_to_doc(res.stats)
                    if res.stats is not None
                    else (res.failure.to_json() if res.failure else None)
                )
                journal.append(
                    "cell-done",
                    indices=list(plan.pending[cell]),
                    cell=cell.label(),
                    status="ok" if res.ok else "failed",
                    source="run",
                    worker=outcome.worker,
                    payload=payload,
                )
                n = len(plan.pending[cell])
                self._progress.done += n
                if not res.ok:
                    self._progress.errors += n
            self._notify()

        if tasks:
            self.supervisor = WorkerSupervisor(self.supervisor_config)
            try:
                self.supervisor.run(tasks, on_result=_settle, cancel=self.cancel)
            finally:
                self.supervisor = None

        if self.cancel.is_set() and not plan.complete:
            journal.append(
                "cancelled",
                done=self._progress.done,
                total=self._progress.total,
            )
            return CampaignOutcome(
                status="cancelled",
                total=self._progress.total,
                done=self._progress.done,
                errors=self._progress.errors,
                replayed=len(done),
            )

        result = SweepResult(
            cells=plan.finish(),
            jobs=self.spec.workers,
            cache_hits=plan.cache_hits,
            memo_hits=plan.memo_hits,
            cache_misses=len(outstanding) if self.cache is not None else 0,
        )
        doc = sweep_to_json(result, deterministic=self.spec.deterministic)
        write_json_atomic(self.result_path, doc)
        journal.append(
            "finished",
            done=self._progress.total,
            errors=result.errors,
            result=RESULT_NAME,
        )
        return CampaignOutcome(
            status="finished",
            total=self._progress.total,
            done=self._progress.total,
            errors=result.errors,
            result_path=self.result_path,
            result_doc=doc,
            replayed=len(done),
        )

    # -- soak campaigns ----------------------------------------------------

    def _run_soak(
        self, journal: CampaignJournal, replayed: ReplayedCampaign
    ) -> CampaignOutcome:
        spec = self.spec
        design_pool = design_pool_for(spec.soak_design_pool())
        cases: Dict[int, SoakCase] = {}
        for idx, record in replayed.done.items():
            payload = record.get("payload")
            if not isinstance(payload, list):
                continue
            for case_doc in payload:
                if isinstance(case_doc, dict) and int(case_doc.get("index", -1)) == idx:
                    try:
                        cases[idx] = SoakCase.from_json(case_doc)
                    except (KeyError, TypeError, ValueError):
                        pass
                    break
        self._progress = _Progress(
            total=spec.seeds,
            done=len(cases),
            errors=sum(1 for c in cases.values() if not c.ok),
        )
        self._notify()

        missing = [i for i in range(spec.seeds) if i not in cases]
        ranges = self._soak_ranges(missing)
        tasks = [
            Task(
                task_id=t,
                kind="soak-range",
                payload={
                    "workload": spec.workload,
                    "seed": spec.seed,
                    "indices": indices,
                    "design_pool": design_pool,
                    "media": spec.media,
                    "shrink": spec.shrink,
                },
                label=f"{spec.workload}/seeds[{indices[0]}..{indices[-1]}]",
            )
            for t, indices in enumerate(ranges)
        ]
        lock = threading.Lock()
        failures: List[TaskOutcome] = []

        def _settle(outcome: TaskOutcome) -> None:
            if outcome.status == "cancelled":
                return  # never journaled: a resumed campaign re-runs it
            with lock:
                if outcome.status == "ok" and isinstance(outcome.payload, list):
                    settled: List[SoakCase] = []
                    for case_doc in outcome.payload:
                        try:
                            settled.append(SoakCase.from_json(case_doc))
                        except (KeyError, TypeError, ValueError):
                            continue
                    for case in settled:
                        cases[case.index] = case
                    journal.append(
                        "cell-done",
                        indices=[case.index for case in settled],
                        cell=ranges_label(settled),
                        status="ok",
                        source="run",
                        worker=outcome.worker,
                        payload=[case.to_json() for case in settled],
                    )
                    self._progress.done += len(settled)
                    self._progress.errors += sum(
                        1 for case in settled if not case.ok
                    )
                else:
                    failures.append(outcome)
                    journal.append(
                        "range-failed",
                        task=outcome.task_id,
                        status=outcome.status,
                        detail=str(outcome.payload)[:2000],
                        attempts=outcome.attempts,
                    )
            self._notify()

        if tasks:
            self.supervisor = WorkerSupervisor(self.supervisor_config)
            try:
                self.supervisor.run(tasks, on_result=_settle, cancel=self.cancel)
            finally:
                self.supervisor = None

        if self.cancel.is_set() and len(cases) < spec.seeds:
            journal.append("cancelled", done=len(cases), total=spec.seeds)
            return CampaignOutcome(
                status="cancelled",
                total=spec.seeds,
                done=len(cases),
                errors=self._progress.errors,
                replayed=len(replayed.done),
            )

        result = SoakResult(
            workload=spec.workload,
            seed=spec.seed,
            n_seeds=spec.seeds,
            media=spec.media,
            designs=design_pool,
            shrink=spec.shrink,
            cases=[cases[i] for i in sorted(cases)],
        )
        doc = result.summary()
        if failures:
            # Graceful degradation: the artefact still ships, flagged as
            # partial with the missing index count on record.
            doc["partial"] = True
            doc["missing_cases"] = spec.seeds - len(cases)
            doc["ok"] = False
        write_json_atomic(self.result_path, doc)
        journal.append(
            "finished",
            done=len(cases),
            errors=len(result.failures) + len(failures),
            result=RESULT_NAME,
        )
        return CampaignOutcome(
            status="finished",
            total=spec.seeds,
            done=len(cases),
            errors=len(result.failures) + len(failures),
            result_path=self.result_path,
            result_doc=doc,
            replayed=len(replayed.done),
        )

    def _soak_ranges(self, missing: List[int]) -> List[List[int]]:
        """Contiguous runs of missing indices, chunked for the crew."""
        if not missing:
            return []
        runs: List[List[int]] = [[missing[0]]]
        for idx in missing[1:]:
            if idx == runs[-1][-1] + 1:
                runs[-1].append(idx)
            else:
                runs.append([idx])
        target = max(1, self.spec.workers * SOAK_RANGES_PER_WORKER)
        chunk = max(1, (len(missing) + target - 1) // target)
        out: List[List[int]] = []
        for run in runs:
            for first, count in shard_seed_ranges(
                len(run), (len(run) + chunk - 1) // chunk
            ):
                out.append(run[first:first + count])
        return out


def ranges_label(cases: List[SoakCase]) -> str:
    if not cases:
        return "seeds[]"
    return f"seeds[{cases[0].index}..{cases[-1].index}]"
