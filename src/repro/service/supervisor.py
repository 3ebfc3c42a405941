"""Supervised multi-process workers for the campaign service.

Where :mod:`repro.harness.sweep` hardens a *single batch* against hung
and killed workers (tear the pool down, re-run survivors solo), a
long-running campaign needs the inverse shape: a fixed crew of workers
that outlives any one task, with the supervisor watching each worker and
replacing casualties in place.  The supervisor generalizes PR 5's
kill-pool hardening:

* **per-worker dispatch** — each worker has its own task queue, so the
  supervisor always knows exactly which task a dead worker was holding
  (a shared queue cannot attribute blame without the worker's help);
* **heartbeats** — a daemon thread in every worker reports liveness on
  the shared result queue; the same thread watches the parent PID and
  ``os._exit``\\ s if the coordinator is ``kill -9``'d, so orphaned
  workers never outlive their campaign;
* **per-task timeout** — a task past its deadline gets its worker
  SIGKILLed and counts a ``timeout`` attempt; a live-but-silent worker
  (no heartbeat past the grace window) is treated the same way;
* **retry budget + exponential backoff** — failed attempts requeue with
  ``backoff_base_s * 2**(attempt-1)`` (capped) of cool-down, bounded by
  ``retries``; exhaustion yields a typed outcome, never an exception —
  graceful degradation to a partial-results campaign;
* **dead-worker respawn** — the crew is kept at strength until every
  task settles;
* **affinity dispatch** — an idle worker prefers a task whose
  ``affinity`` key it already ran, then a key no live worker holds, so
  a sweep's canonical programs are generated once per key, not once
  per worker that happens to draw one of its cells.

Task payloads are the engines' own units: a ``sweep-cell`` task wraps
:func:`repro.harness.sweep._execute` (inheriting its test-only
kill/hang hooks), a ``soak-range`` task replays
:func:`repro.chaos.soak.run_soak_case` over a contiguous index range
with a per-process harness cache.  A third test-only hook,
``REPRO_SERVICE_TEST_KILL_ONCE``, kills a worker the *first* time it
picks up a matching task label — the marker file in ``scratch_dir``
makes it one-shot, so retry-after-respawn is observable end to end.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from queue import Empty
from typing import Callable, Dict, Hashable, List, Optional, Set, Tuple

#: test-only: SIGKILL the worker the first time it dequeues a task with
#: this label (one-shot via a marker file in the supervisor scratch dir).
TEST_KILL_ONCE_ENV = "REPRO_SERVICE_TEST_KILL_ONCE"
#: test-only: sleep this many seconds before executing each task —
#: deterministic pacing so crash tests can land a kill mid-campaign.
TEST_SLEEP_ENV = "REPRO_SERVICE_TEST_TASK_SLEEP_S"


@dataclass
class SupervisorConfig:
    """Tunables for one supervised run."""

    workers: int = 2
    timeout_s: Optional[float] = None
    retries: int = 1
    backoff_base_s: float = 0.25
    backoff_cap_s: float = 5.0
    heartbeat_interval_s: float = 0.5
    #: a worker silent for this long (while alive) is presumed wedged.
    heartbeat_grace_s: float = 30.0
    #: directory for test-hook marker files (optional).
    scratch_dir: Optional[str] = None


@dataclass
class Task:
    """One unit of campaign work."""

    task_id: int
    kind: str  #: ``sweep-cell`` | ``soak-range``
    payload: object
    label: str = ""
    #: tasks with equal (hashable) affinity reuse state a worker builds
    #: up, such as a sweep cell's canonical program: dispatch prefers
    #: the worker that already ran one (see :func:`pick_task`).
    affinity: Optional[Hashable] = None


@dataclass
class TaskOutcome:
    """How one task ended, after every retry was spent or it succeeded.

    ``status`` mirrors the sweep engine's typed failures: ``ok``,
    ``error`` (payload = (exception, message, traceback)), ``timeout``,
    ``worker-lost``; plus ``cancelled`` when the campaign was stopped
    before the task settled.
    """

    task_id: int
    status: str
    payload: object
    seconds: float = 0.0
    worker: Optional[int] = None
    attempts: int = 0


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------

#: per-process cache of soak baselines: workload -> design -> harness.
_SOAK_HARNESSES: Dict[str, Dict[str, object]] = {}


def _maybe_test_kill_once(label: str, scratch: Optional[str]) -> None:
    want = os.environ.get(TEST_KILL_ONCE_ENV)
    if not want or want != label or not scratch:
        return
    marker = os.path.join(
        scratch, "killed-" + hashlib.sha256(label.encode()).hexdigest()[:12]
    )
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return  # already died once for this label; run normally
    os.close(fd)
    os.kill(os.getpid(), signal.SIGKILL)


def _run_task(kind: str, payload: object) -> Tuple[str, object, float, int]:
    """Execute one task in the worker; returns (status, payload, s, pid)."""
    if kind == "sweep-cell":
        from repro.harness.sweep import _execute

        return _execute(payload)  # type: ignore[arg-type]
    if kind == "soak-range":
        from repro.chaos.soak import run_soak_case

        t0 = time.perf_counter()
        spec = dict(payload)  # type: ignore[call-overload]
        cases: List[Dict[str, object]] = []
        for idx in spec["indices"]:
            harness_cache = _SOAK_HARNESSES.setdefault(spec["workload"], {})
            case = run_soak_case(
                spec["workload"],
                int(spec["seed"]) + int(idx),
                int(idx),
                spec["design_pool"],
                media=bool(spec["media"]),
                shrink=bool(spec["shrink"]),
                harnesses=harness_cache,  # type: ignore[arg-type]
            )
            cases.append(case.to_json())
        return "ok", cases, time.perf_counter() - t0, os.getpid()
    return (
        "error",
        ("ValueError", f"unknown task kind {kind!r}", ""),
        0.0,
        os.getpid(),
    )


def _worker_main(
    worker_id: int,
    task_q: "multiprocessing.Queue",
    result_q: "multiprocessing.Queue",
    hb_interval_s: float,
    parent_pid: int,
    scratch: Optional[str],
) -> None:
    def _beat() -> None:
        while True:
            if os.getppid() != parent_pid:
                os._exit(2)  # the coordinator died; do not orphan
            try:
                result_q.put(("hb", worker_id, time.time()))
            except Exception:
                os._exit(2)
            time.sleep(hb_interval_s)

    threading.Thread(target=_beat, daemon=True).start()
    pace = float(os.environ.get(TEST_SLEEP_ENV, "0") or 0.0)
    while True:
        item = task_q.get()
        if item is None:
            return
        task_id, kind, payload, label = item
        _maybe_test_kill_once(label, scratch)
        if pace > 0:
            time.sleep(pace)
        try:
            status, result, seconds, pid = _run_task(kind, payload)
        except BaseException as exc:  # never let a worker die silently
            status = "error"
            result = (type(exc).__name__, str(exc), traceback.format_exc())
            seconds, pid = 0.0, os.getpid()
        try:
            result_q.put(("done", worker_id, task_id, status, result, seconds, pid))
        except Exception:
            os._exit(3)  # result unpicklable/pipe gone; supervisor will respawn


# ---------------------------------------------------------------------------
# supervisor
# ---------------------------------------------------------------------------


@dataclass
class _WorkerHandle:
    proc: "multiprocessing.process.BaseProcess"
    task_q: "multiprocessing.Queue"
    current: Optional["_TaskState"] = None
    deadline: Optional[float] = None
    last_hb: float = 0.0
    #: affinity keys of every task dispatched to this worker.
    affinities: Set[Hashable] = field(default_factory=set)


@dataclass
class _TaskState:
    task: Task
    attempts: int = 0
    not_before: float = 0.0


def pick_task(
    ready: List[_TaskState],
    now: float,
    mine: Set[Hashable],
    held: Set[Hashable],
) -> Optional[int]:
    """Index into ``ready`` of the task an idle worker should run next.

    ``ready`` is sorted by (``not_before``, task id); tasks still cooling
    down are never picked.  In order of preference: a task whose
    affinity this worker already ran (``mine``); a task whose affinity
    no live worker holds (``held``); ``ready[0]``.  None if ``ready[0]``
    is still cooling down.
    """
    if not ready or ready[0].not_before > now:
        return None
    eligible = [
        i for i, state in enumerate(ready) if state.not_before <= now
    ]
    for i in eligible:
        if ready[i].task.affinity is not None and ready[i].task.affinity in mine:
            return i
    for i in eligible:
        if ready[i].task.affinity is not None and ready[i].task.affinity not in held:
            return i
    return 0


class WorkerSupervisor:
    """Run tasks to completion over a self-healing worker crew."""

    def __init__(self, config: Optional[SupervisorConfig] = None) -> None:
        self.config = config or SupervisorConfig()
        self._ctx = multiprocessing.get_context()
        self._workers: Dict[int, _WorkerHandle] = {}
        self._next_worker_id = 0
        self._result_q: Optional["multiprocessing.Queue"] = None
        #: liveness snapshot for status documents.
        self.worker_info: List[Dict[str, object]] = []

    # -- crew management ---------------------------------------------------

    def _spawn_worker(self) -> int:
        assert self._result_q is not None
        wid = self._next_worker_id
        self._next_worker_id += 1
        task_q: "multiprocessing.Queue" = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                wid, task_q, self._result_q,
                self.config.heartbeat_interval_s, os.getpid(),
                self.config.scratch_dir,
            ),
            daemon=True,
        )
        proc.start()
        self._workers[wid] = _WorkerHandle(
            proc=proc, task_q=task_q, last_hb=time.monotonic()
        )
        return wid

    def _kill_worker(self, wid: int) -> None:
        handle = self._workers.pop(wid, None)
        if handle is None:
            return
        try:
            if handle.proc.pid is not None:
                os.kill(handle.proc.pid, signal.SIGKILL)
        except OSError:
            pass
        handle.proc.join(timeout=1.0)
        handle.task_q.close()

    def _shutdown(self) -> None:
        for wid, handle in list(self._workers.items()):
            try:
                handle.task_q.put(None)
            except Exception:
                pass
        deadline = time.monotonic() + 2.0
        for handle in self._workers.values():
            handle.proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for wid in list(self._workers):
            handle = self._workers[wid]
            if handle.proc.is_alive():
                self._kill_worker(wid)
        self._workers.clear()

    # -- accounting --------------------------------------------------------

    def _backoff(self, attempts: int) -> float:
        base = self.config.backoff_base_s
        if base <= 0:
            return 0.0
        return min(self.config.backoff_cap_s, base * (2.0 ** max(0, attempts - 1)))

    def _requeue_or_fail(
        self,
        state: _TaskState,
        status: str,
        payload: object,
        seconds: float,
        worker_pid: Optional[int],
        ready: List[_TaskState],
        completed: Dict[int, TaskOutcome],
        on_result: Optional[Callable[[TaskOutcome], None]],
    ) -> None:
        if status != "ok" and state.attempts <= self.config.retries:
            state.not_before = time.monotonic() + self._backoff(state.attempts)
            ready.append(state)
            return
        outcome = TaskOutcome(
            task_id=state.task.task_id,
            status=status,
            payload=payload,
            seconds=seconds,
            worker=worker_pid,
            attempts=state.attempts,
        )
        completed[state.task.task_id] = outcome
        if on_result is not None:
            on_result(outcome)

    def _snapshot_workers(self) -> None:
        now = time.monotonic()
        self.worker_info = [
            {
                "pid": handle.proc.pid,
                "busy": handle.current is not None,
                "task": None if handle.current is None else handle.current.task.label,
                "heartbeat_age_s": round(now - handle.last_hb, 3),
            }
            for handle in self._workers.values()
        ]

    # -- main loop ---------------------------------------------------------

    def run(
        self,
        tasks: List[Task],
        on_result: Optional[Callable[[TaskOutcome], None]] = None,
        cancel: Optional[threading.Event] = None,
    ) -> Dict[int, TaskOutcome]:
        """Execute ``tasks``, calling ``on_result`` as each one settles.

        Returns outcomes keyed by task id.  With ``cancel`` set, unsettled
        tasks come back with status ``cancelled`` (in-flight work is
        SIGKILLed); the call itself always returns — a lost worker, a
        wedged cell, or an exhausted retry budget degrades to a typed
        outcome instead of an exception.
        """
        cfg = self.config
        completed: Dict[int, TaskOutcome] = {}
        if not tasks:
            return completed
        states = {t.task_id: _TaskState(task=t) for t in tasks}
        ready: List[_TaskState] = list(states.values())
        self._result_q = self._ctx.Queue()
        hb_stale = max(cfg.heartbeat_grace_s, 5.0 * cfg.heartbeat_interval_s)
        try:
            for _ in range(min(cfg.workers, len(tasks))):
                self._spawn_worker()
            while len(completed) < len(tasks):
                if cancel is not None and cancel.is_set():
                    for handle in self._workers.values():
                        if handle.current is not None:
                            self._requeue_cancelled(
                                handle.current, completed, on_result
                            )
                            handle.current = None
                    for state in ready:
                        self._requeue_cancelled(state, completed, on_result)
                    ready = []
                    break

                # 1. Drain results and heartbeats.
                try:
                    msg = self._result_q.get(timeout=0.05)
                except (Empty, OSError):
                    msg = None
                while msg is not None:
                    self._handle_message(msg, ready, completed, on_result)
                    try:
                        msg = self._result_q.get_nowait()
                    except (Empty, OSError):
                        msg = None

                now = time.monotonic()
                # 2. Police the crew: deaths, deadlines, silent workers.
                for wid in list(self._workers):
                    handle = self._workers[wid]
                    state = handle.current
                    if not handle.proc.is_alive():
                        self._kill_worker(wid)
                        if state is not None:
                            self._requeue_or_fail(
                                state, "worker-lost",
                                f"worker pid {handle.proc.pid} died while "
                                f"running {state.task.label!r}",
                                0.0, handle.proc.pid,
                                ready, completed, on_result,
                            )
                        continue
                    if state is None:
                        continue
                    if handle.deadline is not None and now > handle.deadline:
                        self._kill_worker(wid)
                        self._requeue_or_fail(
                            state, "timeout",
                            f"task exceeded the per-task timeout of "
                            f"{cfg.timeout_s:g}s",
                            float(cfg.timeout_s or 0.0), handle.proc.pid,
                            ready, completed, on_result,
                        )
                        continue
                    if now - handle.last_hb > hb_stale:
                        self._kill_worker(wid)
                        self._requeue_or_fail(
                            state, "worker-lost",
                            f"worker pid {handle.proc.pid} stopped "
                            f"heartbeating for {hb_stale:g}s",
                            0.0, handle.proc.pid,
                            ready, completed, on_result,
                        )

                # 3. Keep the crew at strength while work remains.
                outstanding = len(tasks) - len(completed)
                busy = sum(
                    1 for h in self._workers.values() if h.current is not None
                )
                want = min(cfg.workers, max(busy + len(ready), busy), outstanding)
                while len(self._workers) < want:
                    self._spawn_worker()

                # 4. Dispatch ready tasks to idle workers.
                if ready:
                    ready.sort(key=lambda s: (s.not_before, s.task.task_id))
                    held = set().union(
                        *(h.affinities for h in self._workers.values())
                    )
                    for wid, handle in self._workers.items():
                        if not ready:
                            break
                        if handle.current is not None:
                            continue
                        pick = pick_task(ready, now, handle.affinities, held)
                        if pick is None:
                            break  # earliest task still cooling down
                        state = ready.pop(pick)
                        if state.task.affinity is not None:
                            handle.affinities.add(state.task.affinity)
                            held.add(state.task.affinity)
                        state.attempts += 1
                        handle.current = state
                        handle.deadline = (
                            None if cfg.timeout_s is None
                            else now + cfg.timeout_s
                        )
                        try:
                            handle.task_q.put((
                                state.task.task_id, state.task.kind,
                                state.task.payload, state.task.label,
                            ))
                        except Exception:
                            # unpicklable payload or dead queue: charge the
                            # attempt and let the police pass clean up.
                            handle.current = None
                            state.attempts -= 1
                            self._requeue_or_fail(
                                state, "error",
                                ("RuntimeError", "could not dispatch task", ""),
                                0.0, None, ready, completed, on_result,
                            )
                self._snapshot_workers()
            return completed
        finally:
            self._shutdown()
            if self._result_q is not None:
                self._result_q.close()
                self._result_q = None

    def _requeue_cancelled(
        self,
        state: _TaskState,
        completed: Dict[int, TaskOutcome],
        on_result: Optional[Callable[[TaskOutcome], None]],
    ) -> None:
        if state.task.task_id in completed:
            return
        outcome = TaskOutcome(
            task_id=state.task.task_id,
            status="cancelled",
            payload="campaign cancelled before this task settled",
            attempts=state.attempts,
        )
        completed[state.task.task_id] = outcome
        if on_result is not None:
            on_result(outcome)

    def _handle_message(
        self,
        msg: object,
        ready: List[_TaskState],
        completed: Dict[int, TaskOutcome],
        on_result: Optional[Callable[[TaskOutcome], None]],
    ) -> None:
        if not isinstance(msg, tuple) or not msg:
            return
        if msg[0] == "hb":
            _, wid, _ts = msg
            handle = self._workers.get(wid)
            if handle is not None:
                handle.last_hb = time.monotonic()
            return
        if msg[0] != "done":
            return
        _, wid, task_id, status, payload, seconds, pid = msg
        handle = self._workers.get(wid)
        if handle is None or handle.current is None:
            return  # late result from a worker we already killed
        state = handle.current
        if state.task.task_id != task_id or task_id in completed:
            return
        handle.current = None
        handle.deadline = None
        handle.last_hb = time.monotonic()
        self._requeue_or_fail(
            state, status, payload, seconds, pid, ready, completed, on_result
        )
