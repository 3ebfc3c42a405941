"""Worker supervisor: dispatch, retry budget, kill/respawn, timeouts."""

import os

import pytest

from repro.harness.sweep import expand_cells
from repro.service.supervisor import (
    TEST_KILL_ONCE_ENV,
    SupervisorConfig,
    Task,
    WorkerSupervisor,
    _TaskState,
    pick_task,
)


def _cells(designs):
    return expand_cells(["queue"], designs, ["txn"], ops_per_thread=4)


def _tasks(designs):
    return [
        Task(task_id=i, kind="sweep-cell", payload=cell, label=cell.label())
        for i, cell in enumerate(_cells(designs))
    ]


class TestHappyPath:
    def test_sweep_cells_run_to_ok(self):
        tasks = _tasks(["strandweaver", "intel-x86"])
        outcomes = WorkerSupervisor(SupervisorConfig(workers=2)).run(tasks)
        assert sorted(outcomes) == [0, 1]
        assert all(o.status == "ok" for o in outcomes.values())
        assert all(o.attempts == 1 for o in outcomes.values())

    def test_results_stream_through_on_result(self):
        seen = []
        tasks = _tasks(["strandweaver"])
        WorkerSupervisor(SupervisorConfig(workers=1)).run(
            tasks, on_result=lambda o: seen.append(o.task_id)
        )
        assert seen == [0]

    def test_unknown_task_kind_is_a_typed_error(self):
        tasks = [Task(task_id=0, kind="no-such-kind", payload=None, label="x")]
        outcomes = WorkerSupervisor(
            SupervisorConfig(workers=1, retries=0)
        ).run(tasks)
        assert outcomes[0].status == "error"
        assert "unknown task kind" in str(outcomes[0].payload)


class TestFailureHandling:
    def test_exception_in_task_exhausts_retries_then_settles(self):
        # A sweep payload of the wrong type raises inside the worker.
        tasks = [Task(task_id=0, kind="sweep-cell", payload="bogus", label="b")]
        cfg = SupervisorConfig(workers=1, retries=1, backoff_base_s=0.0)
        outcomes = WorkerSupervisor(cfg).run(tasks)
        assert outcomes[0].status == "error"
        assert outcomes[0].attempts == 2  # 1 try + 1 retry

    def test_killed_worker_is_respawned_and_task_retried(self, tmp_path, monkeypatch):
        tasks = _tasks(["strandweaver"])
        monkeypatch.setenv(TEST_KILL_ONCE_ENV, tasks[0].label)
        cfg = SupervisorConfig(
            workers=1, retries=1, backoff_base_s=0.0,
            scratch_dir=str(tmp_path),
            heartbeat_interval_s=0.1, heartbeat_grace_s=5.0,
        )
        outcomes = WorkerSupervisor(cfg).run(tasks)
        assert outcomes[0].status == "ok"
        assert outcomes[0].attempts == 2  # died once, succeeded on respawn
        assert any(name.startswith("killed-") for name in os.listdir(tmp_path))

    def test_kill_without_retry_budget_degrades_to_worker_lost(
        self, tmp_path, monkeypatch
    ):
        tasks = _tasks(["strandweaver"])
        monkeypatch.setenv(TEST_KILL_ONCE_ENV, tasks[0].label)
        cfg = SupervisorConfig(
            workers=1, retries=0, backoff_base_s=0.0, scratch_dir=str(tmp_path),
            heartbeat_interval_s=0.1, heartbeat_grace_s=5.0,
        )
        outcomes = WorkerSupervisor(cfg).run(tasks)
        assert outcomes[0].status == "worker-lost"

    def test_hung_task_times_out(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_TEST_TASK_SLEEP_S", "30")
        tasks = _tasks(["strandweaver"])
        cfg = SupervisorConfig(
            workers=1, retries=0, timeout_s=1.0, backoff_base_s=0.0,
            heartbeat_interval_s=0.1, heartbeat_grace_s=30.0,
        )
        outcomes = WorkerSupervisor(cfg).run(tasks)
        assert outcomes[0].status == "timeout"


class TestBackoff:
    def test_backoff_is_exponential_and_capped(self):
        sup = WorkerSupervisor(
            SupervisorConfig(backoff_base_s=0.25, backoff_cap_s=1.0)
        )
        assert sup._backoff(1) == 0.25
        assert sup._backoff(2) == 0.5
        assert sup._backoff(3) == 1.0
        assert sup._backoff(10) == 1.0  # capped

    def test_zero_base_disables_backoff(self):
        sup = WorkerSupervisor(SupervisorConfig(backoff_base_s=0.0))
        assert sup._backoff(5) == 0.0


class TestEmptyAndCancelled:
    def test_no_tasks_is_a_no_op(self):
        assert WorkerSupervisor().run([]) == {}

    def test_preset_cancel_settles_everything_cancelled(self):
        import threading

        cancel = threading.Event()
        cancel.set()
        tasks = _tasks(["strandweaver", "intel-x86"])
        outcomes = WorkerSupervisor(SupervisorConfig(workers=2)).run(
            tasks, cancel=cancel
        )
        assert {o.status for o in outcomes.values()} == {"cancelled"}


class TestAffinityDispatch:
    @staticmethod
    def _ready(*affinities, not_before=0.0):
        return [
            _TaskState(Task(task_id=i, kind="sweep-cell", payload=None,
                            affinity=key), not_before=not_before)
            for i, key in enumerate(affinities)
        ]

    def test_prefers_a_key_this_worker_already_ran(self):
        ready = self._ready("a", "b", "c")
        assert pick_task(ready, 1.0, mine={"c"}, held={"a", "c"}) == 2

    def test_then_a_key_no_live_worker_holds(self):
        ready = self._ready("a", "b", "c")
        assert pick_task(ready, 1.0, mine=set(), held={"a"}) == 1

    def test_then_the_head_of_the_queue(self):
        ready = self._ready("a", None, "b")
        assert pick_task(ready, 1.0, mine=set(), held={"a", "b"}) == 0

    def test_cooling_down_tasks_are_never_picked(self):
        ready = self._ready("a") + self._ready("b", not_before=5.0)
        assert pick_task(ready, 1.0, mine={"b"}, held={"a", "b"}) == 0
        assert pick_task(self._ready("a", not_before=5.0), 1.0, set(), set()) is None
