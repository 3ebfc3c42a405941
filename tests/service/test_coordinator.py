"""Coordinator: campaign execution, journal replay, engine parity."""

import json
import os
import threading

import pytest

from repro.chaos.soak import run_soak
from repro.harness.cachedir import CellCache
from repro.harness.sweep import expand_cells, run_sweep
from repro.obs.export import sweep_to_json
from repro.service.coordinator import Coordinator
from repro.service.jobs import CampaignSpec
from repro.service.journal import read_journal, replay_journal


def _sweep_spec(**over):
    doc = {
        "kind": "sweep",
        "workloads": ["queue"],
        "designs": ["intel-x86", "strandweaver"],
        "workers": 2,
        "deterministic": True,
        "ops_per_thread": 4,
    }
    doc.update(over)
    return CampaignSpec.from_json(doc)


def _soak_spec(**over):
    doc = {"kind": "soak", "workload": "queue", "seeds": 4, "seed": 7, "workers": 2}
    doc.update(over)
    return CampaignSpec.from_json(doc)


def _run(tmp_path, spec, name="c-1", **kw):
    d = os.path.join(str(tmp_path), name)
    return Coordinator(d, name, spec, **kw).run(), d


class TestSweepCampaign:
    def test_finishes_and_writes_the_sweep_artefact(self, tmp_path):
        spec = _sweep_spec()
        outcome, d = _run(tmp_path, spec)
        assert outcome.status == "finished"
        assert outcome.done == 2 and outcome.errors == 0
        doc = json.load(open(outcome.result_path, encoding="utf-8"))
        assert doc["schema"] == "repro.sweep/1"
        assert len(doc["cells"]) == 2

    def test_artefact_matches_the_cli_sweep_engine_bit_for_bit(self, tmp_path):
        spec = _sweep_spec()
        outcome, _ = _run(tmp_path, spec)
        cells = expand_cells(["queue"], ["intel-x86", "strandweaver"],
                             ["txn"], ops_per_thread=4)
        direct = sweep_to_json(run_sweep(cells, jobs=1), deterministic=True)
        assert outcome.result_doc == direct

    def test_journal_has_one_cell_done_per_cell_and_a_terminal(self, tmp_path):
        spec = _sweep_spec()
        _, d = _run(tmp_path, spec)
        events = [r["event"] for r in read_journal(os.path.join(d, "journal.jsonl"))]
        assert events.count("cell-done") == 2
        assert events[-1] == "finished"

    def test_rerun_of_finished_dir_replays_instead_of_rerunning(self, tmp_path):
        spec = _sweep_spec()
        outcome1, d = _run(tmp_path, spec)
        bytes1 = open(outcome1.result_path, "rb").read()
        outcome2 = Coordinator(d, "c-1", spec).run()
        assert outcome2.replayed == 2  # every index came from the journal
        assert open(outcome2.result_path, "rb").read() == bytes1

    def test_failed_cells_degrade_to_typed_failures_not_lost_campaigns(
        self, tmp_path, monkeypatch
    ):
        from repro.harness.experiment import clear_cache
        from repro.harness.sweep import TEST_KILL_ENV

        clear_cache()  # the cell must actually run (and die), not memo-hit
        spec = _sweep_spec(retries=0)
        monkeypatch.setenv(TEST_KILL_ENV, "queue/intel-x86/txn")
        outcome, d = _run(tmp_path, spec)
        assert outcome.status == "finished"
        assert outcome.errors == 1
        doc = json.load(open(outcome.result_path, encoding="utf-8"))
        failed = [c for c in doc["cells"] if not c["ok"]]
        assert len(failed) == 1
        assert failed[0]["failure"]["kind"] == "worker-lost"

    def test_shares_the_content_addressed_cache(self, tmp_path):
        cache = CellCache(os.path.join(str(tmp_path), "cache"))
        spec = _sweep_spec()
        outcome1, _ = _run(tmp_path, spec, name="c-1", cache=cache)
        # Second campaign over the same matrix: all cells from cache/memo.
        outcome2, d2 = _run(tmp_path, spec, name="c-2", cache=cache)
        assert outcome2.status == "finished"
        records = read_journal(os.path.join(d2, "journal.jsonl"))
        sources = {r.get("source") for r in records if r["event"] == "cell-done"}
        assert sources <= {"memo", "cache"}
        assert outcome1.result_doc == outcome2.result_doc

    def test_tasks_sharing_a_canonical_key_run_on_one_worker(
        self, tmp_path, monkeypatch
    ):
        from repro.harness.experiment import clear_cache
        from repro.service.supervisor import TEST_SLEEP_ENV

        clear_cache()  # every cell must run as a task, not memo-hit
        # Pacing dwarfs generation-time differences between the keys,
        # so no worker runs out of its own key's tasks while the other
        # key still has some queued.
        monkeypatch.setenv(TEST_SLEEP_ENV, "0.3")
        spec = _sweep_spec(
            workloads=["queue", "hashmap"],
            designs=["intel-x86", "hops", "strandweaver"],
        )
        outcome, d = _run(tmp_path, spec)
        assert outcome.status == "finished" and outcome.errors == 0
        workers = {}
        for rec in read_journal(os.path.join(d, "journal.jsonl")):
            if rec["event"] == "cell-done":
                assert rec["source"] == "run"
                benchmark, _design, model = rec["cell"].split("/")
                workers.setdefault((benchmark, model), set()).add(rec["worker"])
        assert len(workers) == 2
        assert all(len(pids) == 1 for pids in workers.values()), workers

    def test_cancel_before_start_settles_as_cancelled(self, tmp_path):
        from repro.harness.experiment import clear_cache

        clear_cache()  # with a warm memo there is nothing left to cancel
        cancel = threading.Event()
        cancel.set()
        spec = _sweep_spec()
        d = os.path.join(str(tmp_path), "c-x")
        outcome = Coordinator(d, "c-x", spec, cancel=cancel).run()
        assert outcome.status == "cancelled"
        state = replay_journal(os.path.join(d, "journal.jsonl"))
        assert state.cancelled and not state.done  # nothing journaled done


class TestSoakCampaign:
    def test_matches_the_serial_soak_engine_bit_for_bit(self, tmp_path):
        spec = _soak_spec()
        outcome, _ = _run(tmp_path, spec)
        assert outcome.status == "finished"
        serial = run_soak("queue", seeds=4, seed=7).summary()
        assert outcome.result_doc == serial

    def test_resume_of_finished_soak_is_byte_identical(self, tmp_path):
        spec = _soak_spec()
        outcome1, d = _run(tmp_path, spec)
        bytes1 = open(outcome1.result_path, "rb").read()
        outcome2 = Coordinator(d, "c-1", spec).run()
        assert outcome2.replayed == 4
        assert open(outcome2.result_path, "rb").read() == bytes1

    def test_soak_respects_design_pool_and_flags(self, tmp_path):
        spec = _soak_spec(designs=["strandweaver"], media=False, shrink=False)
        outcome, _ = _run(tmp_path, spec)
        serial = run_soak(
            "queue", seeds=4, seed=7, designs=["strandweaver"],
            media=False, shrink=False,
        ).summary()
        assert outcome.result_doc == serial


class TestLintPreflight:
    def test_sweep_journals_one_lint_record_per_cell_combo(self, tmp_path):
        spec = _sweep_spec()
        _, d = _run(tmp_path, spec)
        lints = [
            r for r in read_journal(os.path.join(d, "journal.jsonl"))
            if r["event"] == "lint"
        ]
        # queue x {intel-x86, strandweaver} x txn = 2 distinct combos
        assert len(lints) == 2
        assert sorted(r["cell"] for r in lints) == [
            "queue/intel-x86/txn",
            "queue/strandweaver/txn",
        ]
        for r in lints:
            assert r["consistent"] is True  # correct designs lint clean
            assert r["errors"] == 0

    def test_soak_preflight_covers_the_design_pool(self, tmp_path):
        spec = _soak_spec(designs=["strandweaver", "non-atomic"])
        _, d = _run(tmp_path, spec)
        lints = [
            r for r in read_journal(os.path.join(d, "journal.jsonl"))
            if r["event"] == "lint"
        ]
        by_design = {r["design"]: r for r in lints}
        assert set(by_design) == {"strandweaver", "non-atomic"}
        # non-atomic is *supposed* to error; silence there is the anomaly
        assert by_design["non-atomic"]["errors"] > 0
        assert all(r["consistent"] for r in lints)

    def test_preflight_runs_in_the_first_life_only(self, tmp_path):
        spec = _sweep_spec()
        outcome, d = _run(tmp_path, spec)
        journal = os.path.join(d, "journal.jsonl")
        before = sum(
            1 for r in read_journal(journal) if r["event"] == "lint"
        )
        Coordinator(d, "c-1", spec).run()  # resume of a finished campaign
        after = sum(
            1 for r in read_journal(journal) if r["event"] == "lint"
        )
        assert before == 2
        assert after == before  # no duplicate pre-flight on resume


class TestResumeMidway:
    def test_partially_journaled_sweep_resumes_exactly_once(self, tmp_path):
        """Simulate a crash by truncating the journal after one cell-done."""
        spec = _sweep_spec()
        outcome, d = _run(tmp_path, spec)
        journal = os.path.join(d, "journal.jsonl")
        bytes_full = open(outcome.result_path, "rb").read()
        lines = open(journal, encoding="utf-8").read().splitlines(keepends=True)
        # keep everything up to and including the first cell-done (the
        # preamble also holds created/coordinator-start/lint pre-flight
        # records); drop the rest
        first_done = next(
            i for i, ln in enumerate(lines) if '"cell-done"' in ln
        )
        with open(journal, "w", encoding="utf-8") as fh:
            fh.writelines(lines[: first_done + 1])
        os.unlink(outcome.result_path)

        outcome2 = Coordinator(d, "c-1", spec).run()
        assert outcome2.status == "finished"
        assert outcome2.replayed == 1  # exactly the surviving cell-done
        assert open(outcome2.result_path, "rb").read() == bytes_full
        state = replay_journal(journal)
        assert sorted(state.done) == [0, 1]
        assert state.duplicates == 0
