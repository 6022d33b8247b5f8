"""Tests for the deterministic fault-injection harness: plans, the
injector, every probe site's behavior, index durability/healing/compaction,
the watchdog, crash recovery, and the chaos matrix — all in-process."""

import itertools
import json
import os
import re
import threading
import time
from unittest import mock

import pytest

from repro.api import PreprocessJob
from repro.dataio.rowformat import RowFileReader, RowFileWriter
from repro.dataio.schema import TableSchema
from repro.errors import (
    ConfigurationError,
    FaultError,
    FormatError,
    JobTimeoutError,
    ServeError,
)
from repro.faults import (
    FAULT_POINTS,
    FaultInjector,
    FaultPlan,
    FaultRule,
    active_injector,
    fault_point,
    fault_stage,
    install,
    installed,
    uninstall,
)
from repro.faults.chaos import (
    CHAOS_TIERS,
    DEFAULT_BATCH_FAULTS,
    DEFAULT_FAULTS,
    DEFAULT_FLEET_FAULTS,
    check_report,
    deterministic_view,
    plan_for,
    run_chaos,
    run_episode,
)
from repro.faults.plan import probed_by
from repro.serve import (
    BoundedJobQueue,
    JobLogIndex,
    JobRecord,
    PreprocessService,
    WorkerPool,
)

JOB = PreprocessJob(model="RM1", num_rows=256, num_shards=1)


def fast_runner(job, record_stage):
    record_stage("generate", "started", {})
    record_stage("generate", "completed", {"elapsed_s": 0.0, "rows": job.num_rows})
    return f"digest-{job.seed}"


@pytest.fixture(autouse=True)
def no_leaked_injector():
    """Every test starts and ends with probes disabled."""
    uninstall()
    yield
    uninstall()


# ---------------------------------------------------------------------------
# plans and rules
# ---------------------------------------------------------------------------


class TestFaultRule:
    def test_default_action_per_point(self):
        assert FaultRule("worker-crash").action == "crash"
        assert FaultRule("torn-write").action == "torn"
        assert FaultRule("disk-full").action == "enospc"

    def test_unknown_point_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault point"):
            FaultRule("no-such-point")

    def test_unknown_action_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown fault action"):
            FaultRule("worker-crash", action="explode")

    def test_rate_bounds(self):
        with pytest.raises(ConfigurationError, match="rate"):
            FaultRule("worker-crash", rate=1.5)
        with pytest.raises(ConfigurationError, match="rate"):
            FaultRule("worker-crash", rate=-0.1)

    def test_dict_round_trip(self):
        rule = FaultRule(
            "hung-stage", rate=0.5, key="job_id",
            match={"stage": "transform"}, delay_s=1.0, max_fires=3,
        )
        assert FaultRule.from_dict(rule.to_dict()) == rule

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown FaultRule keys"):
            FaultRule.from_dict({"point": "worker-crash", "bogus": 1})

    def test_match_filter(self):
        rule = FaultRule("hung-stage", match={"stage": "transform"})
        assert rule.matches({"stage": "transform", "seed": 1})
        assert not rule.matches({"stage": "extract"})
        assert not rule.matches({})


class TestFaultPlan:
    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            seed=11,
            rules=(FaultRule("worker-crash", rate=0.25),
                   FaultRule("torn-write", key="job_id")),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan
        path = str(tmp_path / "plan.json")
        plan.save(path)
        assert FaultPlan.load(path) == plan

    def test_rules_for_keeps_plan_order_across_interleaved_points(self):
        rules = (
            FaultRule("node-down", rate=0.1),
            FaultRule("slow-node", rate=0.2),
            FaultRule("node-down", rate=0.3, match={"pool": "a"}),
            FaultRule("slow-node", rate=0.4, delay_s=5.0),
            FaultRule("node-down", rate=0.5, max_fires=1),
        )
        plan = FaultPlan(seed=4, rules=rules)
        assert plan.rules_for("node-down") == (rules[0], rules[2], rules[4])
        assert plan.rules_for("slow-node") == (rules[1], rules[3])
        assert plan.rules_for("arrival-burst") == ()
        assert all(
            got is want
            for got, want in zip(plan.rules_for("node-down"), rules[::2])
        )
        # the index is not a field: round-trip and equality never see it
        assert set(plan.to_dict()) == {"seed", "rules"}
        restored = FaultPlan.from_dict(plan.to_dict())
        assert restored == plan
        assert restored.rules_for("slow-node") == (rules[1], rules[3])

    def test_hash01_is_pure_and_uniform_ish(self):
        plan = FaultPlan(seed=3)
        values = [plan.hash01("worker-crash", f"job-{i}") for i in range(200)]
        assert values == [
            plan.hash01("worker-crash", f"job-{i}") for i in range(200)
        ]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 40 < sum(v < 0.5 for v in values) < 160

    def test_seed_changes_decisions(self):
        a = FaultPlan(seed=1)
        b = FaultPlan(seed=2)
        assert [a.hash01("conn-drop", str(i)) for i in range(8)] != [
            b.hash01("conn-drop", str(i)) for i in range(8)
        ]

    def test_every_row_is_well_formed(self):
        """One row per point: its action is a rule's default, its rate a
        probability, and its tiers chaos tiers."""
        for point, row in FAULT_POINTS.items():
            assert FaultRule(point).action == row.action
            assert 0.0 < row.rate <= 1.0
            assert set(row.tiers) <= set(CHAOS_TIERS)

    def test_every_front_door_reads_the_row_rate(self):
        """Chaos plans and ``repro fleet run --faults`` read one rate."""
        from repro.cli import _fleet_injector

        for point, row in FAULT_POINTS.items():
            for tier in row.tiers:
                (rule,) = plan_for(tier, point, seed=0, job_timeout_s=1.0).rules
                assert rule.rate == row.rate
        fleet = _fleet_injector(",".join(DEFAULT_FLEET_FAULTS), seed=0).plan
        assert {rule.point: rule.rate for rule in fleet.rules} == {
            fault: FAULT_POINTS[fault].rate for fault in DEFAULT_FLEET_FAULTS
        }

    @pytest.mark.parametrize("tier,matrix", [
        ("serve", DEFAULT_FAULTS),
        ("batch", DEFAULT_BATCH_FAULTS),
        ("fleet", DEFAULT_FLEET_FAULTS),
    ])
    def test_each_default_matrix_is_probed_by_its_tier(self, tier, matrix):
        assert set(matrix) <= set(probed_by(tier))

    def test_the_docs_table_is_the_catalogue(self):
        """``docs/robustness.md`` lists exactly the catalogue's points, in
        its order, with their tiers and default actions."""
        path = os.path.join(os.path.dirname(__file__), "..", "docs",
                            "robustness.md")
        with open(path) as handle:
            lines = handle.read().splitlines()
        start = lines.index("| point | site | tiers | default action |") + 2
        table = {}
        for line in itertools.takewhile(lambda l: l.startswith("|"),
                                        lines[start:]):
            point, _site, tiers, action = (
                cell.strip() for cell in line.strip("|").split("|")
            )
            table[point.strip("`")] = (
                tiers.split(" (")[0], re.match(r"`(\w+)`", action).group(1)
            )
            if point == "`row-corrupt`":
                assert "no chaos tier writes row files" in tiers
        assert list(table) == list(FAULT_POINTS)
        assert table == {
            point: (", ".join(row.tiers) or "none", row.action)
            for point, row in FAULT_POINTS.items()
        }


# ---------------------------------------------------------------------------
# the injector and the probes
# ---------------------------------------------------------------------------


class TestFaultInjector:
    def test_probes_are_noops_when_disabled(self):
        assert active_injector() is None
        assert fault_point("worker-crash", item="job-000001") is None
        fault_stage("transform", seed=1)  # must not raise

    def test_installed_scoping(self):
        injector = FaultInjector(FaultPlan(seed=0))
        with installed(injector) as active:
            assert active_injector() is active
        assert active_injector() is None

    def test_install_uninstall(self):
        injector = install(FaultInjector(FaultPlan(seed=0)))
        assert active_injector() is injector
        uninstall()
        assert active_injector() is None

    def test_error_action_raises_fault_error(self):
        plan = FaultPlan(seed=0, rules=(FaultRule("stage-error", rate=1.0),))
        with installed(FaultInjector(plan)):
            with pytest.raises(FaultError, match="injected fault"):
                fault_stage("transform", seed=1)

    def test_crash_action_raises_system_exit(self):
        plan = FaultPlan(seed=0, rules=(FaultRule("worker-crash", rate=1.0),))
        with installed(FaultInjector(plan)):
            with pytest.raises(SystemExit):
                fault_point("worker-crash", item="job-000001")

    def test_enospc_action_raises_oserror(self):
        import errno

        plan = FaultPlan(seed=0, rules=(FaultRule("disk-full", rate=1.0),))
        with installed(FaultInjector(plan)):
            with pytest.raises(OSError) as excinfo:
                fault_point("disk-full", job_id="job-000001")
        assert excinfo.value.errno == errno.ENOSPC

    def test_cooperative_action_returned_not_executed(self):
        plan = FaultPlan(seed=0, rules=(FaultRule("torn-write", rate=1.0),))
        with installed(FaultInjector(plan)):
            rule = fault_point("torn-write", job_id="job-000001")
        assert rule is not None and rule.action == "torn"

    def test_rate_keyed_firing_is_deterministic(self):
        plan = FaultPlan(seed=5, rules=(FaultRule("worker-crash", rate=0.5),))

        def fired_jobs():
            injector = FaultInjector(plan)
            hit = []
            with installed(injector):
                for i in range(20):
                    try:
                        fault_point("worker-crash", item=f"job-{i:06d}")
                    except SystemExit:
                        hit.append(i)
            return hit

        first = fired_jobs()
        assert first == fired_jobs()
        assert 0 < len(first) < 20  # rate 0.5 fires some, not all

    def test_max_fires_caps_firing(self):
        plan = FaultPlan(
            seed=0,
            rules=(FaultRule("stage-error", rate=1.0, max_fires=2),),
        )
        injector = FaultInjector(plan)
        with installed(injector):
            for _ in range(2):
                with pytest.raises(FaultError):
                    fault_point("stage-error", seed=_)
            assert fault_point("stage-error", seed=99) is None
        assert injector.fire_counts() == {"stage-error:error": 2}

    def test_max_fires_is_per_rule(self):
        # two rules on one point each get their own max_fires budget:
        # the first rule's fires must not consume the second's cap
        plan = FaultPlan(
            seed=0,
            rules=(
                FaultRule("stage-error", action="delay", rate=1.0,
                          delay_s=0.0, max_fires=1),
                FaultRule("stage-error", action="error", rate=1.0,
                          max_fires=1),
            ),
        )
        injector = FaultInjector(plan)
        with installed(injector):
            fault_point("stage-error", seed=1)  # rule 1: delay, no raise
            with pytest.raises(FaultError):
                fault_point("stage-error", seed=2)  # rule 2's own budget
            assert fault_point("stage-error", seed=3) is None  # both spent
        assert injector.fire_counts() == {
            "stage-error:delay": 1, "stage-error:error": 1,
        }

    def test_match_restricts_stage(self):
        plan = FaultPlan(
            seed=0,
            rules=(FaultRule("stage-error", rate=1.0,
                             match={"stage": "transform"}),),
        )
        with installed(FaultInjector(plan)):
            fault_stage("extract", seed=1)  # no match, no fire
            with pytest.raises(FaultError):
                fault_stage("transform", seed=1)

    def test_hang_released_by_uninstall(self):
        plan = FaultPlan(
            seed=0, rules=(FaultRule("hung-stage", rate=1.0, delay_s=30.0),)
        )
        injector = install(FaultInjector(plan))
        released = threading.Event()

        def hangs():
            fault_stage("transform", seed=1)
            released.set()

        thread = threading.Thread(target=hangs, daemon=True)
        thread.start()
        time.sleep(0.05)
        assert not released.is_set()
        uninstall()  # releases the injected hang
        assert released.wait(timeout=5.0)
        assert injector.fire_counts() == {"hung-stage:hang": 1}

    def test_fired_audit_trail(self):
        plan = FaultPlan(seed=0, rules=(FaultRule("queue-stall", rate=1.0,
                                                  delay_s=0.0),))
        injector = FaultInjector(plan)
        with installed(injector):
            fault_point("queue-stall", item="job-000001")
        assert injector.fired() == [
            {"point": "queue-stall", "action": "delay", "key": "job-000001"}
        ]


# ---------------------------------------------------------------------------
# index durability, healing, compaction
# ---------------------------------------------------------------------------


class TestIndexDurability:
    def _record(self, n=1, state="queued"):
        record = JobRecord(job_id=f"job-{n:06d}", job=JOB, submitted_at=1.0)
        if state == "completed":
            record = record.mark_completed(2.0, "digest")
        return record

    def test_fsync_append_round_trips(self, tmp_path):
        index = JobLogIndex(str(tmp_path / "jobs.jsonl"), fsync=True)
        index.append(self._record(1))
        index.append(self._record(1, "completed"))
        [loaded] = index.load()
        assert loaded.state == "completed"

    def test_torn_write_heals_on_next_append(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        index = JobLogIndex(path)
        index.append(self._record(1))
        plan = FaultPlan(seed=0, rules=(FaultRule("torn-write", rate=1.0),))
        with installed(FaultInjector(plan)):
            with pytest.raises(FaultError, match="torn"):
                index.append(self._record(2))
        # the torn half-line is on disk but load() tolerates a torn tail
        with open(path) as handle:
            assert not handle.read().endswith("\n")
        assert [r.job_id for r in index.load()] == ["job-000001"]
        # the next (clean) append truncates the torn tail first
        index.append(self._record(3))
        loaded = {r.job_id for r in index.load()}
        assert loaded == {"job-000001", "job-000003"}
        with open(path) as handle:
            lines = handle.readlines()
        assert all(line.endswith("\n") for line in lines)
        assert len(lines) == 2

    def test_torn_tail_healed_across_restart(self, tmp_path):
        # a daemon SIGKILL'd mid-append leaves a newline-less half-line; a
        # fresh index on the same path (the restarted daemon) must truncate
        # it before its first append, never concatenate onto it
        path = str(tmp_path / "jobs.jsonl")
        index = JobLogIndex(path)
        index.append(self._record(1))
        with open(path, "a") as handle:
            handle.write('{"job_id": "job-0000')  # torn: no newline
        restarted = JobLogIndex(path)
        restarted.append(self._record(2))
        loaded = {r.job_id for r in restarted.load()}
        assert loaded == {"job-000001", "job-000002"}
        with open(path) as handle:
            lines = handle.readlines()
        assert len(lines) == 2
        assert all(line.endswith("\n") for line in lines)

    def test_whole_file_torn_healed_across_restart(self, tmp_path):
        # the degenerate case: the very first append was torn, so the
        # whole file is one half-line — heal truncates back to empty
        path = str(tmp_path / "jobs.jsonl")
        with open(path, "w") as handle:
            handle.write('{"job_id"')
        restarted = JobLogIndex(path)
        restarted.append(self._record(1))
        assert [r.job_id for r in restarted.load()] == ["job-000001"]

    def test_disk_full_append_raises_before_writing(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        index = JobLogIndex(path)
        plan = FaultPlan(seed=0, rules=(FaultRule("disk-full", rate=1.0),))
        with installed(FaultInjector(plan)):
            with pytest.raises(OSError):
                index.append(self._record(1))
        assert not os.path.exists(path)

    def test_compact_keeps_latest_record_per_job(self, tmp_path):
        index = JobLogIndex(str(tmp_path / "jobs.jsonl"))
        for n in (1, 2, 3):
            record = self._record(n)
            index.append(record)
            index.append(record.mark_running(2.0))
            index.append(record.mark_running(2.0).mark_completed(3.0, f"d{n}"))
        kept = index.compact()
        assert kept == 3
        assert index.compactions == 1
        with open(index.path) as handle:
            assert len(handle.readlines()) == 3
        loaded = {r.job_id: r for r in index.load()}
        assert loaded["job-000002"].digest == "d2"

    def test_maybe_compact_thresholds(self, tmp_path):
        from repro.serve import records

        index = JobLogIndex(str(tmp_path / "jobs.jsonl"))
        record = self._record(1)
        with mock.patch.object(records, "COMPACT_MIN_LINES", 4), \
                mock.patch.object(records, "COMPACT_RATIO", 2.0):
            index.append(record)
            assert not index.maybe_compact()  # 1 line < max(4, 2*1)
            for _ in range(5):
                index.append(record.mark_running(2.0))
            assert index.maybe_compact()  # 6 lines >= max(4, 2)
        with open(index.path) as handle:
            assert len(handle.readlines()) == 1


# ---------------------------------------------------------------------------
# service resilience: spool faults, watchdog, recovery
# ---------------------------------------------------------------------------


class TestServiceFaults:
    def test_service_survives_torn_index_writes(self, tmp_path):
        plan = FaultPlan(seed=0, rules=(FaultRule("torn-write", rate=1.0),))
        with installed(FaultInjector(plan)):
            with PreprocessService(
                spool_dir=str(tmp_path), num_workers=1, runner=fast_runner
            ) as service:
                record = service.submit(JOB)
                final = service.wait(record.job_id, timeout=30.0)
        assert final.state == "completed"
        assert final.digest == "digest-0"
        assert service.index_errors  # every append was torn, all audited

    def test_watchdog_fails_hung_job_and_replaces_worker(self, tmp_path):
        plan = FaultPlan(
            seed=0, rules=(FaultRule("hung-stage", rate=1.0, delay_s=60.0,
                                     key="seed", match={"seed": 1}),)
        )
        with installed(FaultInjector(plan)):
            with PreprocessService(
                spool_dir=str(tmp_path),
                num_workers=2,
                job_timeout_s=0.3,
                backoff_s=0.01,
            ) as service:
                hung = service.submit(
                    PreprocessJob(model="RM1", num_rows=128, seed=1)
                )
                fine = service.submit(
                    PreprocessJob(model="RM1", num_rows=128, seed=2)
                )
                hung_final = service.wait(hung.job_id, timeout=30.0)
                fine_final = service.wait(fine.job_id, timeout=30.0)
                deadline = time.monotonic() + 5.0
                while (service.pool.alive_workers() != 2
                       and time.monotonic() < deadline):
                    time.sleep(0.02)
                assert service.pool.alive_workers() == 2
        assert hung_final.state == "failed"
        assert "deadline" in hung_final.error
        assert any(e.stage == "deadline" for e in hung_final.stages)
        assert fine_final.state == "completed"
        assert service.pool.jobs_timed_out == 1
        assert service.pool.workers_replaced >= 1

    def test_pool_rejects_bad_timeout(self):
        queue = BoundedJobQueue()
        with pytest.raises(ServeError):
            WorkerPool(queue, lambda i, a: i, job_timeout_s=0)

    def test_timeout_error_is_typed(self):
        assert issubclass(JobTimeoutError, ServeError)

    def test_recovery_marks_and_requeues_interrupted(self, tmp_path):
        index = JobLogIndex(str(tmp_path / "jobs.jsonl"))
        queued = JobRecord(job_id="job-000001", job=JOB, submitted_at=1.0)
        index.append(queued)
        index.append(
            JobRecord(job_id="job-000002", job=JOB, submitted_at=1.0)
            .mark_running(2.0)
        )
        index.append(
            JobRecord(job_id="job-000003", job=JOB, submitted_at=1.0)
            .mark_completed(3.0, "done-digest")
        )
        service = PreprocessService(
            spool_dir=str(tmp_path), num_workers=1, runner=fast_runner
        )
        service.start()
        assert service.recovered_jobs == ["job-000001", "job-000002"]
        for job_id in service.recovered_jobs:
            assert service.wait(job_id, timeout=30.0).state == "completed"
        # terminal history is visible but untouched
        assert service.status("job-000003").digest == "done-digest"
        # new ids never collide with recovered ones
        record = service.submit(JOB)
        assert record.job_id == "job-000004"
        service.wait(record.job_id, timeout=30.0)
        service.stop(drain=True)

    def test_recovery_backlog_exceeding_queue_capacity(self, tmp_path):
        index = JobLogIndex(str(tmp_path / "jobs.jsonl"))
        for n in range(1, 9):
            index.append(
                JobRecord(job_id=f"job-{n:06d}", job=JOB, submitted_at=1.0)
            )
        service = PreprocessService(
            spool_dir=str(tmp_path),
            queue_capacity=2,  # backlog of 8 must not deadlock startup
            num_workers=2,
            runner=fast_runner,
        )
        service.start()
        assert len(service.recovered_jobs) == 8
        for job_id in service.recovered_jobs:
            assert service.wait(job_id, timeout=30.0).state == "completed"
        service.stop(drain=True)

    def test_recovery_requeues_in_numeric_order(self, tmp_path):
        # job-10 must follow job-2: submission order, not lexicographic
        index = JobLogIndex(str(tmp_path / "jobs.jsonl"))
        for n in (10, 2, 11, 1):
            index.append(
                JobRecord(job_id=f"job-{n}", job=JOB, submitted_at=float(n))
            )
        service = PreprocessService(
            spool_dir=str(tmp_path), num_workers=1, runner=fast_runner
        )
        service.start()
        assert service.recovered_jobs == ["job-1", "job-2", "job-10", "job-11"]
        for job_id in service.recovered_jobs:
            assert service.wait(job_id, timeout=30.0).state == "completed"
        service.stop(drain=True)

    def test_late_success_after_timeout_reports_once(self):
        # a worker finishing after the watchdog abandoned it must not
        # issue a second terminal report: the claim token goes to exactly
        # one of them (here the watchdog's JobTimeoutError wins)
        queue = BoundedJobQueue(capacity=4)
        release = threading.Event()
        reports = []

        def runner(item, attempt):
            release.wait(10.0)
            return "late-result"

        pool = WorkerPool(
            queue,
            runner,
            num_workers=1,
            max_retries=0,
            job_timeout_s=0.1,
            on_done=lambda item, result, error: reports.append(
                (item, result, error)
            ),
        )
        pool.start()
        queue.put("job-000001")
        deadline = time.monotonic() + 10.0
        while not reports and time.monotonic() < deadline:
            time.sleep(0.01)
        release.set()  # the stuck worker now finishes — and goes nowhere
        time.sleep(0.2)
        assert len(reports) == 1
        item, result, error = reports[0]
        assert item == "job-000001" and result is None
        assert isinstance(error, JobTimeoutError)
        pool.stop(timeout=10.0)

    def test_recovery_can_be_disabled(self, tmp_path):
        index = JobLogIndex(str(tmp_path / "jobs.jsonl"))
        index.append(JobRecord(job_id="job-000001", job=JOB, submitted_at=1.0))
        service = PreprocessService(
            spool_dir=str(tmp_path), runner=fast_runner, recover=False
        )
        service.start()
        assert service.recovered_jobs == []
        assert service.jobs() == []
        service.stop(drain=True)

    def test_interrupted_job_is_cancellable(self, tmp_path):
        index = JobLogIndex(str(tmp_path / "jobs.jsonl"))
        index.append(JobRecord(job_id="job-000001", job=JOB, submitted_at=1.0))
        slow = threading.Event()

        def gated_runner(job, record_stage):
            slow.wait(10.0)
            return "digest"

        service = PreprocessService(
            spool_dir=str(tmp_path), num_workers=1, runner=gated_runner
        )
        # cancel before start(): the record is interrupted, still queued
        service._recover_on_start = True
        service.start()
        # the single worker may have grabbed it already; cancel is then a no-op
        outcome = service.cancel("job-000001")
        slow.set()
        final = service.wait("job-000001", timeout=30.0)
        assert final.state in ("cancelled", "completed")
        assert outcome == (final.state == "cancelled")
        service.stop(drain=True)


# ---------------------------------------------------------------------------
# remaining probe sites
# ---------------------------------------------------------------------------


class TestProbeSites:
    def test_queue_stall_delays_put(self):
        plan = FaultPlan(
            seed=0, rules=(FaultRule("queue-stall", rate=1.0, delay_s=0.2),)
        )
        queue = BoundedJobQueue(capacity=4)
        with installed(FaultInjector(plan)):
            start = time.perf_counter()
            queue.put("job-000001")
            assert time.perf_counter() - start >= 0.15
        assert queue.get() == "job-000001"

    def test_row_corrupt_is_caught_loudly(self):
        import numpy as np

        schema = TableSchema.with_counts(1, 1)
        data = {
            "label": np.array([1, 0], dtype=np.int8),
            schema.dense_names[0]: np.array([1.0, 2.0], dtype=np.float32),
            schema.sparse_names[0]: (
                np.array([1, 1], dtype=np.int32),
                np.array([7, 8], dtype=np.int64),
            ),
        }
        writer = RowFileWriter(schema)
        clean = writer.write(data)
        plan = FaultPlan(seed=0, rules=(FaultRule("row-corrupt", rate=1.0),))
        with installed(FaultInjector(plan)):
            corrupt = writer.write(data)
        assert corrupt != clean
        RowFileReader(clean)  # clean bytes parse fine
        with pytest.raises(FormatError):
            RowFileReader(corrupt)

    def test_conn_drop_surfaces_as_protocol_error(self, tmp_path):
        from repro.errors import ProtocolError
        from repro.serve import ServiceClient, ServiceServer

        plan = FaultPlan(
            seed=0, rules=(FaultRule("conn-drop", rate=1.0, max_fires=1),)
        )
        with installed(FaultInjector(plan)):
            service = PreprocessService(
                spool_dir=str(tmp_path), num_workers=1, runner=fast_runner
            )
            with ServiceServer(service) as server:
                client = ServiceClient(host=server.host, port=server.port)
                with pytest.raises(ProtocolError):
                    client.ping()  # first reply dropped
                assert client.ping()  # max_fires exhausted; daemon intact


# ---------------------------------------------------------------------------
# the chaos matrix
# ---------------------------------------------------------------------------


class TestChaos:
    @pytest.mark.parametrize("tier,fault", [
        ("serve", "meteor-strike"),
        ("fleet", "hung-stage"),
        ("batch", "row-corrupt"),
    ])
    def test_plan_for_rejects_a_fault_its_tier_never_probes(self, tier, fault):
        # an episode function called directly refuses it too
        with pytest.raises(ConfigurationError,
                           match=f"unknown {tier} fault '{fault}'"):
            plan_for(tier, fault, seed=0, job_timeout_s=1.0)

    def test_single_episode_invariants(self, tmp_path):
        report = run_episode(
            "worker-crash",
            seed=7,
            spool_dir=str(tmp_path / "ep"),
            num_jobs=4,
            rows=128,
            job_timeout_s=5.0,
            runner=fast_runner,
            verify_serial=False,
        )
        assert report["violations"] == []
        assert report["jobs"] == 4
        assert sum(report["states"].values()) == 4

    def test_matrix_is_deterministic_per_seed(self):
        kwargs = dict(
            num_jobs=4, rows=128, job_timeout_s=2.0,
            runner=fast_runner, verify_serial=False,
        )
        first = deterministic_view(
            run_chaos(("worker-crash", "torn-write"), seed=7, **kwargs)
        )
        second = deterministic_view(
            run_chaos(("worker-crash", "torn-write"), seed=7, **kwargs)
        )
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
        assert first["ok"]

    @pytest.mark.parametrize("tier", ["serve", "batch", "fleet"])
    def test_keyword_no_tier_accepts_is_rejected(self, tier):
        # a typo used to vanish into **_ignored and run the default workload
        with pytest.raises(ConfigurationError, match="num_jbos"):
            run_chaos(tier=tier, num_jbos=3)

    @pytest.mark.parametrize("num_jobs", [0, -2, True, 1.5, "3", None])
    @pytest.mark.parametrize("tier,fault", [
        ("serve", "worker-crash"),
        ("batch", "worker-crash"),
        ("fleet", "node-down"),
    ])
    def test_job_count_must_be_a_positive_int(self, tier, fault, num_jobs,
                                              tmp_path):
        # an episode of no jobs would pass having checked nothing
        rows = {} if tier == "fleet" else {"rows": 64}
        with pytest.raises(ConfigurationError,
                           match="num_jobs must be a positive int"):
            run_chaos((fault,), seed=7, tier=tier, num_jobs=num_jobs,
                      spool_root=str(tmp_path), **rows)

    @pytest.mark.parametrize("tier,fault,jobs", [
        ("serve", "worker-crash", 1),
        ("batch", "worker-crash", 1),
        ("fleet", "node-down", 20),  # 20 arrivals per requested job
    ])
    def test_one_job_is_the_smallest_episode(self, tier, fault, jobs,
                                             tmp_path):
        rows = {} if tier == "fleet" else {"rows": 64}
        report = run_chaos((fault,), seed=7, tier=tier, num_jobs=1,
                           spool_root=str(tmp_path), **rows)
        assert report["ok"]
        assert report["episodes"][0]["jobs"] == jobs

    @pytest.mark.parametrize("tier,keyword,value", [
        ("serve", "trace_kind", "poisson"),
        ("batch", "queue_capacity", 4),
        ("batch", "policy", "best-fit"),
        ("fleet", "rows", 64),
        ("fleet", "job_timeout_s", 1.0),
    ])
    def test_tier_foreign_keywords_are_refused(self, tier, keyword, value,
                                               tmp_path):
        # a keyword the chosen tier does not take would leave its run
        # unchanged, so it is refused before any episode starts
        with pytest.raises(ConfigurationError,
                           match=rf"tier '{tier}' takes no keyword.*'{keyword}'"):
            run_chaos(seed=7, tier=tier, spool_root=str(tmp_path),
                      num_jobs=1, **{keyword: value})
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("tier,faults", [
        ("fleet", ("hung-stage",)),
        ("fleet", ("worker-crash",)),
        ("serve", ("node-down",)),
        ("serve", ("task-hang",)),
        ("batch", ("conn-drop",)),
        ("serve", ("row-corrupt",)),
        ("batch", ("row-corrupt",)),
        ("fleet", ("row-corrupt",)),
        ("fleet", ("node-down", "hung-stage")),  # no episode runs first
    ])
    def test_tier_foreign_faults_are_refused(self, tier, faults, tmp_path):
        # a class the tier never probes used to run an episode that
        # injected nothing and passed with ``fired: {}``
        foreign = faults[-1]
        known = ", ".join(sorted(probed_by(tier)))
        with pytest.raises(ConfigurationError) as excinfo:
            run_chaos(faults, seed=7, tier=tier, spool_root=str(tmp_path),
                      num_jobs=1)
        assert str(excinfo.value) == (
            f"unknown {tier} fault '{foreign}'; known: {known}"
        )
        assert list(tmp_path.iterdir()) == []

    def test_check_report_raises_on_violations(self):
        from repro.errors import ChaosError

        report = {
            "episodes": [
                {"fault": "torn-write", "violations": ["digest mismatch"]}
            ]
        }
        with pytest.raises(ChaosError, match="digest mismatch"):
            check_report(report)
