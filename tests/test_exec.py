"""Tests for the shard-parallel preprocessing executor and PreprocessJob."""

import time

import numpy as np
import pytest

from repro.api import PreprocessJob, minibatch_digest
from repro.errors import (
    BatchTaskError,
    ConfigurationError,
    ExecutionError,
    FaultError,
    PipelineError,
)
from repro.exec import ShardExecutor, ShardRunStats
from repro.faults import FaultInjector, FaultPlan, FaultRule, installed
from repro.features.specs import get_model
from repro.features.synthetic import SyntheticTableGenerator
from repro.ops.pipeline import PreprocessingPipeline

NUM_ROWS = 96


@pytest.fixture(scope="module")
def pipeline():
    return PreprocessingPipeline(get_model("RM1"))


@pytest.fixture(scope="module")
def raw_table():
    return SyntheticTableGenerator(get_model("RM1"), seed=3).generate(NUM_ROWS)


def serial_reference(pipeline, data, num_shards):
    """The plain serial pipeline the executor must match batch-for-batch."""
    executor = ShardExecutor.for_shards(pipeline, num_shards, NUM_ROWS)
    results = executor.run(data, parallel=False)
    return [r.batch for r in results]


class TestShardExecutor:
    @pytest.mark.parametrize("num_shards", [1, 2, 8])
    def test_parallel_equals_serial_batch_for_batch(
        self, pipeline, raw_table, num_shards
    ):
        executor = ShardExecutor.for_shards(
            pipeline, num_shards, NUM_ROWS, processes=2
        )
        serial = executor.run(raw_table, parallel=False)
        parallel = executor.run(raw_table, parallel=True)
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert a.index == b.index
            assert a.batch.batch_id == b.batch.batch_id
            np.testing.assert_array_equal(a.batch.dense, b.batch.dense)
            np.testing.assert_array_equal(a.batch.labels, b.batch.labels)
            np.testing.assert_array_equal(
                a.batch.sparse.lengths, b.batch.sparse.lengths
            )
            np.testing.assert_array_equal(
                a.batch.sparse.values, b.batch.sparse.values
            )
            assert a.batch.sparse.keys == b.batch.sparse.keys
        assert minibatch_digest([r.batch for r in serial]) == minibatch_digest(
            [r.batch for r in parallel]
        )

    def test_shard_count_larger_than_row_count(self, pipeline):
        data = SyntheticTableGenerator(get_model("RM1"), seed=5).generate(3)
        executor = ShardExecutor.for_shards(pipeline, 8, 3, processes=2)
        serial = executor.run(data, parallel=False)
        parallel = executor.run(data, parallel=True)
        assert len(serial) == 3  # one single-row shard per row, none empty
        assert [r.counts.rows for r in serial] == [1, 1, 1]
        assert minibatch_digest([r.batch for r in serial]) == minibatch_digest(
            [r.batch for r in parallel]
        )

    def test_batches_cover_all_rows_in_order(self, pipeline, raw_table):
        executor = ShardExecutor.for_shards(pipeline, 4, NUM_ROWS)
        results = executor.run(raw_table, parallel=False)
        assert [r.index for r in results] == list(range(len(results)))
        assert sum(r.counts.rows for r in results) == NUM_ROWS
        # shard 0's labels are the table's first rows
        np.testing.assert_array_equal(
            results[0].batch.labels.astype(np.int8),
            np.asarray(raw_table["label"][: results[0].counts.rows]),
        )

    def test_sharded_equals_unsharded_content(self, pipeline, raw_table):
        # one big batch vs 4 shards: same rows, same per-row transforms
        whole = pipeline.run(raw_table, batch_id=0)[0]
        shards = serial_reference(pipeline, raw_table, 4)
        stacked_dense = np.vstack([b.dense for b in shards])
        np.testing.assert_array_equal(stacked_dense, whole.dense)
        stacked_labels = np.concatenate([b.labels for b in shards])
        np.testing.assert_array_equal(stacked_labels, whole.labels)

    def test_iter_shards_streams_in_order(self, pipeline, raw_table):
        executor = ShardExecutor.for_shards(pipeline, 4, NUM_ROWS)
        streamed = list(executor.iter_shards(raw_table))
        materialized = executor.run(raw_table, parallel=False)
        assert [r.index for r in streamed] == [r.index for r in materialized]
        assert minibatch_digest(
            [r.batch for r in streamed]
        ) == minibatch_digest([r.batch for r in materialized])

    def test_stats_aggregate(self, pipeline, raw_table):
        results = ShardExecutor.for_shards(pipeline, 4, NUM_ROWS).run(
            raw_table, parallel=False
        )
        stats = ShardRunStats.from_results(results)
        assert stats.num_shards == len(results)
        assert stats.num_rows == NUM_ROWS
        assert stats.bytes_read <= stats.file_bytes
        assert stats.transform_elements > 0

    def test_invalid_configuration(self, pipeline):
        with pytest.raises(ExecutionError, match="rows_per_shard"):
            ShardExecutor(pipeline, rows_per_shard=0)
        with pytest.raises(ExecutionError, match="processes"):
            ShardExecutor(pipeline, processes=0)
        with pytest.raises(ExecutionError, match="num_shards"):
            ShardExecutor.for_shards(pipeline, 0, 10)
        with pytest.raises(ExecutionError, match="num_rows"):
            ShardExecutor.for_shards(pipeline, 2, 0)


class TestPreprocessJob:
    def test_round_trip(self):
        job = PreprocessJob(model="rm2", num_rows=100, num_shards=3, seed=7)
        assert job.model == "RM2"  # canonicalized
        clone = PreprocessJob.from_dict(job.to_dict())
        assert clone == job

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown preprocess"):
            PreprocessJob.from_dict({"model": "RM1", "gpus": 4})

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PreprocessJob(model="RM1", num_rows=0)
        with pytest.raises(ConfigurationError):
            PreprocessJob(model="RM1", num_shards=-1)
        with pytest.raises(ConfigurationError):
            PreprocessJob(model="nope")

    def test_run_digest_is_deterministic(self):
        job = PreprocessJob(model="RM1", num_rows=64, num_shards=4)
        first = job.run(parallel=False)
        second = job.run(parallel=False)
        assert first.digest == second.digest
        assert first.stats.num_shards == 4
        assert "RM1" in first.summary()

    def test_different_seed_changes_digest(self):
        base = PreprocessJob(model="RM1", num_rows=64, num_shards=2)
        other = PreprocessJob(model="RM1", num_rows=64, num_shards=2, seed=9)
        assert base.run(parallel=False).digest != other.run(
            parallel=False
        ).digest

    def test_shard_count_does_not_change_content(self):
        # the acceptance property at the API level: N shards, same bytes
        one = PreprocessJob(model="RM1", num_rows=64, num_shards=1)
        many = PreprocessJob(model="RM1", num_rows=64, num_shards=8)
        batches_one = one.run(parallel=False).batches
        batches_many = many.run(parallel=False).batches
        np.testing.assert_array_equal(
            np.vstack([b.dense for b in batches_many]), batches_one[0].dense
        )
        np.testing.assert_array_equal(
            np.concatenate([b.labels for b in batches_many]),
            batches_one[0].labels,
        )


class TestFanOutSupervision:
    """The fan-out is a strict BatchRunner: a dead or raising shard worker
    is a typed error naming the shard, never a hang."""

    def test_crashed_shard_worker_raises_interrupted(self, pipeline, raw_table):
        executor = ShardExecutor.for_shards(pipeline, 4, NUM_ROWS, processes=2)
        plan = FaultPlan(seed=0, rules=(FaultRule("worker-crash", rate=1.0),))
        with installed(FaultInjector(plan)):
            with pytest.raises(BatchTaskError, match="interrupted"):
                executor.run(raw_table, parallel=True)
        assert executor.runner.leaked_workers == 0
        # the same executor still works once the fault is gone
        assert len(executor.run(raw_table, parallel=True)) == 4

    def test_raising_shard_is_typed_in_both_modes(
        self, pipeline, raw_table, monkeypatch
    ):
        # Extract skips one dense column, so every shard's Transform raises
        missing = pipeline.schema.dense_names[0]
        wanted = tuple(n for n in pipeline.required_columns() if n != missing)
        monkeypatch.setattr(pipeline, "required_columns", lambda: wanted)
        executor = ShardExecutor.for_shards(pipeline, 4, NUM_ROWS, processes=2)
        with pytest.raises(PipelineError, match=missing):
            executor.run(raw_table, parallel=False)
        with pytest.raises(
            BatchTaskError, match=f"failed.*PipelineError: .*{missing}"
        ):
            executor.run(raw_table, parallel=True)
        assert executor.runner.leaked_workers == 0


class TestStageTelemetry:
    """One staged path: every run probes and reports the same stages."""

    PARTITION = ["elapsed_s", "shards", "rows", "file_bytes"]
    EXTRACT = ["elapsed_s", "bytes_read", "file_bytes"]
    TRANSFORM = ["elapsed_s", "batches", "transform_elements"]

    @staticmethod
    def recorder():
        events = []
        return events, lambda stage, status, metrics: events.append(
            (stage, status, list(metrics))
        )

    @staticmethod
    def completed_recorder():
        """stage -> its ``completed`` metrics, values included."""
        done = {}

        def record(stage, status, metrics):
            if status == "completed":
                done[stage] = dict(metrics)

        return done, record

    def test_inline_run_reports_three_stages(self, pipeline, raw_table):
        """The inline stages take turns shard by shard, so with 4 shards
        every stage starts (on shard 0) before any completes (on shard 3).
        PR 18 moved this once, from the table-at-once order; one shard
        still reads the way every run did before."""
        events, record = self.recorder()
        executor = ShardExecutor.for_shards(pipeline, 4, NUM_ROWS)
        executor.run(raw_table, parallel=False, on_stage=record)
        assert events == [
            ("partition", "started", []),
            ("extract", "started", []),
            ("transform", "started", []),
            ("partition", "completed", self.PARTITION),
            ("extract", "completed", self.EXTRACT),
            ("transform", "completed", self.TRANSFORM),
        ]

    def test_one_shard_reads_as_every_run_used_to(self, pipeline, raw_table):
        events, record = self.recorder()
        executor = ShardExecutor.for_shards(pipeline, 1, NUM_ROWS)
        executor.run(raw_table, parallel=False, on_stage=record)
        assert events == [
            ("partition", "started", []),
            ("partition", "completed", self.PARTITION),
            ("extract", "started", []),
            ("extract", "completed", self.EXTRACT),
            ("transform", "started", []),
            ("transform", "completed", self.TRANSFORM),
        ]

    def test_overlapped_stages_sum_what_the_shards_did(self, pipeline, raw_table):
        """Same metric values as the table-at-once run reported, and
        ``elapsed_s`` is time inside the stage's bodies: the three sum to
        at most the wall."""
        done, record = self.completed_recorder()
        executor = ShardExecutor.for_shards(pipeline, 4, NUM_ROWS)
        start = time.perf_counter()
        results = executor.run(raw_table, parallel=False, on_stage=record)
        wall = time.perf_counter() - start
        elapsed = {stage: metrics.pop("elapsed_s") for stage, metrics in done.items()}
        assert all(seconds > 0 for seconds in elapsed.values())
        assert sum(elapsed.values()) <= wall
        stats = ShardRunStats.from_results(results)
        assert done == {
            "partition": {
                "shards": 4, "rows": NUM_ROWS, "file_bytes": stats.file_bytes,
            },
            "extract": {
                "bytes_read": stats.bytes_read, "file_bytes": stats.file_bytes,
            },
            "transform": {
                "batches": 4, "transform_elements": stats.transform_elements,
            },
        }
        assert all(
            type(value) is int for metrics in done.values()
            for value in metrics.values()
        )

    def test_raising_transform_leaves_only_transform_open(
        self, pipeline, raw_table, monkeypatch
    ):
        """Shard 2 of 4 blows up in Transform: ``started - completed`` is
        exactly that stage, and the others close with what they reached."""
        run = PreprocessingPipeline.run

        def failing_run(self, raw, batch_id=0):
            if batch_id == 2:
                raise PipelineError("shard 2 is cursed")
            return run(self, raw, batch_id=batch_id)

        monkeypatch.setattr(PreprocessingPipeline, "run", failing_run)
        events, record = self.recorder()
        done, record_done = self.completed_recorder()

        def both(stage, status, metrics):
            record(stage, status, metrics)
            record_done(stage, status, metrics)

        executor = ShardExecutor.for_shards(pipeline, 4, NUM_ROWS)
        with pytest.raises(PipelineError, match="cursed"):
            executor.run(raw_table, parallel=False, on_stage=both)
        assert events == [
            ("partition", "started", []),
            ("extract", "started", []),
            ("transform", "started", []),
            ("partition", "completed", self.PARTITION),
            ("extract", "completed", self.EXTRACT),
        ]
        assert done["partition"]["shards"] == 3  # shards 0, 1 and the fatal 2
        assert done["partition"]["rows"] == 3 * (NUM_ROWS // 4)
        assert done["extract"]["file_bytes"] == done["partition"]["file_bytes"]

    def test_abandoned_stream_closes_its_stages(self, pipeline, raw_table):
        done, record = self.completed_recorder()
        executor = ShardExecutor.for_shards(pipeline, 4, NUM_ROWS)
        stream = executor.iter_shards(raw_table, on_stage=record)
        assert next(stream).index == 0
        assert done == {}
        stream.close()
        assert done["partition"]["shards"] == 1
        assert done["extract"]["file_bytes"] == done["partition"]["file_bytes"]
        assert done["transform"]["batches"] == 1

    def test_fan_out_reports_partition_only(self, pipeline, raw_table):
        events, record = self.recorder()
        executor = ShardExecutor.for_shards(pipeline, 4, NUM_ROWS, processes=2)
        executor.run(raw_table, parallel=True, on_stage=record)
        assert events == [
            ("partition", "started", []),
            ("partition", "completed", self.PARTITION),
        ]

    def test_job_prepends_generate(self):
        events, record = self.recorder()
        job = PreprocessJob(model="RM1", num_rows=64, num_shards=2)
        result = job.run(parallel=False, on_stage=record)
        assert events[:2] == [
            ("generate", "started", []),
            ("generate", "completed", ["elapsed_s", "rows"]),
        ]
        assert [stage for stage, status, _ in events if status == "completed"] == [
            "generate", "partition", "extract", "transform",
        ]
        assert result.digest == job.run(parallel=False).digest

    def test_raising_stage_body_emits_no_completed(self):
        from repro.exec.executor import pipeline_stage

        events, record = self.recorder()
        with pytest.raises(ValueError):
            with pipeline_stage("extract", record, seed=0):
                raise ValueError("boom")
        assert events == [("extract", "started", [])]

    @pytest.mark.parametrize("stage", ["generate", "partition"])
    def test_stage_probes_fire_on_the_batch_path(self, stage):
        rule = FaultRule("stage-error", rate=1.0, match={"stage": stage})
        job = PreprocessJob(model="RM1", num_rows=64, num_shards=2)
        with installed(FaultInjector(FaultPlan(seed=0, rules=(rule,)))) as injector:
            with pytest.raises(FaultError, match="stage-error"):
                job.run(parallel=False)
        assert injector.fire_counts() == {"stage-error:error": 1}

    @pytest.mark.parametrize(
        "stage, closed", [("extract", ["partition"]),
                          ("transform", ["partition", "extract"])],
    )
    def test_overlapped_stage_probes_raise_on_first_entry(self, stage, closed):
        """A 4-shard inline run probes each stage once, on shard 0, in the
        order partition, extract, transform; the stages before the one
        whose probe raised are closed ``completed``."""
        events, record = self.recorder()
        rule = FaultRule("stage-error", rate=1.0, match={"stage": stage})
        job = PreprocessJob(model="RM1", num_rows=64, num_shards=4)
        with installed(FaultInjector(FaultPlan(seed=0, rules=(rule,)))) as injector:
            with pytest.raises(FaultError, match="stage-error"):
                job.run(parallel=False, on_stage=record)
        assert injector.fire_counts() == {"stage-error:error": 1}
        assert [s for s, status, _ in events if status == "started"] == (
            ["generate"] + closed  # the probe fires before ``started``
        )
        assert [s for s, status, _ in events if status == "completed"] == (
            ["generate"] + closed
        )

    def test_every_stage_is_probed_once_however_many_shards(self):
        rule = FaultRule("slow-stage", rate=1.0, delay_s=0.0)
        job = PreprocessJob(model="RM1", num_rows=64, num_shards=4)
        with installed(FaultInjector(FaultPlan(seed=0, rules=(rule,)))) as injector:
            job.run(parallel=False)
        # generate, partition, extract, transform
        assert injector.fire_counts() == {"slow-stage:delay": 4}

