"""Failure-injection tests: corrupted files, truncated partitions, and
mid-pipeline data damage must fail loudly (CRC/format errors), never
silently produce wrong tensors — and the streaming service must survive
the same injections without hanging its queue."""

import dataclasses
import json

import numpy as np
import pytest

from repro.api import PreprocessJob
from repro.core.cpu_worker import CpuPreprocessingWorker
from repro.dataio.columnar import ColumnarFileReader
from repro.dataio.partition import RowPartitioner
from repro.errors import (
    ConfigurationError, EncodingError, FormatError, ReproError,
)
from repro.features.specs import get_model
from repro.features.synthetic import generate_raw_table
from repro.serve import PreprocessService


@pytest.fixture(scope="module")
def partition_bytes():
    spec = get_model("RM1")
    data = generate_raw_table(spec, 64)
    parts = RowPartitioner(spec.schema(), rows_per_partition=64).partition_all(data)
    return spec, parts[0].file_bytes


class TestCorruptedPartitions:
    def test_flipped_data_byte_caught_by_crc(self, partition_bytes):
        spec, raw = partition_bytes
        worker = CpuPreprocessingWorker(spec)
        corrupted = bytearray(raw)
        corrupted[len(raw) // 3] ^= 0xFF  # inside some column chunk
        with pytest.raises(ReproError):
            worker.preprocess_partition(bytes(corrupted))

    def test_truncated_file_rejected(self, partition_bytes):
        spec, raw = partition_bytes
        with pytest.raises(FormatError):
            ColumnarFileReader(raw[: len(raw) // 2])

    def test_footer_corruption_rejected(self, partition_bytes):
        spec, raw = partition_bytes
        corrupted = bytearray(raw)
        corrupted[-12] ^= 0xFF  # inside the footer length / magic region
        with pytest.raises(FormatError):
            ColumnarFileReader(bytes(corrupted))

    def test_every_single_byte_flip_is_detected_or_harmless(self, partition_bytes):
        """Sampled single-byte corruption never yields silently different
        tensors: either an error is raised or (for unread padding) the
        output is identical."""
        spec, raw = partition_bytes
        worker = CpuPreprocessingWorker(spec)
        reference, _ = worker.preprocess_partition(raw)
        rng = np.random.default_rng(0)
        for offset in rng.integers(6, len(raw) - 10, size=25):
            corrupted = bytearray(raw)
            corrupted[offset] ^= 0x01
            try:
                batch, _ = worker.preprocess_partition(bytes(corrupted))
            except ReproError:
                continue  # detected: good
            np.testing.assert_array_equal(batch.dense, reference.dense)
            np.testing.assert_array_equal(
                batch.sparse.values, reference.sparse.values
            )


class TestStorageFailures:
    def test_chunk_decode_error_type(self, partition_bytes):
        """Corruption inside a chunk surfaces as EncodingError specifically."""
        spec, raw = partition_bytes
        reader = ColumnarFileReader(raw)
        chunk = reader.footer.chunks_for("int_0")[0]
        corrupted = bytearray(raw)
        corrupted[chunk.offset + chunk.size // 2] ^= 0xFF
        with pytest.raises(EncodingError, match="CRC"):
            ColumnarFileReader(bytes(corrupted)).read_column("int_0")

    def test_untouched_columns_still_readable_after_corruption(self, partition_bytes):
        """Selective reads isolate damage: corrupting one column's chunk
        leaves the others decodable."""
        spec, raw = partition_bytes
        reader = ColumnarFileReader(raw)
        chunk = reader.footer.chunks_for("int_0")[0]
        corrupted = bytearray(raw)
        corrupted[chunk.offset + 4] ^= 0xFF
        damaged = ColumnarFileReader(bytes(corrupted))
        with pytest.raises(EncodingError):
            damaged.read_column("int_0")
        intact = damaged.read_column("int_1")  # different chunk: fine
        np.testing.assert_array_equal(intact, reader.read_column("int_1"))


class TestServiceFailureInjection:
    """The same failure classes injected into the streaming service: a job
    that kills its worker must be reported failed (with error details) and
    the pool must replace the worker — never hang the queue."""

    JOB = PreprocessJob(model="RM1", num_rows=256, num_shards=1)

    def test_worker_death_fails_job_and_replaces_worker(self, tmp_path):
        def lethal(job, record_stage):
            if job.seed == 13:
                raise SystemExit("simulated worker crash")
            record_stage("generate", "started", {})
            record_stage("generate", "completed", {})
            return f"digest-{job.seed}"

        service = PreprocessService(
            spool_dir=str(tmp_path), num_workers=1, runner=lethal
        )
        service.start()
        poison = service.submit(dataclasses.replace(self.JOB, seed=13))
        survivor = service.submit(dataclasses.replace(self.JOB, seed=1))
        failed = service.wait(poison.job_id, timeout=30.0)
        # the queue is not hung: the replacement worker runs the next job
        completed = service.wait(survivor.job_id, timeout=30.0)
        service.stop(drain=True, timeout=30.0)

        assert failed.state == "failed"
        assert "SystemExit" in failed.error
        assert "simulated worker crash" in failed.error
        assert completed.state == "completed"
        assert completed.digest == "digest-1"
        assert service.pool.workers_replaced >= 1
        assert service.worker_deaths  # the death is audited, not swallowed
        worker, job_id, error = service.worker_deaths[0]
        assert job_id == poison.job_id and "SystemExit" in error

    def test_data_corruption_failure_is_loud_with_stage_details(self, tmp_path):
        """A mid-pipeline ReproError (the CRC/format family above) surfaces
        as a failed record naming the stage that blew up."""

        def corrupt_extract(job, record_stage):
            record_stage("generate", "started", {})
            record_stage("generate", "completed", {})
            record_stage("extract", "started", {})
            raise EncodingError("chunk CRC mismatch in column int_0")

        service = PreprocessService(
            spool_dir=str(tmp_path),
            num_workers=1,
            max_retries=0,
            runner=corrupt_extract,
        )
        service.start()
        record = service.submit(self.JOB)
        final = service.wait(record.job_id, timeout=30.0)
        service.stop(drain=True, timeout=30.0)

        assert final.state == "failed"
        assert "CRC mismatch" in final.error
        events = {(e.stage, e.status) for e in final.stages}
        assert ("extract", "failed") in events
        assert ("transform", "skipped") in events


class TestSigkillRecovery:
    """The full crash-safety story, out of process: a daemon SIGKILLed with
    a job in flight leaves a stale endpoint and a non-terminal index line;
    a restart on the same spool must re-own and finish that job with the
    serial path's exact digest."""

    JOB_ROWS, JOB_SHARDS, JOB_SEED = 512, 2, 5

    def _spawn_daemon(self, spool, *extra):
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--spool", spool,
             "--workers", "1", *extra],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def _wait_for_daemon(self, spool, timeout=30.0):
        import time

        from repro.serve import ServiceClient

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                client = ServiceClient(spool_dir=spool)
                if client.ping():
                    return client
            except (ReproError, OSError):
                time.sleep(0.1)
        raise AssertionError(f"daemon on {spool} never came up")

    def test_sigkilled_daemon_recovers_on_restart(self, tmp_path):
        import json
        import os
        import signal
        import time

        from repro.errors import ServeError
        from repro.serve import ServiceClient, read_endpoint

        spool = str(tmp_path / "spool")
        plan_path = str(tmp_path / "plan.json")
        with open(plan_path, "w") as handle:
            json.dump(
                {"seed": 0,
                 "rules": [{"point": "hung-stage", "rate": 1.0,
                            "delay_s": 120.0}]},
                handle,
            )
        # first daemon: every stage hangs, so the submitted job is
        # guaranteed to still be running when SIGKILL lands
        daemon = self._spawn_daemon(spool, "--faults", plan_path)
        try:
            client = self._wait_for_daemon(spool)
            job = PreprocessJob(
                model="RM1", num_rows=self.JOB_ROWS,
                num_shards=self.JOB_SHARDS, seed=self.JOB_SEED,
            )
            record = client.submit(job)
            deadline = time.monotonic() + 30.0
            while client.status(record.job_id).state != "running":
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.05)
            os.kill(daemon.pid, signal.SIGKILL)
            daemon.wait(timeout=30.0)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=30.0)

        # satellite: the endpoint is now stale and says so, clearly
        with pytest.raises(ServeError, match="stale endpoint"):
            read_endpoint(spool)
        with pytest.raises(ServeError, match="stale endpoint"):
            ServiceClient(spool_dir=spool)

        # second daemon, same spool, no faults: recovery must finish the job
        daemon = self._spawn_daemon(spool)
        try:
            client = self._wait_for_daemon(spool)
            deadline = time.monotonic() + 60.0
            while True:
                final = client.status(record.job_id)
                if final.is_terminal:
                    break
                assert time.monotonic() < deadline, (
                    f"recovered job stuck {final.state}"
                )
                time.sleep(0.1)
            assert final.state == "completed"
            job = PreprocessJob(
                model="RM1", num_rows=self.JOB_ROWS,
                num_shards=self.JOB_SHARDS, seed=self.JOB_SEED,
            )
            assert final.digest == job.run(parallel=False).digest
            assert final.attempts >= 2  # the lost attempt stayed on record
            client.shutdown(drain=True)
            daemon.wait(timeout=60.0)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait(timeout=30.0)


# ---------------------------------------------------------------------------
# chaos --tier fleet
# ---------------------------------------------------------------------------


class TestChaosFleet:
    def test_fleet_matrix_holds_invariants(self, tmp_path):
        from repro.faults.chaos import (
            DEFAULT_FLEET_FAULTS,
            check_report,
            run_chaos,
        )

        report = run_chaos(
            DEFAULT_FLEET_FAULTS, seed=5, tier="fleet",
            spool_root=str(tmp_path), num_jobs=4,
        )
        assert report["tier"] == "fleet"
        check_report(report)  # raises on any violated invariant
        assert report["ok"]
        assert {ep["fault"] for ep in report["episodes"]} == set(
            DEFAULT_FLEET_FAULTS
        )
        for episode in report["episodes"]:
            assert episode["violations"] == []
            states = episode["states"]
            assert states["completed"] + states["rejected"] == (
                episode["jobs"]
            )

    def test_fleet_matrix_deterministic(self, tmp_path):
        from repro.faults.chaos import deterministic_view, run_chaos

        kwargs = dict(seed=11, tier="fleet", num_jobs=3)
        first = run_chaos(
            ("node-down",), spool_root=str(tmp_path / "a"), **kwargs
        )
        second = run_chaos(
            ("node-down",), spool_root=str(tmp_path / "b"), **kwargs
        )
        assert deterministic_view(first) == deterministic_view(second)

    def test_node_down_episode_displaces_and_recovers(self, tmp_path):
        from repro.faults.chaos import run_fleet_episode
        from repro.fleet import FleetResult

        episode = run_fleet_episode(
            "node-down", seed=3, spool_dir=str(tmp_path), num_jobs=5,
            rate=0.05,
        )
        assert episode["violations"] == []
        assert episode["displacements"] > 0  # the fault actually bit
        assert episode["reschedules"] == episode["displacements"]
        assert sum(episode["fired"].values()) > 0
        # the FleetResult artifact is uploadable and round-trips
        with open(tmp_path / "fleet_result.json") as handle:
            result = FleetResult.from_dict(json.load(handle))
        assert result.digest == episode["digest"]

    def test_serve_kwargs_are_refused(self, tmp_path):
        from repro.faults.chaos import run_chaos

        with pytest.raises(
            ConfigurationError,
            match=r"tier 'fleet' takes no keyword\(s\) "
                  r"\['job_timeout_s', 'rows', 'shards', 'workers'\]",
        ):
            run_chaos(
                ("arrival-burst",), seed=2, tier="fleet",
                spool_root=str(tmp_path), num_jobs=2,
                rows=64, shards=1, workers=2, job_timeout_s=5.0,
            )
