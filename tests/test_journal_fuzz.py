"""Seeded byte-mutation fuzz of the two append-only JSONL journals.

A damaged spool or batch journal must never take its reader down with an
untyped exception: ``JobLogIndex.load`` and ``BatchJournal.load`` either
load, or raise a ``repro.errors`` type (``ServeError`` / ``BatchError``
naming the corrupt line), whatever bytes a crash, a bad disk or a stray
editor left in the file.  Each case rewrites a clean journal with one to
three bytes replaced by a seeded draw from all 256 values, so many of the
damaged lines are not UTF-8.
"""

import dataclasses
import random

import pytest

from repro.api import PreprocessJob
from repro.batch import BatchPolicy
from repro.batch.journal import BatchJournal
from repro.batch.outcomes import BatchOutcome
from repro.errors import BatchError, ReproError, ServeError
from repro.serve.records import JobLogIndex, JobRecord, StageEvent

MUTATIONS = 600

JOB = PreprocessJob("RM1", num_rows=64, num_shards=2)


def clean_job_index(path):
    index = JobLogIndex(str(path))
    for n in range(3):
        record = JobRecord(job_id=f"job-{n}", job=JOB, submitted_at=1.0 + n)
        index.append(record)
        record = record.mark_running(at=2.0 + n)
        index.append(record)
        stage = StageEvent("extract", "completed", at=2.5 + n, elapsed_s=0.25)
        index.append(dataclasses.replace(
            record.mark_completed(at=3.0 + n, digest="ab" * 32),
            stages=(stage,),
        ))
    return path.read_bytes()


def clean_batch_journal(path):
    journal = BatchJournal(str(path), run_id="fuzz")
    keys = [f"key-{n}" for n in range(3)]
    journal.start_run(keys, BatchPolicy())
    for index, key in enumerate(keys):
        journal.task_started(index, key, attempt=1)
        outcome = BatchOutcome(
            index=index, key=key, label=f"task {index}", state="ok",
            attempts=1, elapsed_s=0.5,
        )
        journal.task_done(outcome, payload={"value": index, "x": 0.25})
    journal.mark_resume()
    return path.read_bytes()


def mutated(clean, rng):
    data = bytearray(clean)
    for _ in range(rng.randint(1, 3)):
        data[rng.randrange(len(data))] = rng.randrange(256)
    return bytes(data)


def fuzz(tmp_path, clean, load, seed):
    """Load every mutation; count the typed errors by type."""
    rng = random.Random(seed)
    path = tmp_path / "mutated.jsonl"
    raised = {}
    for _ in range(MUTATIONS):
        path.write_bytes(mutated(clean, rng))
        try:
            load(str(path))
        except ReproError as exc:
            raised[type(exc)] = raised.get(type(exc), 0) + 1
    return raised


def test_a_damaged_job_index_loads_or_is_a_serve_error(tmp_path):
    clean = clean_job_index(tmp_path / "jobs.jsonl")
    assert len(JobLogIndex(str(tmp_path / "jobs.jsonl")).load()) == 3
    raised = fuzz(tmp_path, clean, lambda p: JobLogIndex(p).load(), seed=11)
    assert set(raised) == {ServeError}
    assert raised[ServeError] > MUTATIONS // 4


def test_a_damaged_batch_journal_loads_or_is_a_batch_error(tmp_path):
    clean = clean_batch_journal(tmp_path / "batch.jsonl")
    journal = BatchJournal(str(tmp_path / "batch.jsonl"))
    assert journal.load().completed() == {0, 1, 2}
    raised = fuzz(tmp_path, clean, lambda p: BatchJournal(p).load(), seed=11)
    assert set(raised) == {BatchError}
    assert raised[BatchError] > MUTATIONS // 4


def test_a_line_that_is_not_utf8_is_a_corrupt_job_index_line(tmp_path):
    path = tmp_path / "jobs.jsonl"
    path.write_bytes(clean_job_index(path) + b"\xff\xfe\n")
    with pytest.raises(ServeError, match="corrupt job index .* at line 10: 'utf-8'"):
        JobLogIndex(str(path)).load()


def test_a_line_that_is_not_utf8_is_a_corrupt_batch_journal_line(tmp_path):
    path = tmp_path / "batch.jsonl"
    path.write_bytes(clean_batch_journal(path) + b"\xff\xfe\n")
    with pytest.raises(
        BatchError, match="corrupt batch journal .* at line 9: 'utf-8'"
    ):
        BatchJournal(str(path)).load()


def test_a_torn_final_line_that_is_not_utf8_is_tolerated(tmp_path):
    path = tmp_path / "jobs.jsonl"
    clean = clean_job_index(path)
    path.write_bytes(clean + b'{"job_id": "job-9\xff')
    assert len(JobLogIndex(str(path)).load()) == 3
    path = tmp_path / "batch.jsonl"
    clean = clean_batch_journal(path)
    path.write_bytes(clean + b'{"type": "task\xe2')
    assert BatchJournal(str(path)).load().completed() == {0, 1, 2}
