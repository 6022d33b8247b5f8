"""Golden ``minibatch_digest`` literals of the functional data plane.

Recorded from PR 16 — the commit before the sparse default codec changed
from LEB128 to byte packing — so a storage-format change that moves the
train-ready bytes fails here instead of only disagreeing with itself
(``--check`` compares a run with its own serial twin).  ``file_bytes`` and
``bytes_read`` are format properties and are *expected* to move with the
codec; the digests are not.  The first literal is the digest of ``repro
preprocess --rows 4096 --shards 4``, serial or fanned out; this file is the
one place it is stated.

Also here: one digest over every ``Scenario`` outcome of a grid that spans
the model tier's axes, so a refactor of the Figure 9 simulation that moves
any statistic, worker count, price or typed error fails here; and the
inline executor path holds one shard at a time — it lets go
of each step's input once the next has consumed it, and does not slice the
next partition before the current one is transformed.
"""

import gc
import hashlib
import itertools
import json
import weakref

import pytest

from repro.api import REGISTRY, PreprocessJob, Scenario
from repro.api.preprocess import minibatch_digest
from repro.cli import main
from repro.dataio.columnar import ColumnarFileReader
from repro.dataio.partition import RowPartitioner
from repro.errors import ReproError
from repro.features.synthetic import SyntheticTableGenerator
from repro.ops.pipeline import PreprocessingPipeline

#: (model, rows, shards) -> digest at seed 0, serial == fan-out
GOLDEN = {
    ("RM1", 4096, 4): "f90c68c342d1501b8e012422335b7c97d97c734b827a38d5d65bee7b84a97113",
    ("RM1", 1000, 3): "b021374163510c4d1ca6a34326c5f56865af5eb3d74850cecd4cf320b566c274",
    ("RM5", 512, 2): "739f8d277053ec6a724f28e6e9367e148efd3f1b96c970f4e2238547a62097f3",
    ("RM5", 300, 3): "59aa2cabbe4268875a9c35709cf00439524a2db5f3faed5992c6d6ba4df8edb3",
    ("RM2", 512, 2): "6739d3856c06b92f485658dcda3c4fe15d17baac96710e77468c72bee40187e1",
}


#: sha256 over every cell of :func:`scenario_grid`, in grid order; when
#: ``Scenario`` lost ``seed`` and ``provision`` it moved to the hash of the
#: old 810 outcomes with those two keys removed, so no simulated number moved
SCENARIO_GRID_DIGEST = (
    "2b87721eab38a44bcd17434c903951d953031976afc069aaae361b8f0df7fff7"
)


def scenario_grid():
    """Every built-in system x RM1-RM5 x 1/8/64 GPUs, provisioned to demand
    or with 3 or 500 workers, for 1, 7 or 200 batches: 810 scenarios."""
    for system, model, num_gpus, num_workers, num_batches in itertools.product(
        REGISTRY.names(),
        ("RM1", "RM2", "RM3", "RM4", "RM5"),
        (1, 8, 64),
        (None, 3, 500),
        (1, 7, 200),
    ):
        yield Scenario(
            model=model, system=system, num_gpus=num_gpus,
            num_workers=num_workers, num_batches=num_batches,
        )


def scenario_outcome(scenario):
    """The run's result record, or the typed error's type and text."""
    try:
        return scenario.run().to_dict()
    except ReproError as exc:
        return [type(exc).__name__, str(exc)]


def test_every_scenario_outcome():
    outcomes = [scenario_outcome(scenario) for scenario in scenario_grid()]
    assert len(outcomes) == 810
    payload = json.dumps(outcomes, sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == SCENARIO_GRID_DIGEST


@pytest.mark.parametrize("shape", GOLDEN)
def test_serial_digest(shape):
    model, rows, shards = shape
    job = PreprocessJob(model, num_rows=rows, num_shards=shards)
    assert job.run(parallel=False).digest == GOLDEN[shape]


@pytest.mark.parametrize("shape", GOLDEN)
def test_fan_out_digest(shape):
    model, rows, shards = shape
    job = PreprocessJob(model, num_rows=rows, num_shards=shards, processes=2)
    assert job.run(parallel=True).digest == GOLDEN[shape]


def test_cli_serial_digest_and_moved_byte_counts(capsys):
    argv = ["preprocess", "--rows", "4096", "--shards", "4", "--serial", "--json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["digest"] == GOLDEN[("RM1", 4096, 4)]
    # the LEB128 writer produced 990,378 / 960,027 for this command
    assert payload["file_bytes"] == 780_022
    assert payload["bytes_read"] == 749_903


def test_inline_run_releases_what_the_next_stage_consumed(monkeypatch):
    """One shard in flight: at the k-th transform no partition, reader or
    earlier raw table is alive, and partition k + 1 does not exist yet."""
    job = PreprocessJob("RM1", num_rows=256, num_shards=4)
    data = SyntheticTableGenerator(job.spec(), seed=0).generate(256)
    executor = job.build_executor()

    partitions, readers, raws, at_transform = [], [], [], []
    make_partitions = RowPartitioner.partitions
    reader_init = ColumnarFileReader.__init__
    run = PreprocessingPipeline.run

    def watched_partitions(self, table):
        # hand each partition over without keeping it in this frame
        made, box = make_partitions(self, table), []
        while True:
            try:
                box.append(next(made))
            except StopIteration:
                return
            partitions.append(weakref.ref(box[0]))
            yield box.pop()

    def watched_reader_init(self, buffer):
        readers.append(weakref.ref(self))
        reader_init(self, buffer)

    def watched_run(self, raw, batch_id=0):
        gc.collect()
        label = raw[self.schema.label.name]
        at_transform.append((
            len(partitions),
            sum(ref() is not None for ref in partitions),
            sum(ref() is not None for ref in readers),
            sum(ref() is not None for ref in raws),
        ))
        raws.append(weakref.ref(label))
        del label
        return run(self, raw, batch_id=batch_id)

    monkeypatch.setattr(RowPartitioner, "partitions", watched_partitions)
    monkeypatch.setattr(ColumnarFileReader, "__init__", watched_reader_init)
    monkeypatch.setattr(PreprocessingPipeline, "run", watched_run)
    results = executor.run(data, parallel=False)

    # (partitions made so far, partitions / readers / earlier raws alive)
    assert at_transform == [(k + 1, 0, 0, 0) for k in range(4)]
    assert [r.index for r in results] == [0, 1, 2, 3]

    # iter_shards is the same generator, uncollected: field for field
    streamed = list(executor.iter_shards(data))
    assert len(streamed) == len(results)
    for one, other in zip(streamed, results):
        assert (one.index, one.counts, one.file_bytes, one.bytes_read) == (
            other.index, other.counts, other.file_bytes, other.bytes_read
        )
        assert minibatch_digest([one.batch]) == minibatch_digest([other.batch])
        assert one.batch.batch_id == other.batch.batch_id == one.index
