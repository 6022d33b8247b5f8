"""Cross-module integration tests: raw data -> partition files -> extract ->
transform -> train-ready tensors, through the real functional components."""

import numpy as np
import pytest

from repro.core.cpu_worker import CpuPreprocessingWorker
from repro.core.isp_worker import IspPreprocessingWorker
from repro.dataio.columnar import ColumnarFileReader
from repro.dataio.partition import RowPartitioner
from repro.features.specs import MODEL_NAMES, get_model
from repro.features.synthetic import SyntheticTableGenerator
from repro.ops.pipeline import PreprocessingPipeline


@pytest.fixture(scope="module")
def pipeline_world():
    """RM1 data written as four 64-row columnar partition files."""
    spec = get_model("RM1")
    generator = SyntheticTableGenerator(spec, seed=42)
    data = generator.generate(256)
    partitioner = RowPartitioner(spec.schema(), rows_per_partition=64)
    return spec, data, partitioner.partition_all(data)


class TestStorageToTensors:
    def test_stored_equals_direct_pipeline(self, pipeline_world):
        """Preprocessing a partition file gives the same tensors as
        running the pipeline on the in-memory rows directly."""
        spec, data, partitions = pipeline_world
        pipe = PreprocessingPipeline(spec)

        # direct: slice rows 64..128 in memory
        direct_raw = {}
        for column in spec.schema().columns():
            raw = data[column.name]
            if isinstance(raw, tuple):
                lengths, values = raw
                offsets = np.concatenate(([0], np.cumsum(lengths)))
                direct_raw[column.name] = (
                    lengths[64:128],
                    values[offsets[64] : offsets[128]],
                )
            else:
                direct_raw[column.name] = raw[64:128]
        direct_batch, _ = pipe.run(direct_raw)

        # via the file: read partition 1 back from its bytes
        reader = ColumnarFileReader(partitions[1].file_bytes)
        stored_raw = reader.read_columns(pipe.required_columns())
        stored_batch, _ = pipe.run(stored_raw)

        np.testing.assert_array_equal(direct_batch.dense, stored_batch.dense)
        np.testing.assert_array_equal(
            direct_batch.sparse.values, stored_batch.sparse.values
        )
        np.testing.assert_array_equal(direct_batch.labels, stored_batch.labels)

    def test_cpu_and_isp_agree_on_all_partitions(self, pipeline_world):
        """Every partition yields whole train-ready batches, and the ISP
        worker's tensors equal the CPU worker's."""
        spec, _, partitions = pipeline_world
        cpu = CpuPreprocessingWorker(spec)
        isp = IspPreprocessingWorker(spec)
        for part in partitions:
            a, _ = cpu.preprocess_partition(part.file_bytes)
            b, counts = isp.preprocess_partition(part.file_bytes)
            assert b.batch_size == part.num_rows
            assert counts.rows == part.num_rows
            b.validate_index_range(isp.pipeline.table_sizes)
            np.testing.assert_array_equal(a.dense, b.dense)
            np.testing.assert_array_equal(a.sparse.values, b.sparse.values)


    @pytest.mark.parametrize("model", MODEL_NAMES)
    def test_every_model_yields_valid_identical_batches(self, model):
        """Each Table I model's partitions become whole, NaN-free,
        in-range batches, identical on the CPU and ISP workers."""
        spec = get_model(model)
        data = SyntheticTableGenerator(spec, seed=11).generate(48)
        partitions = RowPartitioner(spec.schema(), rows_per_partition=32).partition_all(
            data
        )
        assert [part.num_rows for part in partitions] == [32, 16]
        cpu = CpuPreprocessingWorker(spec)
        isp = IspPreprocessingWorker(spec)
        for part in partitions:
            a, _ = cpu.preprocess_partition(part.file_bytes)
            b, counts = isp.preprocess_partition(part.file_bytes)
            assert b.dense.shape == (part.num_rows, spec.num_dense)
            assert counts.rows == part.num_rows
            assert not np.any(np.isnan(b.dense))
            b.validate_index_range(isp.pipeline.table_sizes)
            np.testing.assert_array_equal(a.dense, b.dense)
            np.testing.assert_array_equal(a.sparse.lengths, b.sparse.lengths)
            np.testing.assert_array_equal(a.sparse.values, b.sparse.values)
            np.testing.assert_array_equal(a.labels, b.labels)


class TestBatchContents:
    def test_hashed_ids_depend_on_raw_ids(self, pipeline_world):
        """SigridHash must propagate raw id differences into the indices."""
        spec, _, partitions = pipeline_world
        pipe = PreprocessingPipeline(spec)
        raw0 = ColumnarFileReader(partitions[0].file_bytes).read_columns(
            pipe.required_columns()
        )
        raw1 = ColumnarFileReader(partitions[1].file_bytes).read_columns(
            pipe.required_columns()
        )
        batch0, _ = pipe.run(raw0)
        batch1, _ = pipe.run(raw1)
        assert not np.array_equal(batch0.sparse.values, batch1.sparse.values)

    def test_bucketized_features_bounded_by_buckets(self, pipeline_world):
        spec, _, partitions = pipeline_world
        pipe = PreprocessingPipeline(spec)
        raw = ColumnarFileReader(partitions[0].file_bytes).read_columns(
            pipe.required_columns()
        )
        batch, _ = pipe.run(raw)
        for name in spec.generated_sparse_names:
            _, values = batch.sparse.jagged_for(name)
            assert values.max() <= spec.bucket_size
            assert values.min() >= 0

    def test_dense_no_nans_after_pipeline(self, pipeline_world):
        spec, _, partitions = pipeline_world
        pipe = PreprocessingPipeline(spec)
        raw = ColumnarFileReader(partitions[2].file_bytes).read_columns(
            pipe.required_columns()
        )
        batch, _ = pipe.run(raw)
        assert not np.any(np.isnan(batch.dense))


class TestProductionScaleSlice:
    """A thin slice of a production model through the full path."""

    def test_rm2_small_batch_roundtrip(self):
        spec = get_model("RM2")
        generator = SyntheticTableGenerator(spec, seed=7)
        data = generator.generate(32)
        partitioner = RowPartitioner(spec.schema(), rows_per_partition=32)
        (part,) = partitioner.partition_all(data)
        worker = CpuPreprocessingWorker(spec)
        batch, counts = worker.preprocess_partition(part.file_bytes)
        assert batch.dense.shape == (32, 504)
        assert batch.sparse.num_keys == 63
        batch.validate_index_range(worker.pipeline.table_sizes)
        assert counts.bucketize_elements == 32 * 21
