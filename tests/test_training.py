"""Tests for the DLRM cost model, GPU training model, and train manager."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.features.specs import all_models, get_model
from repro.hardware.calibration import CALIBRATION
from repro.training.dlrm import DlrmCostModel
from repro.training.gpu import GpuTrainingModel
from repro.training.trainer import TrainManager


class TestDlrmCostModel:
    def test_interaction_terms(self):
        model = DlrmCostModel(get_model("RM1"))  # 39 tables + 1 dense vector
        assert model.interaction_inputs == 40
        assert model.interaction_terms == 40 * 39 // 2

    def test_top_mlp_input_width(self):
        model = DlrmCostModel(get_model("RM1"))
        assert model.top_mlp_input_width == 128 + model.interaction_terms

    def test_forward_macs_grow_with_model(self):
        rm1 = DlrmCostModel(get_model("RM1")).forward_macs()
        rm5 = DlrmCostModel(get_model("RM5")).forward_macs()
        assert rm5 > rm1

    def test_workload_embedding_bytes(self):
        spec = get_model("RM5")
        work = DlrmCostModel(spec).workload(embedding_traffic_multiplier=4.0)
        expected = 882 * 128 * 4 * 4.0
        assert work.embedding_bytes == pytest.approx(expected)

    def test_training_flops_multiplier(self):
        model = DlrmCostModel(get_model("RM2"))
        work = model.workload()
        assert work.training_flops == pytest.approx(6.0 * model.forward_macs())


class TestGpuTrainingModel:
    @pytest.fixture(scope="class")
    def gpu(self):
        return GpuTrainingModel()

    def test_rm5_demand_implies_367_cores(self, gpu):
        """Cross-check of the paper's headline provisioning number."""
        from repro.hardware.cpu import CpuCoreModel

        spec = get_model("RM5")
        cores = CpuCoreModel().cores_required(
            spec, gpu.node_throughput(spec, 8)
        )
        assert cores == 367

    def test_throughput_ordering(self, gpu):
        """Lighter models train faster."""
        t = {s.name: gpu.max_training_throughput(s) for s in all_models()}
        assert t["RM1"] > t["RM2"] > t["RM3"]
        assert t["RM3"] == pytest.approx(t["RM4"])  # bucket size irrelevant

    def test_node_scales_with_gpus(self, gpu):
        spec = get_model("RM3")
        assert gpu.node_throughput(spec, 8) == pytest.approx(
            8 * gpu.max_training_throughput(spec)
        )
        with pytest.raises(ConfigurationError):
            gpu.node_throughput(spec, 0)

    def test_iteration_breakdown_components(self, gpu):
        breakdown = gpu.iteration_breakdown(get_model("RM5"))
        assert breakdown.embedding > breakdown.compute  # memory-bound training
        assert breakdown.total == pytest.approx(
            max(breakdown.compute, breakdown.embedding)
            + breakdown.kernel_overhead
            + breakdown.fixed_overhead
        )

    def test_utilization_clamps(self, gpu):
        spec = get_model("RM5")
        t_max = gpu.max_training_throughput(spec)
        assert gpu.utilization(spec, 10 * t_max) == 1.0
        assert gpu.utilization(spec, 0.0) == 0.0
        assert gpu.utilization(spec, t_max / 2) == pytest.approx(0.5)


class TestTrainManager:
    def test_measures_node_throughput(self):
        spec = get_model("RM1")
        manager = TrainManager(spec, num_gpus=4)
        gpu = GpuTrainingModel()
        assert manager.measure_max_throughput() == pytest.approx(
            gpu.node_throughput(spec, 4)
        )

    def test_step_time_is_the_iteration_unless_h2d_dominates(self):
        spec = get_model("RM1")
        manager = TrainManager(spec, num_gpus=1)
        cal = manager.cal
        h2d = cal.train_ready_batch_bytes(spec) / cal.gpu_preproc_pcie_bw
        assert manager.step_time() == max(h2d, manager.iteration_time())
        assert manager.step_time() >= manager.iteration_time()

    def test_each_gpu_copies_its_own_share(self):
        """Data-parallel GPUs copy ``1/num_gpus`` of the batch each, over
        their own links, so the copy shrinks with the iteration."""
        spec = get_model("RM5")
        manager = TrainManager(spec, num_gpus=64)
        cal = manager.cal
        h2d = cal.train_ready_batch_bytes(spec) / (64 * cal.gpu_preproc_pcie_bw)
        assert manager.step_time() == max(h2d, manager.iteration_time())
        assert manager.step_time() == manager.iteration_time()

    @pytest.mark.parametrize("bandwidth", [0.0, -1e9])
    def test_copy_bandwidth_must_be_positive(self, bandwidth):
        """No trainer can hold one: the calibration refuses it."""
        with pytest.raises(ConfigurationError, match="gpu_preproc_pcie_bw"):
            dataclasses.replace(CALIBRATION, gpu_preproc_pcie_bw=bandwidth)

    @pytest.mark.parametrize("num_gpus", [0, 2.5, 8.0, True])
    def test_invalid_gpus(self, num_gpus):
        with pytest.raises(ConfigurationError, match="num_gpus"):
            TrainManager(get_model("RM1"), num_gpus=num_gpus)

    @pytest.mark.parametrize("capacity", [0, -3, 2.5, True])
    def test_invalid_queue_capacity(self, capacity):
        with pytest.raises(ConfigurationError, match="input_queue_capacity"):
            TrainManager(get_model("RM1"), input_queue_capacity=capacity)
