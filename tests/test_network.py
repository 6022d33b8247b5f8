"""Tests for the RPC accounting."""

import pytest

from repro.features.specs import all_models, get_model
from repro.network.rpc import RpcAccounting


class TestRpcAccounting:
    @pytest.fixture(scope="class")
    def rpc(self):
        return RpcAccounting()

    def test_presto_no_raw_transfer(self, rpc):
        for spec in all_models():
            costs = rpc.presto_batch(spec)
            assert costs.raw_data_transfer == 0.0
            assert costs.fetch_requests == 0.0

    def test_disagg_pays_raw_transfer(self, rpc):
        costs = rpc.disagg_batch(get_model("RM5"))
        assert costs.raw_data_transfer > 0
        assert costs.fetch_requests > 0

    def test_both_ship_tensors(self, rpc):
        spec = get_model("RM3")
        assert rpc.disagg_batch(spec).tensor_response == pytest.approx(
            rpc.presto_batch(spec).tensor_response
        )

    def test_reduction_above_one(self, rpc):
        for spec in all_models():
            assert rpc.reduction(spec) > 1.5

    def test_mean_reduction_near_paper(self, rpc):
        values = [rpc.reduction(s) for s in all_models()]
        assert sum(values) / len(values) == pytest.approx(2.9, rel=0.15)

    def test_total_is_sum(self, rpc):
        costs = rpc.disagg_batch(get_model("RM2"))
        assert costs.total == pytest.approx(
            costs.fetch_requests
            + costs.raw_data_transfer
            + costs.tensor_response
            + costs.control
        )

    def test_bigger_models_more_rpc_time(self, rpc):
        rm1 = rpc.disagg_batch(get_model("RM1")).total
        rm5 = rpc.disagg_batch(get_model("RM5")).total
        assert rm5 > 10 * rm1
