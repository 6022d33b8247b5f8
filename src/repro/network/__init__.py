"""Network substrate: RPC accounting over the 10 GbE datacenter fabric that
reproduces Figure 13's inter-node communication comparison."""

from repro.network.rpc import RpcAccounting, RpcBatchCosts

__all__ = ["RpcAccounting", "RpcBatchCosts"]
