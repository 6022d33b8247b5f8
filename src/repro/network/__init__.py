"""Network substrate: RPC accounting over the 10 GbE datacenter fabric that
reproduces Figure 13's inter-node communication comparison."""

from repro.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.network.rpc": ("RpcAccounting", "RpcBatchCosts"),
})

__all__ = ["RpcAccounting", "RpcBatchCosts"]
