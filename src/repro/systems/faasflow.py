"""FaaSFlow baseline (Li et al., ASPLOS 2022): decentralized control flow.

FaaSFlow's WorkerSP pattern moves workflow scheduling onto each worker
node, cutting the cross-node scheduling overhead, and passes data through
*local memory* for functions co-located on one node; cross-node edges still
round-trip through the backend store.  Crucially it remains control-flow:
a function is triggered only after its predecessors complete, inputs are
fetched on trigger, and Get/compute/Put stay sequential — which is exactly
what DataFlower's early triggering and overlap beat (Figures 10–13).

FaaSFlow caches co-located intermediate data in host memory but, without
knowledge of data lifetimes, can only release a request's cache when the
whole request completes — the Figure 14 contrast with DataFlower's
proactive release.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..cluster.node import Node
from ..sim.resources import Resource
from .controlflow import ControlFlowConfig, ControlFlowSystem


@dataclass(frozen=True)
class FaasFlowConfig(ControlFlowConfig):
    #: Decentralized WorkerSP trigger cost (Figure 13: count fires ~15 ms,
    #: merge ~6 ms after predecessor completion).
    trigger_mean_s: float = 0.009
    trigger_jitter_s: float = 0.004


class FaasFlowSystem(ControlFlowSystem):
    """Decentralized control flow with local-memory co-location cache."""

    name = "faasflow"

    def __init__(self, env, cluster, config: FaasFlowConfig = FaasFlowConfig()):
        super().__init__(env, cluster, config)
        self.config: FaasFlowConfig = config
        self._engines: Dict[str, Resource] = {}

    def _orchestrator(self, node: Node) -> Resource:
        if node.name not in self._engines:
            self._engines[node.name] = Resource(self.env, capacity=1)
        return self._engines[node.name]

    # -- data plane -----------------------------------------------------------

    def _is_local(self, deployment, edge) -> bool:
        src_node = deployment.node_of(edge.src.function)
        dst_node = deployment.node_of(edge.dst.function)
        return src_node is dst_node

    def _put_output(self, deployment, state, task, edge, container):
        node = deployment.node_of(task.function)
        if edge.dst is None or not self._is_local(deployment, edge):
            return self._backend_put(state, edge, node, container)
        # Local store: copy into the node's memory cache.  The cache
        # entry lives until the whole request completes (no lifetime
        # knowledge under control flow).
        channel = self.cluster.memory_channel(node)
        copied = channel.copy(edge.nbytes, label=f"local-put:{edge.dataname}")

        def cached(_event) -> None:
            node.cache_usage.add(edge.nbytes)
            self._cache_ledger(state).append((node, edge.nbytes))

        copied.callbacks.append(cached)
        return copied

    def _get_input(self, deployment, state, task, edge, container):
        node = deployment.node_of(task.function)
        if self._is_local(deployment, edge):
            channel = self.cluster.memory_channel(node)
            return channel.copy(edge.nbytes, label=f"local-get:{edge.dataname}")
        return self._backend_get(state, edge, node, container)

    def _cache_ledger(self, state) -> List[Tuple[Node, float]]:
        if not hasattr(state, "faasflow_cache"):
            state.faasflow_cache = []
        return state.faasflow_cache

    def _on_request_complete(self, deployment, state) -> None:
        """Release the request's local-memory cache entries."""
        for node, nbytes in self._cache_ledger(state):
            node.cache_usage.add(-nbytes)
        state.faasflow_cache = []
