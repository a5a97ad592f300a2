"""SONIC baseline (Mahgoub et al., ATC 2021): source-side data passing.

As the paper implements it (§9.1): the backend store is replaced with
storage local to the *source function* — "the data to be transferred is
persisted in the host, and then each destination function container builds
a peer-to-peer connection with the source storage to fetch data in
parallel".  Two properties follow directly from §9.2's analysis and drive
SONIC's behaviour in the evaluation:

* **Container-capped transfers** — "the limited bandwidth of each
  container results in a long data transfer time": the p2p fetch crosses
  the source container's TC-limited NIC, so fan-out children share one
  source container's bandwidth.
* **Source sandboxes held until consumption** — the data lives with the
  source function, so its sandbox cannot be released until every
  destination has fetched; under scaled-out parallel invocations this
  inflates memory usage and starves pools, which is why svd collapses at
  >= 20 closed-loop clients (Figure 11(c)) and why SONIC "can only
  optimize the data transfer of a single workflow invocation".

SONIC also keeps control-flow semantics: function state goes through
local VM storage (slower triggering than FaaSFlow, Figure 13), inputs are
fetched on trigger, and Get/compute/Put stay sequential.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..cluster.node import Node
from ..sim.resources import Resource
from .controlflow import ControlFlowConfig, ControlFlowSystem


@dataclass(frozen=True)
class SonicConfig(ControlFlowConfig):
    #: Function state is exchanged through local VM storage, which makes
    #: triggering slower than FaaSFlow's in-memory WorkerSP (Figure 13).
    trigger_mean_s: float = 0.022
    trigger_jitter_s: float = 0.006
    #: Round-trip to establish the p2p connection to the source host.
    p2p_setup_s: float = 0.002
    #: Safety cap on how long a source sandbox waits for its consumers
    #: before being released anyway (prevents leaks on failed requests).
    hold_cap_s: float = 90.0


class SonicSystem(ControlFlowSystem):
    """Control flow with source-local persistence and p2p fetch."""

    name = "sonic"

    def __init__(self, env, cluster, config: SonicConfig = SonicConfig()):
        super().__init__(env, cluster, config)
        self.config: SonicConfig = config
        self._engines: Dict[str, Resource] = {}

    def _orchestrator(self, node: Node) -> Resource:
        if node.name not in self._engines:
            self._engines[node.name] = Resource(self.env, capacity=1)
        return self._engines[node.name]

    # -- per-request source bookkeeping -----------------------------------------

    def _sources(self, state) -> Dict:
        if not hasattr(state, "sonic_sources"):
            state.sonic_sources = {}
        return state.sonic_sources

    def _fetched_events(self, state) -> Dict:
        if not hasattr(state, "sonic_fetched"):
            state.sonic_fetched = {}
        return state.sonic_fetched

    # -- data plane -----------------------------------------------------------

    def _put_output(self, deployment, state, task, edge, container):
        node = deployment.node_of(task.function)
        if edge.dst is None:
            # Final results still return through the backend store.
            return self._backend_put(state, edge, node, container)
        # Persist in the source sandbox's VM storage; destinations fetch p2p.
        self._sources(state)[edge.key] = (container, node)
        self._fetched_events(state)[edge.key] = self.env.event()
        return node.disk.write(edge.nbytes, label=f"sonic-put:{edge.dataname}")

    def _get_input(self, deployment, state, task, edge, container):
        src_container, src_node = self._sources(state)[edge.key]
        dst_node = deployment.node_of(task.function)
        fetched = self._fetched_events(state)[edge.key]
        done = self.env.event()

        def fetch(_event=None) -> None:
            if src_node is dst_node:
                # Same host: read from the local VM storage.
                moved = src_node.disk.read(
                    edge.nbytes, label=f"sonic-get:{edge.dataname}"
                )
            else:
                # P2p fetch crossing the *source container's* TC-limited
                # NIC — fan-out children share one source sandbox's
                # bandwidth.
                links = [
                    src_node.disk.read_link,
                    src_container.egress,
                    src_node.egress,
                    dst_node.ingress,
                    container.ingress,
                ]
                moved = self.cluster.fabric.transfer(
                    edge.nbytes,
                    links,
                    rate_cap=container.spec.net_bytes_per_s,
                    label=f"sonic-p2p:{edge.dataname}",
                ).done
            moved.callbacks.append(arrived)

        def arrived(_event) -> None:
            if not fetched.triggered:
                fetched.succeed()
            done.succeed()

        if self.config.p2p_setup_s > 0:
            self.env.call_later(self.config.p2p_setup_s, fetch)
        else:
            fetch()
        return done

    def _release_container(self, deployment, state, task, container) -> None:
        """Hold the source sandbox until every consumer has fetched."""
        waiting = [
            self._fetched_events(state)[edge.key]
            for edge in task.outputs
            if edge.dst is not None and edge.key in self._fetched_events(state)
        ]
        dispatcher = deployment.dispatcher(task.function)
        if not waiting:
            dispatcher.release(container)
            return

        def release(_event) -> None:
            if container.alive:
                dispatcher.release(container)

        held = self.env.all_of(waiting) | self.env.timeout(self.config.hold_cap_s)
        held.callbacks.append(release)
