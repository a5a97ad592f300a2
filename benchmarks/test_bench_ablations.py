"""Ablation benches for the mechanism toggles ``docs/execution-model.md``
lists under "Every mechanism has a knob".

Beyond the paper's own ablation (Figure 12, pressure-aware scaling),
these benches quantify the contribution of each DataFlower mechanism on
a fixed workload, so a regression in any of them shows up as a shape
change here.
"""

import pytest

from repro import (
    Cluster,
    ClusterConfig,
    DataFlowerConfig,
    DataFlowerSystem,
    Environment,
    constant,
    default_request_factory,
    round_robin,
    run_open_loop,
)
from repro.apps import get_app

RPM = 20
DURATION_S = 40.0


def run_variant(app_name, **cfg):
    env = Environment()
    cluster = Cluster(env, ClusterConfig())
    system = DataFlowerSystem(env, cluster, DataFlowerConfig(**cfg))
    app = get_app(app_name)
    workflow = app.build()
    system.deploy(workflow, round_robin(workflow, cluster.workers))
    factory = default_request_factory(
        system, workflow.name, app.default_input_bytes, app.default_fanout
    )
    result = run_open_loop(
        system, workflow.name, factory, constant(RPM, DURATION_S)
    )
    return system, result


def test_bench_ablation_streaming(benchmark):
    """Streaming overlap: pushes start at the first chunk, not at the end."""

    def run():
        _, on = run_variant("vid")
        _, off = run_variant("vid", streaming=False)
        return on.latency().mean_s, off.latency().mean_s

    with_streaming, without = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["mean_with_streaming_s"] = with_streaming
    benchmark.extra_info["mean_without_s"] = without
    assert with_streaming < without


def test_bench_ablation_proactive_release(benchmark):
    """Proactive release: the Figure 14 mechanism, isolated."""

    def run():
        _, on = run_variant("svd")
        _, off = run_variant("svd", proactive_release=False)
        return on.usage.cache_mbs_per_request, off.usage.cache_mbs_per_request

    proactive, lazy = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["cache_proactive_mbs"] = proactive
    benchmark.extra_info["cache_lazy_mbs"] = lazy
    assert proactive < lazy


def test_bench_ablation_prewarm(benchmark):
    """§10 prewarming: cold-start latency hidden behind data transfer."""

    def run():
        def cold_first_latency(prewarm):
            env = Environment()
            cluster = Cluster(env, ClusterConfig())
            system = DataFlowerSystem(
                env, cluster, DataFlowerConfig(prewarm=prewarm)
            )
            app = get_app("vid")
            workflow = app.build()
            system.deploy(workflow, round_robin(workflow, cluster.workers))
            from repro import RequestSpec

            done = system.submit(
                workflow.name,
                RequestSpec(
                    "r1",
                    input_bytes=app.default_input_bytes,
                    fanout=app.default_fanout,
                ),
            )
            return env.run(until=done).latency

        return cold_first_latency(True), cold_first_latency(False)

    with_prewarm, without = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["cold_latency_prewarm_s"] = with_prewarm
    benchmark.extra_info["cold_latency_plain_s"] = without
    assert with_prewarm < without


def test_bench_ablation_small_data_socket(benchmark):
    """The <16 KB socket path vs forcing everything through pipes."""

    def run():
        _, socket_on = run_variant("wc")
        _, socket_off = run_variant("wc", small_data_bytes=0.5)
        return socket_on.latency().mean_s, socket_off.latency().mean_s

    with_socket, without = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["mean_with_socket_s"] = with_socket
    benchmark.extra_info["mean_without_s"] = without
    # The socket path saves per-pipe setup for tiny data; it must never
    # hurt, and wc (tiny count results) should see a measurable win.
    assert with_socket <= without * 1.01
