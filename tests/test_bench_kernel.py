"""The kernel bench tool: one point measures what BENCH_kernel.json records."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "bench_kernel", ROOT / "tools" / "bench_kernel.py"
)
bench_kernel = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_kernel)


def test_point_counts_kernel_work_per_request():
    point = bench_kernel.measure_point("dataflower", "wc", 40, 1)
    assert point["completed"] == point["requests"] == 40
    # Leaf operations run on callbacks: what remains per request is the
    # FLU runs, the guard and the input shipment.
    assert 0 < point["processes_per_request"] <= 10
    assert point["events_per_request"] > point["processes_per_request"]
    assert len(point["report_sha256"]) == 64
    # Every request moves data over flows, and flows end on live timers.
    assert 0 < point["timer_fires_per_request"] < point["events_per_request"]
    assert 0 <= point["stale_timer_ratio"] < 1
    again = bench_kernel.measure_point("dataflower", "wc", 40, 1)
    for key in ("events_per_request", "processes_per_request",
                "timer_fires_per_request", "stale_timer_ratio",
                "report_sha256"):
        assert again[key] == point[key]


def test_queued_flow_timers_finds_armed_timers():
    from repro.cluster.network import NetworkFabric
    from repro.sim import Environment

    env = Environment()
    fabric = NetworkFabric(env)
    link = fabric.link("l", 100.0)
    env.call_later(1.0, lambda _event: None)
    fabric.transfer(1000.0, [link])
    fabric.transfer(1000.0, [link])  # supersedes the first flow's timer
    assert fabric.timers_armed == 3
    assert bench_kernel._queued_flow_timers(env) == 3
    env.run()
    assert bench_kernel._queued_flow_timers(env) == 0
    # The first flow's original timer, and the second flow's: both flows
    # drain at t=20, and the first one's departure completes the second.
    assert fabric.stale_timer_fires == 2
