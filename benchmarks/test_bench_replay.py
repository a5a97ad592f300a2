"""Bench: replay engine throughput — serial loop vs work-stealing pool.

One bench, printing one machine-greppable ``BENCH {json}`` line so the
replay-throughput trajectory is tracked across commits
(``tools/bench_replay.py`` collects the points into
``BENCH_replay.json``, together with the memory, multicore and spill
points defined here):

``replay_throughput``
    Serial versus the work-stealing process pool on a mildly skewed
    multi-tenant trace — the end-to-end scale-up number.  The point
    also records the pool run's critical path (its slowest cell) and
    the largest cell's share of the trace's events: no schedule can
    finish before its largest cell does, so a speedup below the bar
    with a critical path close to the pool's wall clock is a property
    of the trace, not of the engine.

Pool measurements the tool records run each configuration in a *fresh
subprocess* (``tools/bench_replay.py --one-replay``): within one
process a later run's forked workers inherit the earlier run's heap
(their first collections traverse it, unsharing copy-on-write pages),
and the RSS high-water mark is monotonic — same-process comparison
systematically penalizes whichever configuration runs second.

With two or more cores the pool is held to the fastest schedule the
trace allows, ``max(critical_path_s, serial_wall_s / workers)``, not to
a fixed speedup: on the seed-7 trace one cell carries ~64% of the
events, so the reachable speedup is only ~1.2–1.35 on two cores and a
fixed bar just under that fails on host noise.  On a single-core runner
the comparison only bounds overhead.  ``BENCH_REPLAY_SCALE``
scales trace duration (1.0 ~= 900 events; ~114 gives the 100k-event
acceptance trace).
"""

import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.loadgen.trace import InvocationTrace, synthesize_trace
from repro.parallel import ReplaySpec, get_shard_policy, run_parallel_replay

SCALE = float(os.environ.get("BENCH_REPLAY_SCALE", "1.0"))
SHARDS = 4
WORKERS = 4
SMALL_TENANTS = 24
SKEW_SEED = 7
#: How far the pool's wall clock may exceed the fastest schedule the
#: trace allows.  A pool that ran every cell one after another fails it
#: whenever the largest cell is under 80% of the serial work.
SCHEDULE_SLACK = 1.25

_BENCH_TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_replay.py"


def make_skewed_trace(scale: float = None, small_tenants: int = SMALL_TENANTS,
                      seed: int = SKEW_SEED) -> InvocationTrace:
    """A deliberately skewed trace: ``small_tenants`` uniform tenants
    plus one ``hot`` tenant with ~10x any small tenant's event count."""
    if scale is None:
        scale = SCALE
    duration_s = 60.0 * scale
    smalls = synthesize_trace(
        tenants=small_tenants, duration_s=duration_s, mean_rpm=25.0,
        apps=["wc"], rate_sigma=0.0, seed=seed, name="skew-small",
    )
    hot = synthesize_trace(
        tenants=1, duration_s=duration_s, mean_rpm=250.0,
        apps=["wc"], rate_sigma=0.0, seed=seed + 1, name="skew-hot",
    )
    events = list(smalls.events) + [
        dataclasses.replace(event, tenant="hot") for event in hot.events
    ]
    return InvocationTrace(events=events, name="skew")


def throughput_point(scale: float = None) -> dict:
    """Serial vs pool wall clock on a lognormal trace."""
    if scale is None:
        scale = SCALE
    trace = synthesize_trace(
        tenants=8, duration_s=90.0 * scale, mean_rpm=40.0,
        apps=["wc", "etl"], seed=7, name="bench-replay",
    )
    spec = ReplaySpec(default_app="wc")
    cores = os.cpu_count() or 1
    workers = min(WORKERS, cores)

    start = time.perf_counter()
    serial = run_parallel_replay(trace, spec, shards=1, workers=1)
    serial_wall = time.perf_counter() - start
    parallel = run_parallel_replay(trace, spec, shards=SHARDS, workers=workers)

    # Parallelism must never change results: merged reports are identical.
    assert parallel.to_dict() == serial.to_dict()
    assert len(parallel.completed) == len(trace)

    speedup = serial_wall / parallel.wall_s if parallel.wall_s > 0 else 0.0
    largest_cell = max(
        len(cell) for _, cell in get_shard_policy("tenant").split(trace)
    )
    return {
        "bench": "replay_throughput",
        "events": len(trace),
        "tenants": 8,
        "shards": SHARDS,
        "workers": workers,
        "cpu_count": cores,
        "serial_wall_s": round(serial_wall, 4),
        "parallel_wall_s": round(parallel.wall_s, 4),
        "serial_events_per_s": round(len(trace) / serial_wall, 2),
        "parallel_events_per_s": round(parallel.events_per_s(), 2),
        "speedup": round(speedup, 3),
        # The pool's slowest cell bounds its wall clock from below.
        "critical_path_s": round(max(parallel.cell_wall_s.values()), 4),
        "largest_cell_share": round(largest_cell / len(trace), 3),
    }


def replay_skewed(scale: float = None, workers: int = WORKERS,
                  shards: int = SHARDS, record_sink=None):
    """One skewed-trace replay; returns the merged result."""
    trace = make_skewed_trace(scale)
    spec = ReplaySpec(default_app="wc", seed=1, record_sink=record_sink)
    return run_parallel_replay(trace, spec, shards=shards, workers=workers)


def replay_subprocess(scale: float = None, workers: int = WORKERS,
                      shards: int = SHARDS,
                      record_sink: str = "memory") -> dict:
    """Run one skewed-trace replay in a fresh interpreter.

    Returns the ``tools/bench_replay.py --one-replay`` result dict: events,
    isolated wall clock and parent peak RSS, and the SHA-256 of the
    canonical report rendering — identity across configurations is
    checked by hash, so the subprocess boundary never weakens the
    byte-identity assertion.
    """
    if scale is None:
        scale = SCALE
    command = [
        sys.executable, str(_BENCH_TOOL), "--one-replay",
        "--scale", str(scale), "--workers", str(workers),
        "--shards", str(shards),
    ]
    if record_sink != "memory":
        command += ["--record-sink", record_sink]
    out = subprocess.run(command, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def multicore_point(scale: float = None,
                    configs=((1, 1), (2, 2), (4, 4))) -> dict:
    """Shards×workers sweep, each configuration in a fresh subprocess.

    One point with a ``sweep`` row per ``(shards, workers)`` pair; the
    report SHA-256 must be identical across every configuration — the
    sweep doubles as the shard/worker-invariance check at benchmark
    scale.
    """
    cores = os.cpu_count() or 1
    rows = []
    hashes = set()
    events = None
    for shards, workers in configs:
        run = replay_subprocess(scale, workers, shards)
        hashes.add(run["report_sha256"])
        events = run["events"]
        rows.append({
            "shards": shards,
            "workers": workers,
            "wall_s": run["wall_s"],
            "max_rss_mb": run["max_rss_mb"],
        })
    point = {
        "bench": "replay_multicore",
        "events": events,
        "cpu_count": cores,
        "sweep": rows,
        "identical": len(hashes) == 1,
    }
    assert point["identical"], point
    return point


def spill_point(scale: float = None, workers: int = WORKERS) -> dict:
    """Parent peak RSS of the replay: in-memory vs disk-spill sink.

    Both runs are fresh subprocesses over the same skewed trace; the
    reports must be byte-identical (SHA-256 of the canonical
    rendering).  At acceptance scale (>= 50k events) the spill sink
    must hold parent peak RSS strictly below the in-memory sink's —
    the CI gate that keeps "bounded memory" honest.
    """
    memory = replay_subprocess(scale, workers)
    spill = replay_subprocess(scale, workers, record_sink="spill")
    point = {
        "bench": "replay_spill_rss",
        "events": memory["events"],
        "workers": workers,
        "cpu_count": os.cpu_count() or 1,
        "memory_sink_wall_s": memory["wall_s"],
        "spill_sink_wall_s": spill["wall_s"],
        "memory_sink_max_rss_mb": memory["max_rss_mb"],
        "spill_sink_max_rss_mb": spill["max_rss_mb"],
        "identical": memory["report_sha256"] == spill["report_sha256"],
    }
    assert point["identical"], point
    if point["events"] >= 50_000:
        assert (
            point["spill_sink_max_rss_mb"]
            < point["memory_sink_max_rss_mb"]
        ), point
    return point


def test_bench_replay_throughput(benchmark):
    point = benchmark.pedantic(throughput_point, rounds=1, iterations=1)
    print("BENCH " + json.dumps(point, sort_keys=True))
    benchmark.extra_info.update(point)

    if point["cpu_count"] >= 2:
        # No schedule beats its slowest cell or an even split of the work.
        bound = max(
            point["critical_path_s"],
            point["serial_wall_s"] / point["workers"],
        )
        assert point["parallel_wall_s"] <= SCHEDULE_SLACK * bound, point
    else:
        # Single core: no speedup possible; bound the pool overhead.
        assert point["parallel_wall_s"] < point["serial_wall_s"] * 3.0, point
