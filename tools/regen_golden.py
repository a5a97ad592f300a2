#!/usr/bin/env python3
"""Regenerate the golden replay reports under ``tests/golden/``.

Each registered execution system gets one canonical fixture: the merged
JSON report of a small fixed trace (one app, two tenants) replayed
through the sharded engine at ``shards=2``.  The comparator in
``tests/test_golden_reports.py`` re-runs the same scenario on every test
run and diffs byte-for-byte, so any drift in the simulator, the metrics
layer, or the report serialization is caught explicitly instead of
silently absorbed.

Beside them sit the *scenario* fixtures (``scenario_<name>.json``).  Each
drives one model path the ``wc`` goldens never reach — contended
large-data fan-out, sink spill and disk unspill, keep-alive recycling,
crash/ReDo with backtracking and checkpoint restarts — through
``run_trace`` on a fresh world, and records the report, the model
counters that prove the path ran, and a SHA-256 over every request's
task timeline.

Run after an *intentional* behavior change::

    PYTHONPATH=src python tools/regen_golden.py

and commit the updated fixtures together with the change that caused
them.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.experiments.common import system_names  # noqa: E402
from repro.core.fault import FailureInjector  # noqa: E402
from repro.loadgen.trace import InvocationTrace, run_trace  # noqa: E402
from repro.metrics.report import render_json  # noqa: E402
from repro.parallel import ReplaySpec, run_parallel_replay  # noqa: E402
from repro.parallel.sink import record_to_payload  # noqa: E402

GOLDEN_DIR = ROOT / "tests" / "golden"
GOLDEN_APP = "wc"
GOLDEN_SEED = 7
GOLDEN_SHARDS = 2

#: The canonical scenario: two tenants, six requests, one app, with the
#: input-size/fanout/seed variety the report schema must round-trip.
GOLDEN_TRACE_CSV = """at_s,tenant,app,input_bytes,fanout,seed
0.0,acme,wc,1MB,2,0
0.5,globex,wc,2MB,,1
1.0,acme,wc,,4,2
1.5,globex,wc,1MB,2,3
2.5,acme,wc,2MB,,4
3.0,globex,wc,,,5
"""


def golden_trace() -> InvocationTrace:
    return InvocationTrace.from_csv(GOLDEN_TRACE_CSV, name="golden")


def golden_report(system_name: str) -> str:
    """The canonical serialized report for one system (trailing newline)."""
    spec = ReplaySpec(
        system_name=system_name, default_app=GOLDEN_APP, seed=GOLDEN_SEED
    )
    result = run_parallel_replay(
        golden_trace(), spec, shards=GOLDEN_SHARDS, workers=1
    )
    return render_json(result.to_dict()) + "\n"


def golden_path(system_name: str) -> Path:
    return GOLDEN_DIR / f"replay_{system_name}__{GOLDEN_APP}.json"


# -- scenario fixtures ----------------------------------------------------------

_CSV_HEADER = "at_s,tenant,app,input_bytes,fanout,seed\n"


def _csv(app: str, count: int, gap_s: float, size: str, fanout: int) -> str:
    return _CSV_HEADER + "".join(
        f"{i * gap_s},t{i % 2},{app},{size},{fanout},{i}\n"
        for i in range(count)
    )


def _inject_failures(system) -> FailureInjector:
    """A crash mid-transcode (its input is already released, so the
    engine backtracks to ``vid_split``), a crash of a merge container at
    4.5 s (one request then exhausts its retries and fails, and its
    stranded sink entries expire to disk), and two pipe-stream
    cancellations that restart from checkpoints."""
    injector = FailureInjector(system)
    injector.crash_when_busy("video", "vid_transcode")
    injector.crash_function_container_at("video", "vid_merge", 4.5)
    injector.cancel_random_flow_at(1.0, seed=3)
    injector.cancel_random_flow_at(2.2, seed=4)
    return injector


#: name -> (app, trace CSV, systems, system overrides, failure injection).
SCENARIOS = {
    # Eight 24 MB videos at fan-out 4, 0.4 s apart: contended links on
    # every system, and the baselines' storage round trips at size.
    "vid_fanout4_24mb": (
        "vid", _csv("vid", 8, 0.4, "24MB", 4), system_names(), None, None,
    ),
    # A 0.5 s sink TTL: part of the entries expire to disk before their
    # consumer fetches them, so passive expire and the unspill read fire.
    "sink_ttl_short": (
        "wc", _csv("wc", 6, 0.5, "2MB", 4), ["dataflower"],
        {"sink_ttl_s": 0.5}, None,
    ),
    # A 0.4 s keep-alive with requests 1.7 s apart: reapers recycle
    # nearly every container between requests, on every system.
    "keep_alive_short": (
        "wc", _csv("wc", 6, 1.7, "1MB", 2), system_names(),
        {"keep_alive_s": 0.4}, None,
    ),
    # Container crashes and flow cancellations: ReDo, backtracking and
    # checkpoint restarts.
    "failure_injection": (
        "vid", _csv("vid", 6, 0.5, "8MB", 3), ["dataflower"], None,
        _inject_failures,
    ),
}


def _counters(setup) -> dict:
    """Model counters that show which paths a scenario exercised."""
    cluster = setup.cluster
    nodes = cluster.workers + [cluster.gateway]
    pools = [pool for node in nodes for pool in node.pools]
    counters = {
        "flows": cluster.fabric.flow_count,
        "disk_bytes_read": sum(node.disk.bytes_read for node in nodes),
        "disk_bytes_written": sum(node.disk.bytes_written for node in nodes),
        "storage_puts": cluster.storage.put_count,
        "storage_gets": cluster.storage.get_count,
        "cold_starts": sum(pool.cold_starts for pool in pools),
        "recycled": sum(pool.recycle_count for pool in pools),
    }
    system = setup.system
    if system.name == "dataflower":
        counters["sink_spills"] = sum(
            engine.sink.spills for engine in system.engines.values()
        )
        counters["redo"] = system.redo_count
        counters["checkpoint_restarts"] = system.router.checkpoint_restarts
    return counters


def _scenario_run(app: str, csv: str, system_name: str, overrides, inject):
    trace = InvocationTrace.from_csv(csv, name="scenario")
    spec = ReplaySpec(
        system_name=system_name, default_app=app, seed=GOLDEN_SEED,
        system_overrides=overrides,
    )
    setup = spec.build_setup(trace, "scenario")
    injector = inject(setup.system) if inject is not None else None
    result = run_trace(setup.system, trace, default_app=app)
    timelines = json.dumps(
        [record_to_payload(record) for record in result.records],
        sort_keys=True,
    )
    payload = {
        "report": result.to_dict(),
        "counters": _counters(setup),
        "records_sha256": hashlib.sha256(timelines.encode()).hexdigest(),
    }
    if injector is not None:
        payload["injected"] = {
            "crashes": injector.log.crashes,
            "flow_cancellations": injector.log.flow_cancellations,
        }
    return payload


def scenario_report(name: str) -> str:
    """The serialized fixture of one scenario (trailing newline)."""
    app, csv, systems, overrides, inject = SCENARIOS[name]
    runs = {
        system_name: _scenario_run(app, csv, system_name, overrides, inject)
        for system_name in systems
    }
    return render_json({"scenario": name, "runs": runs}) + "\n"


def scenario_path(name: str) -> Path:
    return GOLDEN_DIR / f"scenario_{name}.json"


def main(argv=None) -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    fixtures = [
        (golden_path(name), golden_report, name) for name in system_names()
    ] + [(scenario_path(name), scenario_report, name) for name in SCENARIOS]
    for path, render, name in fixtures:
        path.write_text(render(name))
        print(f"[wrote {path.relative_to(ROOT)}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
