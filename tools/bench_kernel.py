#!/usr/bin/env python3
"""Record the DES kernel's cost per simulated request into ``BENCH_kernel.json``.

For every execution system × registered app, one fresh subprocess builds
a world the way a replay cell does (``ReplaySpec.build_setup``), replays
a fixed synthetic trace through ``run_trace`` and reports:

- ``events_per_request``: ``Environment.events_scheduled`` ÷ requests;
- ``processes_per_request``: ``Environment.processes_started`` ÷ requests;
- ``timer_fires_per_request``: flow completion timers that fired during
  the replay (``NetworkFabric.timers_armed`` less those still queued
  when it ends) ÷ requests;
- ``stale_timer_ratio``: the share of those fires that found their timer
  superseded by a later rebalance or a cancel
  (``NetworkFabric.stale_timer_fires``);
- ``us_per_event``: replay seconds ÷ events;
- ``requests_per_s``: requests ÷ replay seconds, the median of ``--reps``
  timed replays after one untimed warm-up;
- ``report_sha256``: SHA-256 of the rendered run report, which must be
  the same in every repetition.

The run entry records ``cpu_count`` and the Python version, and is
appended to the committed trajectory file::

    PYTHONPATH=src python tools/bench_kernel.py
    PYTHONPATH=src python tools/bench_kernel.py --requests 60 --reps 1 --output /tmp/k.json
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

DEFAULT_OUTPUT = ROOT / "BENCH_kernel.json"
#: Arrival rate of each of the two tenants: light enough that no system
#: builds a backlog, so every point measures the same simulated work.
TENANT_RPM = 30.0
#: Seed of the synthetic trace and of every replayed world.
SEED = 1


def _trace(app: str, requests: int):
    from repro.loadgen.trace import InvocationTrace, synthesize_trace

    trace = synthesize_trace(
        tenants=2, duration_s=1.5 * requests / (2 * TENANT_RPM / 60.0),
        mean_rpm=TENANT_RPM, apps=[app], rate_sigma=0.0, seed=SEED,
        name=f"kernel-{app}",
    )
    if len(trace) < requests:
        raise SystemExit(f"{app}: drew {len(trace)} arrivals, need {requests}")
    return InvocationTrace(events=trace.events[:requests], name=trace.name)


def _queued_flow_timers(env) -> int:
    """Flow completion timers still in the event queue."""
    return sum(
        1 for *_, event in env._queue
        if event.callbacks and any(
            getattr(callback, "__qualname__", "").startswith(
                "NetworkFabric._arm_timer."
            )
            for callback in event.callbacks
        )
    )


def measure_point(system: str, app: str, requests: int, reps: int) -> dict:
    """The subprocess body: one warm-up and ``reps`` timed replays."""
    from repro.loadgen.trace import run_trace
    from repro.metrics.report import render_json
    from repro.parallel import ReplaySpec

    trace = _trace(app, requests)
    spec = ReplaySpec(system_name=system, default_app=app, seed=SEED)
    samples = []
    digests = set()
    for rep in range(reps + 1):
        setup = spec.build_setup(trace, "kernel")
        start = time.perf_counter()
        result = run_trace(setup.system, trace, default_app=app)
        wall = time.perf_counter() - start
        digests.add(hashlib.sha256(
            render_json(result.to_dict()).encode("utf-8")
        ).hexdigest())
        if rep:  # the first replay only warms imports and caches
            samples.append(wall)
    if len(digests) != 1:
        raise SystemExit(f"{system}/{app}: report changed between replays")
    env = setup.env
    fabric = setup.cluster.fabric
    wall = statistics.median(samples)
    timer_fires = fabric.timers_armed - _queued_flow_timers(env)
    return {
        "system": system,
        "app": app,
        "requests": requests,
        "completed": sum(1 for r in result.records if r.completed),
        "events_per_request": round(env.events_scheduled / requests, 2),
        "processes_per_request": round(env.processes_started / requests, 2),
        "timer_fires_per_request": round(timer_fires / requests, 2),
        "stale_timer_ratio": round(
            fabric.stale_timer_fires / timer_fires if timer_fires else 0.0, 3
        ),
        "us_per_event": round(1e6 * wall / env.events_scheduled, 3),
        "requests_per_s": round(requests / wall, 1),
        "report_sha256": digests.pop(),
    }


def _spawn(system: str, app: str, args) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--point", f"{system}:{app}", "--requests", str(args.requests),
        "--reps", str(args.reps),
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        command, env=env, capture_output=True, text=True, check=True
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--requests", type=int, default=120)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--point", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.requests < 1 or args.reps < 1:
        parser.error("--requests and --reps must be positive")

    if args.point:
        system, app = args.point.split(":")
        print(json.dumps(
            measure_point(system, app, args.requests, args.reps)
        ))
        return 0

    from repro.apps.registry import registered_apps
    from repro.experiments.common import system_names

    points = []
    for system in system_names():
        for app in registered_apps():
            point = _spawn(system, app.short_name, args)
            print("BENCH " + json.dumps(point, sort_keys=True), flush=True)
            points.append(point)
    run = {
        "recorded": datetime.date.today().isoformat(),
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "requests": args.requests,
        "reps": args.reps,
        "seed": SEED,
        "points": points,
    }
    trajectory = {"bench": "kernel", "runs": []}
    if args.output.exists():
        trajectory = json.loads(args.output.read_text())
    trajectory["runs"].append(run)
    args.output.write_text(json.dumps(trajectory, indent=1) + "\n")
    print(f"[appended run to {args.output}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
