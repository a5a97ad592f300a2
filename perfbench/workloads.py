"""The four benchmark workloads: inputs from a seed, one repetition, checks.

Every workload is a sequence of *runs*.  On the replay workloads a run
is one replay the way ``repro replay --format json --metrics-out``
does it: ``run_parallel_replay`` with a fresh ``MetricsRegistry``,
then ``to_dict`` and ``render_json`` (timed), then Prometheus
renderings of the registry for :data:`SCRAPE_S` (the run's scrapes,
each timed on its own).  On
``serve_closed_loop`` a run is one submit → follow ``/events`` → fetch
report cycle against an in-process ``repro serve``, followed by one
``GET /metrics``.  One *repetition* is one replay, or
:data:`SERVE_RUNS` serve runs against a freshly booted server.

The program only ever sees the generated traces and request bodies.
Correctness checks run outside the timed region and raise
:class:`CheckFailed`.  Why each workload exists, and the sizes below,
are recorded in ``NOTES.md``.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import multiprocessing
import os
import random
import shutil
import statistics
import threading
import time
from contextlib import nullcontext
from typing import Dict, List, Optional

from repro.loadgen.trace import InvocationTrace, synthesize_trace
from repro.metrics.report import render_json
from repro.metrics.telemetry import MetricsRegistry
from repro.parallel import ReplaySpec, TenantProfile, engine
from repro.workflow.dsl import parse_size

#: Serve runs per repetition: p90 then has 10 samples beyond it.
SERVE_RUNS = 100
#: Seconds a replay's registry is rendered for, once per repetition.
#: One sub-ms render is too short to time steadily, and the renders must
#: span a few host-speed slices, which then scale them (hostspeed.PAD_S).
SCRAPE_S = 0.15
#: Tenant-name population the serve bodies draw from.
SERVE_TENANT_POPULATION = 1000
#: Fixed seed of the mixed workload's lognormal tenant-rate weights.
#: The benchmark seed draws arrivals, never the rate shape, so every
#: seed offers the same mix of apps, systems and skew.
MIXED_WEIGHT_SEED = 20230414
MIXED_APPS = ["wc", "etl", "img", "vid", "svd", "ml_ensemble"]
MIXED_SYSTEMS = ["dataflower", "faasflow", "sonic", "production"]

#: Every per-layer metric, with its unit.  A layer a workload bypasses
#: reports 0 (no calls, no time); NOTES.md lists which workloads
#: exercise which layer.
LAYER_UNITS = {
    "sim.events_per_request": "count",
    "sim.processes_per_request": "count",
    "sim.us_per_event": "us",
    "cluster.transfers_per_request": "count",
    "cell.setup_ms": "ms",
    "cell.replay_s": "s",
    "fold.add_ms": "ms",
    "fold.finalize_ms": "ms",
    "report.render_ms": "ms",
    "sched.utilization": "ratio",
    "sched.idle_s": "s",
    "sched.cells_stolen": "count",
    "sched.cell_retries": "count",
    "serve.submit_ms": "ms",
    "serve.replay_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.journal_append_ms": "ms",
    "serve.fsyncs_per_run": "count",
    "serve.events_per_run": "count",
    "serve.metrics_bytes": "B",
    "serve.metric_series": "count",
}


class CheckFailed(AssertionError):
    """A correctness check on the program's output failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def wait_for_children(timeout_s: float = 60.0) -> None:
    """Block until every worker process this process started has ended.

    ``run_parallel_replay`` returns before its pool workers exit; waiting
    here keeps one repetition's workers out of the next one's timing
    and memory.
    """
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            raise RuntimeError("pool workers did not exit")
        time.sleep(0.005)


def _renamed(trace: InvocationTrace, tenant: str, **changes) -> list:
    return [
        dataclasses.replace(event, tenant=tenant, **changes)
        for event in trace.events
    ]


def _span(tracer, name: str, root: bool = False):
    return tracer.span(name, root=root) if tracer else nullcontext()


def _layer_zeros() -> Dict[str, float]:
    return {name: 0.0 for name in LAYER_UNITS}


def _delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _kernel_layers(d: Dict[str, float], requests: int, runs: int) -> Dict[str, float]:
    """Kernel, model and cell-layer metrics from one repetition's counts."""
    return {
        "sim.events_per_request": _ratio(d.get("sim.events", 0), requests),
        "sim.processes_per_request": _ratio(
            d.get("sim.processes", 0), requests
        ),
        "sim.us_per_event": 1e6 * _ratio(
            d.get("cell.replay.s", 0), d.get("sim.events", 0)
        ),
        "cluster.transfers_per_request": _ratio(
            d.get("cluster.transfers", 0), requests
        ),
        "cell.setup_ms": 1e3 * _ratio(
            d.get("cell.setup.s", 0), d.get("cell.setup.n", 0)
        ),
        "cell.replay_s": _ratio(d.get("cell.replay.s", 0), runs),
        "fold.add_ms": 1e3 * _ratio(d.get("fold.add.s", 0), runs),
        "fold.finalize_ms": 1e3 * _ratio(d.get("fold.finalize.s", 0), runs),
        "report.render_ms": 1e3 * _ratio(
            d.get("report.to_dict.s", 0) + d.get("report.render_json.s", 0),
            runs,
        ),
        "sched.utilization": _ratio(
            d.get("sched.cell_wall.s", 0), d.get("sched.capacity.s", 0)
        ),
        "sched.idle_s": _ratio(
            max(0.0, d.get("sched.capacity.s", 0)
                - d.get("sched.cell_wall.s", 0)),
            runs,
        ),
    }


# -- replay workloads ---------------------------------------------------------


def _first(events: list, requests: int, name: str) -> InvocationTrace:
    """The first ``requests`` arrivals, so every seed offers the same count."""
    trace = InvocationTrace(events=events, name=name)
    check(len(trace) >= requests,
          f"{name}: drew {len(trace)} arrivals, fewer than {requests}")
    return InvocationTrace(events=trace.events[:requests], name=name)


def skewed_trace(seed: int, requests: int) -> InvocationTrace:
    """24 uniform ``wc`` tenants at 25 rpm plus one ``hot`` one at 250 rpm.

    The shape of ``make_skewed_trace`` in ``benchmarks/test_bench_replay.py``
    (the ROADMAP's per-core scoreboard trace), drawn from ``seed``.
    """
    duration_s = 1.5 * requests / (850.0 / 60.0)
    smalls = synthesize_trace(
        tenants=24, duration_s=duration_s, mean_rpm=25.0, apps=["wc"],
        rate_sigma=0.0, seed=seed, name="skew-small",
    )
    hot = synthesize_trace(
        tenants=1, duration_s=duration_s, mean_rpm=250.0, apps=["wc"],
        rate_sigma=0.0, seed=seed + 1, name="skew-hot",
    )
    return _first(list(smalls.events) + _renamed(hot, "hot"), requests, "skew")


def contended_trace(seed: int, requests: int) -> InvocationTrace:
    """One ``vid`` tenant at 200 rpm, every request 24 MB with fan-out 4."""
    vid = synthesize_trace(
        tenants=1, duration_s=1.5 * requests / (200.0 / 60.0),
        mean_rpm=200.0, apps=["vid"], rate_sigma=0.0,
        input_bytes=parse_size("24MB"), size_jitter=0.0, seed=seed,
    )
    return _first(_renamed(vid, "vid", fanout=4), requests, "contended-vid")


def mixed_trace(seed: int, requests: int, tenants: int = 48):
    """An Azure-shaped 48-tenant trace and the spec that spreads it over
    the four systems.

    Tenant ``i`` runs app ``MIXED_APPS[i % 6]`` at ``20 rpm × w_i``, where
    the ``w_i`` are a fixed lognormal(σ=1) draw normalised to mean 1;
    each group of six consecutive tenants replays on one system.
    """
    duration_s = 1.5 * requests / (tenants * 20.0 / 60.0)
    weights_rng = random.Random(MIXED_WEIGHT_SEED)
    weights = [weights_rng.lognormvariate(0.0, 1.0) for _ in range(tenants)]
    mean = sum(weights) / tenants
    events = []
    profiles = {}
    for i, weight in enumerate(weights):
        tenant = f"tenant{i:02d}"
        app = MIXED_APPS[i % len(MIXED_APPS)]
        arrivals = synthesize_trace(
            tenants=1, duration_s=duration_s, mean_rpm=20.0 * weight / mean,
            apps=[app], rate_sigma=0.0, seed=seed * 1000 + i,
        )
        events.extend(_renamed(arrivals, tenant))
        profiles[tenant] = TenantProfile(
            system=MIXED_SYSTEMS[(i // 6) % len(MIXED_SYSTEMS)]
        )
    trace = _first(events, requests, "mixed-tenants")
    return trace, ReplaySpec(seed=seed, tenant_profiles=profiles)


class ReplayWorkload:
    """A trace replayed through ``run_parallel_replay`` by ``workers``."""

    def __init__(self, name: str, trace: InvocationTrace, spec: ReplaySpec,
                 workers: int) -> None:
        self.name = name
        self.trace = trace
        self.spec = spec
        self.workers = workers
        self.report_sha: Optional[str] = None
        self.report: Optional[dict] = None

    def warm(self) -> None:
        """Replay the first tenth of the trace, untimed: lazy imports and
        first-call costs land here instead of in the first repetition."""
        cut = self.trace.duration_s / 10.0
        prefix = InvocationTrace(
            events=[e for e in self.trace.events if e.at_s <= cut],
            name=self.trace.name,
        )
        engine.run_parallel_replay(
            prefix, self.spec, shards=self.workers, workers=self.workers
        ).to_dict()
        wait_for_children()

    def _replay(self, trace, workers, registry=None):
        return engine.run_parallel_replay(
            trace, self.spec, shards=workers, workers=workers,
            metrics=registry,
        )

    def rep(self, tracer=None) -> dict:
        """One timed replay; returns its sample."""
        gc.collect()
        registry = MetricsRegistry()
        before = dict(tracer.counts) if tracer else {}
        start = time.perf_counter()
        with _span(tracer, "run", root=True):
            result = self._replay(self.trace, self.workers, registry)
            report = result.to_dict()
            with _span(tracer, "report.render_json"):
                text = render_json(report)
        end = time.perf_counter()
        # Exiting pool workers would compete with the scrape.
        wait_for_children()
        gc.collect()
        scrapes = []
        until = time.perf_counter() + SCRAPE_S
        while not scrapes or scrapes[-1][1] < until:
            scrape_start = time.perf_counter()
            registry.render_prometheus()
            scrapes.append((scrape_start, time.perf_counter()))
        self._check(result, report, text)
        sample = {
            "wall_s": end - start,
            "window": (start, end),
            "requests": result.offered,
            "latencies": [(start, end)],
            "scrapes": scrapes,
            "cells": result.cell_count,
            "failed_cells": len(result.failed_cells),
        }
        if tracer:
            d = _delta(tracer.counts, before)
            layers = _layer_zeros()
            layers.update(_kernel_layers(d, result.offered, 1))
            layers["sched.cells_stolen"] = registry.counter_total(
                "repro_cells_stolen_total"
            )
            layers["sched.cell_retries"] = registry.counter_total(
                "repro_cell_retries_total"
            )
            sample["layers"] = layers
        return sample

    def _check(self, result, report: dict, text: str) -> None:
        offered = len(self.trace)
        check(result.offered == offered,
              f"{self.name}: replay offered {result.offered} of {offered} "
              f"trace events")
        check(len(result.records) == offered,
              f"{self.name}: {len(result.records)} records for "
              f"{offered} trace events")
        check(report["completed"] + report["failed"] == report["offered"]
              == offered,
              f"{self.name}: completed {report['completed']} + failed "
              f"{report['failed']} != offered {report['offered']}")
        check(not result.failed_cells,
              f"{self.name}: failed cells {result.failed_cells}")
        digest = sha256(text)
        if self.report_sha is None:
            self.report_sha, self.report = digest, report
        check(digest == self.report_sha,
              f"{self.name}: report changed between repetitions")

    def final_check(self) -> None:
        """A pooled replay must report exactly what a serial one does."""
        if self.workers == 1:
            return
        serial = self._replay(self.trace, 1)
        digest = sha256(render_json(serial.to_dict()))
        check(digest == self.report_sha,
              f"{self.name}: workers={self.workers} report "
              f"{self.report_sha[:12]} != workers=1 report {digest[:12]}")

    def fingerprint(self) -> Dict[str, object]:
        report = self.report or {}
        latency = report.get("latency") or {}
        usage = report.get("usage") or {}
        return {
            "report_sha256": self.report_sha,
            "requests": report.get("offered"),
            "sim_p50_s": latency.get("p50_s"),
            "sim_p99_s": latency.get("p99_s"),
            "memory_gbs": usage.get("memory_gbs"),
        }

    def boot(self):
        """Nothing to start before a replay."""
        return None

    @staticmethod
    def shutdown(booted) -> None:
        pass


# -- the service workload -------------------------------------------------------


def serve_bodies(seed: int, runs: int) -> List[dict]:
    """``runs`` inline ``wc`` run bodies: 2 tenants, 10 s at 30 rpm each,
    tenant names drawn from a population of 1,000."""
    rng = random.Random(seed)
    bodies = []
    for _ in range(runs):
        names = rng.sample(range(SERVE_TENANT_POPULATION), 2)
        trace = synthesize_trace(
            tenants=2, duration_s=10.0, mean_rpm=30.0, apps=["wc"],
            rate_sigma=0.0, seed=rng.randrange(1 << 30),
        )
        events = [
            {"at_s": event.at_s,
             "tenant": f"user{names[int(event.tenant[len('tenant'):])]:04d}",
             "seed": event.seed}
            for event in trace.events
        ]
        bodies.append({
            "app": "wc",
            "seed": rng.randrange(1 << 16),
            "trace": {"name": "closed-loop", "events": events},
        })
    return bodies


class ServeWorkload:
    """A closed loop of one client against an in-process ``repro serve``.

    Every repetition boots a fresh server with its own journal, so each
    one starts from the same state and accumulates the same tenant
    series; booting and shutting down stay outside the timed region.
    """

    name = "serve_closed_loop"

    def __init__(self, seed: int, workdir: str, runs: int = SERVE_RUNS) -> None:
        self.workdir = workdir
        self.bodies = serve_bodies(seed, runs)
        self.reports_sha: Optional[str] = None
        self.sample_index = random.Random(seed).randrange(runs)
        self.sample_report: Optional[dict] = None
        self._boots = 0

    def boot(self):
        """A fresh server on an ephemeral port, serving on a thread."""
        from repro.serve.app import create_server

        self._boots += 1
        directory = os.path.join(self.workdir, f"serve-{self._boots}")
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        server = create_server(
            port=0, workers=1, quiet=True,
            journal=os.path.join(directory, "journal.ndjson"),
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        return server, thread, directory

    @staticmethod
    def shutdown(booted) -> None:
        server, thread, directory = booted
        server.close()
        thread.join(timeout=30)
        check(not thread.is_alive(), "serve thread did not stop")
        shutil.rmtree(directory, ignore_errors=True)

    def warm(self) -> None:
        from repro.serve.client import ServeClient

        booted = self.boot()
        try:
            client = ServeClient(booted[0].url)
            for body in self.bodies[:5]:
                client.run(body)
        finally:
            self.shutdown(booted)

    def rep(self, tracer=None) -> dict:
        """:data:`SERVE_RUNS` closed-loop runs against a fresh server."""
        from repro.serve.client import ServeClient

        booted = self.boot()
        try:
            server = booted[0]
            sample = self._loop(server, ServeClient(server.url), tracer)
        finally:
            self.shutdown(booted)
        return sample

    def _loop(self, server, client, tracer) -> dict:
        gc.collect()
        before = dict(tracer.counts) if tracer else {}
        mark = len(tracer.spans) if tracer else 0
        latencies, scrapes, submits, lines = [], [], [], []
        reports, statuses = [], []
        metrics_text = ""
        start = time.perf_counter()
        for body in self.bodies:
            with _span(tracer, "run", root=True):
                t0 = time.perf_counter()
                with _span(tracer, "serve.submit"):
                    run_id = client.submit(body)
                t1 = time.perf_counter()
                with _span(tracer, "serve.events"):
                    lines.append(sum(1 for _ in client.events(run_id)))
                with _span(tracer, "serve.report"):
                    snapshot = client.status(run_id)
                latencies.append((t0, time.perf_counter()))
            submits.append(t1 - t0)
            statuses.append(snapshot["status"])
            reports.append(snapshot.get("report") or {})
            s0 = time.perf_counter()
            with _span(tracer, "serve.scrape"):
                metrics_text = client.metrics_text()
            scrapes.append((s0, time.perf_counter()))
        end = time.perf_counter()
        self._check(statuses, reports, lines)
        runs = len(self.bodies)
        requests = sum(report["offered"] for report in reports)
        sample = {
            "wall_s": end - start,
            "window": (start, end),
            "requests": requests,
            "runs": runs,
            "failed_runs": sum(1 for status in statuses if status != "done"),
            "latencies": latencies,
            "scrapes": scrapes,
        }
        if tracer:
            d = _delta(tracer.counts, before)
            replays = [
                span["end"] - span["start"] for span in tracer.spans[mark:]
                if span["name"] == "serve.replay"
            ]
            check(len(replays) == runs,
                  f"{self.name}: {len(replays)} server replays for {runs} runs")
            fsyncs = server.store.metrics.counter_total(
                "repro_journal_fsyncs_total"
            )
            layers = _layer_zeros()
            layers.update(_kernel_layers(d, requests, runs))
            layers.update({
                "serve.submit_ms": 1e3 * statistics.median(submits),
                "serve.replay_ms": 1e3 * statistics.median(replays),
                "serve.overhead_ms": 1e3 * statistics.median(
                    (t1 - t0) - replay
                    for (t0, t1), replay in zip(latencies, replays)
                ),
                "serve.journal_append_ms": 1e3 * _ratio(
                    d.get("serve.journal_append.s", 0), runs
                ),
                "serve.fsyncs_per_run": fsyncs / runs,
                "serve.events_per_run": sum(lines) / runs,
                "serve.metrics_bytes": len(metrics_text.encode("utf-8")),
                "serve.metric_series": sum(
                    1 for line in metrics_text.splitlines()
                    if line and not line.startswith("#")
                ),
            })
            sample["layers"] = layers
        return sample

    def _check(self, statuses, reports, lines) -> None:
        for index, (status, report, body) in enumerate(
            zip(statuses, reports, self.bodies)
        ):
            offered = len(body["trace"]["events"])
            check(status == "done", f"{self.name}: run {index} is {status}")
            check(report.get("offered") == offered
                  and report["completed"] + report["failed"] == offered,
                  f"{self.name}: run {index} report does not account for "
                  f"its {offered} events")
            check(lines[index] >= 3,
                  f"{self.name}: run {index} streamed {lines[index]} events")
        digest = sha256(json.dumps(reports, sort_keys=True))
        if self.reports_sha is None:
            self.reports_sha = digest
            self.sample_report = reports[self.sample_index]
        check(digest == self.reports_sha,
              f"{self.name}: reports changed between repetitions")

    def final_check(self) -> None:
        """One sampled run's report equals a local replay of its body."""
        from repro.serve.validation import parse_run_request

        request = parse_run_request(self.bodies[self.sample_index])
        local = engine.run_parallel_replay(
            request.trace, request.spec, shards=1, workers=1
        )
        expected = json.loads(render_json(local.to_dict()))
        check(expected == self.sample_report,
              f"{self.name}: run {self.sample_index} report differs from a "
              f"local replay of the same body")

    def fingerprint(self) -> Dict[str, object]:
        return {"reports_sha256": self.reports_sha,
                "runs": len(self.bodies)}


# -- the registry ---------------------------------------------------------------

#: Requests per replay: about 58 s of the skewed trace, 120 s of the
#: contended one and 120 s of the mixed one.
SKEW_REQUESTS = 800
CONTENDED_REQUESTS = 400
MIXED_REQUESTS = 1900


def make(name: str, seed: int, workdir: str, scale: float = 1.0,
         serve_runs: int = SERVE_RUNS):
    """Build workload ``name`` for ``seed``; ``scale`` shrinks the traces
    and ``serve_runs`` the serve repetitions (the tests use both)."""
    if name == "skew_wc_serial":
        return ReplayWorkload(
            name, skewed_trace(seed, int(SKEW_REQUESTS * scale)),
            ReplaySpec(system_name="dataflower", default_app="wc", seed=seed),
            workers=1,
        )
    if name == "contended_vid_serial":
        return ReplayWorkload(
            name, contended_trace(seed, int(CONTENDED_REQUESTS * scale)),
            ReplaySpec(system_name="dataflower", default_app="vid",
                       seed=seed),
            workers=1,
        )
    if name == "mixed_tenants_parallel":
        trace, spec = mixed_trace(seed, int(MIXED_REQUESTS * scale))
        return ReplayWorkload(name, trace, spec, workers=2)
    if name == "serve_closed_loop":
        return ServeWorkload(seed, workdir, runs=serve_runs)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = [
    "skew_wc_serial",
    "contended_vid_serial",
    "mixed_tenants_parallel",
    "serve_closed_loop",
]

#: Workloads that run in one process, pinned to one vCPU.  With its
#: threads free to move, the serve client and server wake each other
#: across vCPUs, and on this VM such wake-ups cost a host round trip
#: whose price swings with host load: pinned, a serve run took 35-60 ms
#: of replay and 6-10 ms besides; unpinned, 50-80 ms and 10-20 ms.
#: The pool workload needs both vCPUs, so it is never pinned.
ONE_VCPU = {"skew_wc_serial", "contended_vid_serial", "serve_closed_loop"}
