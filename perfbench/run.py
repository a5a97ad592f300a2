#!/usr/bin/env python3
"""The repository benchmark: replay rate, pool replay and serve latency.

Run from the repository root::

    python3 perfbench/run.py --workload skew_wc_serial --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics, writing every span to
``.perfbench_out/spans-<workload>-<seed>.json``.  End-to-end times are
in reference seconds: host seconds scaled by the host speed sampled
beside them (``hostspeed.py``).  Human-readable metric lines, the same
metrics in host seconds and the simulated-output fingerprints go to
stdout first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed correctness check
prints ``"correct": false`` and exits 1; a checkout without the program
(``src/repro``) exits 2 and prints no result.  See ``NOTES.md`` for the workloads and the noise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
#: Fresh-process set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: Repetitions made even when ``--seconds`` runs out first.
MIN_REPS = 3

END_TO_END_UNITS = {
    "requests_per_s": "req/s",
    "run_latency_p50_s": "s",
    "run_latency_p90_s": "s",
    "scrape_latency_p50_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def import_program() -> None:
    """Put this checkout's ``src`` first on the path and import ``repro``
    from it; exit 2 when the checkout holds no program."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {src}: {exc}",
              file=sys.stderr)
        raise SystemExit(2)
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: repro imported from {repro.__file__}, not {src}",
              file=sys.stderr)
        raise SystemExit(2)


def quantile(values, q: float) -> float:
    """The ``q``-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def time_setups(workload: str, seed: int) -> list:
    """Set up the workload in a fresh interpreter :data:`SETUP_PROBES`
    times; returns the ``(host seconds, reference seconds)`` of each."""
    setups = []
    for _ in range(SETUP_PROBES):
        spawned_at = time.perf_counter()
        probe = subprocess.Popen(
            [sys.executable, __file__, "--setup-probe", "--workload",
             workload, "--seed", str(seed), "--spawned-at", repr(spawned_at)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        try:
            fields = probe.stdout.readline().split()
            probe.stdout.read()
        finally:
            probe.stdout.close()
            code = probe.wait(timeout=60)
        if len(fields) != 3 or fields[0] != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        setups.append((float(fields[1]), float(fields[2])))
    return setups


def setup_probe(workload: str, seed: int, spawned_at: float) -> int:
    """The probe body: import, build the inputs, boot; report ready.

    The set-up lasts from ``spawned_at`` (the parent's ``perf_counter``,
    a system-wide monotonic clock on Linux) until ready, less the time
    the probe takes to build its host-speed sampler.  The probe samples
    host speed itself, on its own vCPU, and prints the set-up in host
    and in reference seconds.
    """
    import hostspeed

    built_at = time.perf_counter()
    speed = hostspeed.HostSpeed()
    sampling_from = time.perf_counter()
    with speed:
        import_program()
        import workloads

        workdir = OUT_DIR / f"probe-{os.getpid()}"
        built = workloads.make(workload, seed, str(workdir))
        booted = built.boot()
        ready = time.perf_counter()
    host_s = ready - spawned_at - (sampling_from - built_at)
    reference_s = (host_s * hostspeed.REFERENCE_SLICE_S
                   / speed.slice_s(sampling_from, ready))
    print(f"ready {host_s!r} {reference_s!r}", flush=True)
    built.shutdown(booted)
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure(built, seconds: float, traced: bool, tracer) -> tuple:
    """Repetitions until ``seconds`` pass (at least :data:`MIN_REPS`).

    Returns ``(untraced samples, traced samples)``; with ``traced`` the
    repetitions alternate between the two.
    """
    plain, with_trace = [], []
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline or index < MIN_REPS:
        if traced and index % 2 == 1:
            with tracer:
                with_trace.append(built.rep(tracer))
        else:
            plain.append(built.rep())
        index += 1
    return plain, with_trace


def end_to_end(samples, setups, peak_mb, seconds) -> dict:
    """The run's rate (all requests over all timed seconds), its run
    latency percentiles and median scrape over all repetitions pooled,
    and the median of ``setups``.  ``seconds(start, end)`` turns each
    timed window into seconds: reference seconds (:mod:`hostspeed`), or
    host seconds with ``lambda start, end: end - start``."""
    latencies = [seconds(*w) for s in samples for w in s["latencies"]]
    scrapes = [seconds(*w) for s in samples for w in s["scrapes"]]
    return {
        "requests_per_s": sum(s["requests"] for s in samples)
        / sum(seconds(*s["window"]) for s in samples),
        "run_latency_p50_s": quantile(latencies, 50),
        "run_latency_p90_s": quantile(latencies, 90),
        "scrape_latency_p50_s": statistics.median(scrapes),
        "peak_rss_mb": peak_mb,
        "setup_s": statistics.median(setups),
    }


def per_layer(plain, with_trace) -> dict:
    """Each per-layer metric's median over the traced repetitions."""
    import workloads

    values = {
        name: statistics.median(s["layers"][name] for s in with_trace)
        for name in workloads.LAYER_UNITS
    }
    untraced = statistics.median(s["wall_s"] for s in plain)
    traced = statistics.median(s["wall_s"] for s in with_trace)
    values["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed, args.spawned_at)

    import_program()
    import hostspeed
    import treerss
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    if not treerss.supported():
        print("perfbench: /proc/<pid>/task/<tid>/children is missing",
              file=sys.stderr)
        return 2

    workdir = OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    # Temporary files of the program, the probes and the pool workers
    # stay inside the checkout too.
    os.makedirs(workdir / "tmp")
    os.environ["TMPDIR"] = str(workdir / "tmp")
    tempfile.tempdir = None
    if args.workload in workloads.ONE_VCPU:
        # Before any thread starts: every thread, and each set-up probe,
        # inherits the mask.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tracer = Tracer(f"{args.workload}/seed={args.seed}")
    speed = hostspeed.HostSpeed()
    correct = True
    try:
        setups = time_setups(args.workload, args.seed)
        with speed:
            built = workloads.make(args.workload, args.seed, str(workdir))
            built.warm()
            with treerss.TreeRssMeter() as meter:
                plain, with_trace = measure(
                    built, args.seconds, bool(args.trace), tracer
                )
        built.final_check()
    except workloads.CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        correct = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not correct:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    samples = plain + with_trace
    attempted = sum(s.get("cells", s.get("runs", 0)) for s in samples)
    failed = sum(s.get("failed_cells", s.get("failed_runs", 0))
                 for s in samples)
    if args.trace:
        values = per_layer(plain, with_trace)
        units = dict(workloads.LAYER_UNITS, **{"trace.overhead_pct": "%"})
        path = OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
        tracer.write(str(path))
        print(f"spans: {len(tracer.spans)} written to {path}")
    else:
        values = end_to_end(plain, [ref for _, ref in setups],
                            meter.peak_mb, speed.scaled)
        units = END_TO_END_UNITS
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(plain)} untraced + {len(with_trace)} traced repetitions, "
          f"{attempted} operations, {failed} failed "
          f"(failed_ratio {failed / attempted:.4f})")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    walls = " ".join(f"{s['wall_s']:.3f}" for s in plain)
    print(f"untraced repetition wall times, host s: {walls}")
    scaled = " ".join(f"{speed.scaled(*s['window']):.3f}" for s in plain)
    print(f"the same in reference s: {scaled}")
    slice_ms = 1e3 * statistics.median(speed.costs)
    print(f"host speed: median slice {slice_ms:.3f} ms over "
          f"{len(speed.costs)} slices (reference "
          f"{1e3 * hostspeed.REFERENCE_SLICE_S:.3f} ms)")
    if not args.trace:
        host = end_to_end(plain, [host_s for host_s, _ in setups],
                          meter.peak_mb, lambda start, end: end - start)
        print("in host seconds (not gated): " + " ".join(
            f"{name}={value:.6g}" for name, value in host.items()
            if name != "peak_rss_mb"
        ))
    fingerprint = " ".join(f"{k}={v}" for k, v in built.fingerprint().items())
    print(f"fingerprint (simulated output, not gated): {fingerprint}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
