"""Tests of the benchmark's own measurement machinery.

They run the workloads at a tenth of their size, so they stay fast.
"""

import json
import signal
import statistics
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
for path in (str(SRC), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

#: Per-layer metrics that must repeat exactly at a fixed seed.
EXACT = [
    "sim.events_per_request",
    "sim.processes_per_request",
    "cluster.transfers_per_request",
    "sched.cells_stolen",
    "sched.cell_retries",
    "serve.fsyncs_per_run",
    "serve.events_per_run",
]


def test_two_worker_peak_includes_pool_workers(tmp_path):
    # A fresh interpreter, so the process's own peak is this replay's.
    # Its own peak is VmHWM: ru_maxrss would also carry the peak of the
    # process that spawned it, which Linux folds in at exec.
    code = textwrap.dedent(f"""
        import json, sys
        sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]
        import treerss, workloads
        built = workloads.make("mixed_tenants_parallel", 3, {str(tmp_path)!r},
                               scale=0.3)
        with treerss.TreeRssMeter() as meter:
            built.rep()
        with open("/proc/self/status") as status:
            own = next(int(line.split()[1]) for line in status
                       if line.startswith("VmHWM:")) / 1024.0
        print(json.dumps({{"tree": meter.peak_mb, "own": own,
                          "children": meter.max_children}}))
    """)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    peaks = json.loads(out.stdout.strip().splitlines()[-1])
    assert peaks["children"] >= 2, peaks
    assert peaks["tree"] >= peaks["own"], peaks


def _traced_layers(name: str, seed: int, workdir: str) -> dict:
    built = workloads.make(name, seed, workdir, scale=0.1, serve_runs=5)
    with Tracer(name) as tracer:
        return built.rep(tracer)["layers"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_exact_counts_repeat_at_a_fixed_seed(name, tmp_path):
    first = _traced_layers(name, 5, str(tmp_path / "a"))
    second = _traced_layers(name, 5, str(tmp_path / "b"))
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    # Pool workers' kernel counts reach the parent too.
    assert first["sim.events_per_request"] > 0
    assert first["cluster.transfers_per_request"] > 0
    if name == "mixed_tenants_parallel":
        assert first["sched.cells_stolen"] > 0
    if name == "serve_closed_loop":
        assert first["serve.fsyncs_per_run"] > 0


def test_tracer_restores_the_program():
    from repro.sim.environment import Environment

    original = Environment.schedule
    with Tracer("restore"):
        assert Environment.schedule is not original
    assert Environment.schedule is original


def test_host_speed_scales_by_the_slices_it_sampled():
    previous = signal.getsignal(signal.SIGALRM)
    speed = hostspeed.HostSpeed()
    with speed:
        deadline = time.perf_counter() + 0.5
        while time.perf_counter() < deadline:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(speed.costs) >= hostspeed.MIN_SAMPLES
    t0, t1 = speed.starts[0], speed.ends[-1]
    slices = sum(end - start for start, end in zip(speed.starts, speed.ends))
    assert speed.inside(t0, t1) == pytest.approx(slices)
    expected = ((t1 - t0 - slices) * hostspeed.REFERENCE_SLICE_S
                / statistics.fmean(speed.costs))
    assert speed.scaled(t0, t1) == pytest.approx(expected)
    # A window without slices of its own borrows the nearest ones.
    assert speed.scaled(t1 + 1.0, t1 + 1.001) > 0
