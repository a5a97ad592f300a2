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
    again = bench_kernel.measure_point("dataflower", "wc", 40, 1)
    for key in ("events_per_request", "processes_per_request", "report_sha256"):
        assert again[key] == point[key]
