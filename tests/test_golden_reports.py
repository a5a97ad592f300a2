"""Golden-report regression fixtures: catch simulator drift explicitly.

``tests/golden/`` holds one canonical merged replay report per
registered execution system (generated by ``tools/regen_golden.py``).
These tests re-run the exact scenario and compare byte-for-byte: any
change to the simulator, metrics, or report serialization must either be
reverted or acknowledged by regenerating the fixtures in the same
commit.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.experiments.common import system_names

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location(
    "regen_golden", ROOT / "tools" / "regen_golden.py"
)
regen_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen_golden)

REGEN_HINT = (
    "golden report drifted; if the behavior change is intentional, run "
    "`PYTHONPATH=src python tools/regen_golden.py` and commit the "
    "updated fixtures with the change"
)


def test_every_registered_system_has_a_fixture():
    """Adding a system without a golden fixture must fail loudly."""
    for system_name in system_names():
        path = regen_golden.golden_path(system_name)
        assert path.exists(), (
            f"no golden fixture for system {system_name!r}; run "
            f"tools/regen_golden.py"
        )


def test_no_orphaned_fixtures():
    expected = {regen_golden.golden_path(name).name for name in system_names()}
    expected |= {
        regen_golden.scenario_path(name).name
        for name in regen_golden.SCENARIOS
    }
    actual = {path.name for path in GOLDEN_DIR.glob("*.json")}
    assert actual == expected


@pytest.mark.parametrize("system_name", system_names())
def test_replay_report_matches_golden(system_name):
    path = regen_golden.golden_path(system_name)
    assert path.read_text() == regen_golden.golden_report(system_name), (
        f"{path.name}: {REGEN_HINT}"
    )


@pytest.mark.parametrize("system_name", system_names())
def test_golden_fixture_schema(system_name):
    """Fixtures stay valid strict JSON with the report's core schema."""
    report = json.loads(regen_golden.golden_path(system_name).read_text())
    assert report["system"] == system_name
    assert report["offered"] == len(regen_golden.golden_trace())
    assert set(report["tenants"]) == {"acme", "globex"}
    assert report["replay"]["policy"] == "tenant"
    assert report["replay"]["cells"] == 2


@pytest.mark.parametrize("scenario", sorted(regen_golden.SCENARIOS))
def test_scenario_matches_golden(scenario):
    path = regen_golden.scenario_path(scenario)
    assert path.read_text() == regen_golden.scenario_report(scenario), (
        f"{path.name}: {REGEN_HINT}"
    )


def _scenario_runs(scenario):
    path = regen_golden.scenario_path(scenario)
    return json.loads(path.read_text())["runs"]


def test_scenarios_exercise_their_paths():
    """Each scenario fixture reaches the model path it exists for."""
    for run in _scenario_runs("vid_fanout4_24mb").values():
        assert run["report"]["completed"] == 8
    for name in ("faasflow", "production"):
        counters = _scenario_runs("vid_fanout4_24mb")[name]["counters"]
        assert counters["storage_puts"] > 0 and counters["storage_gets"] > 0
    ttl = _scenario_runs("sink_ttl_short")["dataflower"]["counters"]
    assert ttl["sink_spills"] > 0 and ttl["disk_bytes_read"] > 0
    for run in _scenario_runs("keep_alive_short").values():
        assert run["counters"]["recycled"] > 0
    failures = _scenario_runs("failure_injection")["dataflower"]
    assert len(failures["injected"]["crashes"]) == 2
    assert failures["injected"]["flow_cancellations"]
    assert failures["counters"]["redo"] > 2
    assert failures["counters"]["checkpoint_restarts"] > 0
