"""Runs pass their layer gates and report exactly the metrics BENCHMARK.json declares."""

import json
from pathlib import Path

from perfbench import run
from perfbench.workloads import WORKLOADS


def test_workload_gates_hold():
    for name in WORKLOADS:
        counts, _ = run.count_pass(WORKLOADS[name], 1, 5_000)
        assert WORKLOADS[name].not_exercised(counts) is None, name


def test_traced_run_reports_every_per_layer_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    result = run.traced_run(WORKLOADS["map-uniform"], 3, 1)
    assert result["failed"] == 0 and not result["mismatched"]
    assert not result["unaccounted"]
    got = {name: unit for name, (_, unit) in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert result["metrics"]["glass.jump_depth_mean"][0] < 1


def test_plain_run_reports_every_end_to_end_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    result = run.plain_run(WORKLOADS["book-spill"], 3, 1)
    assert result["failed"] == 0 and result["gate"] is None
    got = {name: unit for name, (_, unit) in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert all(value > 0 for value, _ in result["metrics"].values())


def test_times_are_scaled_by_the_probe(monkeypatch):
    # a probe at twice its nominal time means the machine ran at half speed
    monkeypatch.setattr(run, "probe_ns", lambda: 2 * run.PROBE_NOMINAL_NS)
    result = run.plain_run(WORKLOADS["book-spill"], 3, 1)
    got, raw = result["metrics"], result["record"]["as_measured"]
    assert got["ops_per_s"][0] == raw["ops_per_s"] * 2
    for name in ("op_p50_ns", "op_p99_ns", "setup_s"):
        assert got[name][0] == raw[name] / 2
