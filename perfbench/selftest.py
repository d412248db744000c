"""The benchmark's own tests, at tiny scale.

    python3 -m pytest perfbench/selftest.py -q

They check that every named metric appears with its unit, that no
workload answers wrongly, that the paper's cost metrics repeat exactly
for a seed, and that every timing metric is host-normalised.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from probe import REF_PROBE_S, HostClock  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = sorted(WORKLOADS)
_cache: dict = {}


def tiny(name: str, trace: bool, seed: int = 3, clock=None, key=None):
    """One tiny run, cached per key so the tests share runs."""
    key = key or (name, trace, seed)
    if key not in _cache:
        _cache[key] = run.run_workload(
            name, seed, 0.05, trace, sizes=TINY, clock=clock
        )
    return _cache[key]


def test_benchmark_json_matches_the_metric_tables():
    assert [m["name"] for m in BENCH["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in BENCH["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in BENCH["workloads"]} == set(WORKLOADS)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in BENCH["end_to_end"])


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_reported_with_its_unit(name, trace):
    result, _ = tiny(name, trace)
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_error_rate_is_zero(name, trace):
    result, record = tiny(name, trace)
    assert result["correct"], record["notes"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert record["error_rate"] == 0.0


@pytest.mark.parametrize("name", NAMES)
def test_cost_metrics_repeat_exactly_for_a_seed(name):
    first, _ = tiny(name, False)
    again, _ = tiny(name, False, key=(name, "again"))
    for metric in ("access_time_pages", "tune_in_pages"):
        assert first["metrics"][metric] == again["metrics"][metric]


@pytest.mark.parametrize("name", NAMES)
def test_every_timing_metric_is_normalised(name):
    # A host whose probe takes twice the reference: every time halves
    # and the throughput doubles against the raw wall-clock figures.
    clock = HostClock(probe=lambda: 2 * REF_PROBE_S)
    result, record = tiny(name, False, clock=clock, key=(name, "pinned"))
    for metric in run.TIMING:
        raw = record["raw"][metric]
        scale = 2.0 if metric == "throughput_qps" else 0.5
        assert result["metrics"][metric]["value"] == pytest.approx(raw * scale)
    for p in record["passes"] + record["setups"]:
        assert p["norm_s"] == pytest.approx(p["raw_s"] * 0.5)


def test_traced_time_sums_are_rescaled():
    row = {"executor.batch_s": 2.0, "executor.rounds": 10.0}
    assert run._scaled(row, 0.5) == {"executor.batch_s": 1.0,
                                     "executor.rounds": 10.0}


def test_traced_run_reports_overhead_and_unmeasured_layers():
    result, record = tiny("tnn_shared", True)
    assert "trace.overhead_pct" in result["metrics"]
    assert record["traced_passes"]
    assert set(record["unmeasured"]) == {"kernels.single_calls",
                                         "kernels.single_s"}
    _, campaign = tiny("campaign_lossy", True)
    assert "in-process" in campaign["worker"]


def test_code_path_variables_are_refused(capsys):
    assert run.refused_env({"REPRO_NO_KERNELS": "1", "REPRO_WORKERS": "2",
                            "REPRO_CHAOS_KILL_SHARD": "0"}) == [
        "REPRO_CHAOS_KILL_SHARD", "REPRO_NO_KERNELS"]
    assert run.refused_env({"REPRO_KERNEL_MIN_LEAF": "4"}) == [
        "REPRO_KERNEL_MIN_LEAF"]


def test_weighted_percentile():
    samples = [(5.0, 1), (1.0, 98), (9.0, 1)]
    assert run.percentile(samples, 0.5) == 1.0
    assert run.percentile(samples, 0.99) == 5.0
    assert run.percentile(samples, 1.0) == 9.0
