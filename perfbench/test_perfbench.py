"""Tests of the benchmark itself, on fleets far smaller than its workloads.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from perfbench import common, fleet, hostspeed, pipeline, run
from perfbench.fleet import FleetSpec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

NAME = re.compile(r"[A-Za-z0-9_.-]+")
TINY_FULL = FleetSpec(6, 1, 26, ("knn", "madgan", "vae_hmm"), attack=True)
TINY_LEAN = FleetSpec(12, 4, 20, ("knn",), attack=False)
TINY_FABRIC = FleetSpec(12, 4, 20, ("knn",), attack=False, shards=2)


def fixture_history() -> int:
    return fleet.build_fixture(TINY_LEAN, seed=1)[0].history


def inputs_digest(fixture) -> str:
    """Digest of everything a fleet run feeds the program."""
    digest = hashlib.sha256()
    for record in fixture.fleet:
        digest.update(record.label.encode())
        digest.update(record.features("test").tobytes())
    for predictor in fixture.predictors():
        digest.update(predictor.state_hash().encode())
    digest.update(repr(sorted((fixture.episodes or {}).items())).encode())
    digest.update(repr(fixture.faults).encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def tiny_fleets():
    fleet.FLEETS.update(tiny_full=TINY_FULL, tiny_lean=TINY_LEAN, tiny_fabric=TINY_FABRIC)
    yield
    for name in ("tiny_full", "tiny_lean", "tiny_fabric"):
        fleet.FLEETS.pop(name)


def test_same_seed_same_inputs_other_seed_other_inputs():
    first, _ = fleet.build_fixture(TINY_FULL, seed=3)
    again, _ = fleet.build_fixture(TINY_FULL, seed=3)
    other, _ = fleet.build_fixture(TINY_FULL, seed=4)
    assert inputs_digest(first) == inputs_digest(again)
    assert inputs_digest(first) != inputs_digest(other)


def test_traced_pass_outputs_equal_untraced(tiny_fleets):
    fixture, _ = fleet.build_fixture(TINY_FULL, seed=5)
    plain = fleet.replay_pass(fixture, trace=False)
    traced = fleet.replay_pass(fixture, trace=True)
    assert traced.tracer.spans, "the traced pass recorded no spans"
    assert plain.fingerprint == traced.fingerprint
    # The instance wrappers are removed after the pass.
    for detector, _ in traced.detectors.values():
        assert "predict" not in vars(detector)


@pytest.mark.parametrize("workload", ["tiny_full", "tiny_lean"])
def test_traced_run_checks_and_self_time_sum(tiny_fleets, workload):
    outcome = fleet.run_fleet(workload, seed=2, seconds=0.01, trace=True)
    assert outcome.correct, outcome.checks
    assert outcome.failed == 0
    assert outcome.layers["trace.self_sum_gap_pct"] <= 3.0
    assert outcome.layers["scheduler.tick_ms"] > 0
    assert outcome.layers["glucose.step_stream_ms_per_tick"] > 0
    assert outcome.layers["detectors.knn.windows_scored"] > 0
    if workload == "tiny_full":
        assert outcome.layers["attacker.model_queries"] > 0
        assert outcome.layers["detectors.madgan.ms_per_tick"] > 0
        # Both window monitors score the same windows, at most one per
        # session per tick once its ring is full; MAD-GAN's nested scoring
        # calls must not count a window twice.
        windows = outcome.layers["detectors.madgan.windows_scored"]
        assert windows == outcome.layers["detectors.vae_hmm.windows_scored"]
        assert 0 < windows <= TINY_FULL.sessions * (TINY_FULL.horizon - fixture_history() + 1)


def test_fabric_matches_single_process(tiny_fleets):
    outcome = fleet.run_fleet("tiny_fabric", seed=2, seconds=0.01, trace=True)
    assert outcome.checks["fleet.sharded_bitwise_equal_single_process"]
    assert outcome.correct, outcome.checks
    assert outcome.layers["shard.worker_busy_ms_per_tick"] > 0
    assert outcome.layers["shard.payload_bytes_per_tick"] > 0
    assert outcome.layers["obs.spans_recorded"] > 0
    lean = fleet.run_fleet("tiny_lean", seed=2, seconds=0.01, trace=False)
    assert lean.info["fingerprint"] == outcome.info["fingerprint"]


def test_traced_pipeline_run(monkeypatch):
    monkeypatch.setattr(common, "SETUP_REPEATS", 1)
    monkeypatch.setattr(common, "SETUP_MIN_SECONDS", 0.0)
    outcome = pipeline.run_risk_profile(seed=7, seconds=0.01, trace=True)
    assert outcome.correct, outcome.checks
    assert outcome.checks["pipeline.matches_reference"]
    assert outcome.info["less_vulnerable"] == ["A_5", "B_1", "B_2"]
    assert outcome.layers["eval.knn_recall_gain"] > 0
    assert outcome.layers["campaign.s"] > 0 and outcome.layers["campaign.model_queries"] > 0
    for key in common.DETECTOR_KEYS:
        assert outcome.layers[f"eval.fit_s.{key}"] > 0
        assert outcome.layers[f"eval.score_s.{key}"] > 0


def test_metric_catalogue_matches_benchmark_json(tiny_fleets):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, catalogue in (("end_to_end", common.END_TO_END), ("per_layer", common.PER_LAYER)):
        assert {entry["name"]: (entry["unit"], entry["better"]) for entry in spec[key]} == catalogue
    assert [entry["name"] for entry in spec["workloads"]] == [
        "fleet_full_256", "fleet_lean_1024", "fleet_fabric_1024", "risk_profile"
    ]
    for name in [*common.END_TO_END, *common.PER_LAYER]:
        assert NAME.fullmatch(name), name

    outcome = fleet.run_fleet("tiny_lean", seed=1, seconds=0.01, trace=True)
    assert set(outcome.end_to_end) == set(common.END_TO_END)
    assert set(common.PER_LAYER) - {"error_rate"} <= set(outcome.layers)
    for value in outcome.end_to_end.values():
        assert np.isfinite(value) and value > 0


def test_cli_prints_units_and_result_line(tiny_fleets, capsys, monkeypatch):
    monkeypatch.setattr(run, "WORKLOADS", run.WORKLOADS + ("tiny_lean",))
    # main() pins the BLAS thread variables; restore them after the test.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(variable, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert run.main(["--workload", "tiny_lean", "--seed", "1", "--seconds", "0.01"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    for name, entry in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert entry["unit"] == common.END_TO_END[name][0]
    assert lines[-2].startswith("detail: ")
    provenance = json.loads(lines[-2][len("detail: "):])["provenance"]
    assert provenance["blas_threads"] == "1" and provenance["seed"] == 1


def test_cli_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "risk_profile", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(1, 101))
    percentile, value = common.tail_percentile(values)
    assert percentile == 90
    assert sum(1 for item in values if item > value) >= 10
    assert common.tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_speed_probe_leaves_out_probes_and_scales_by_slowdown():
    probe = hostspeed.SpeedProbe()
    # Two probes at 1.0-1.1 s and 2.0-2.1 s; the first ran at nominal speed,
    # the second took twice as long.
    nominal = [seconds for _, seconds in hostspeed.PIECES]
    probe.starts, probe.ends = [1.0, 2.0], [1.1, 2.1]
    probe.pieces = [nominal, [2 * seconds for seconds in nominal]]
    # Fewer probes than the rolling window: both get the median slowdown, 1.5.
    assert np.allclose(probe.factors(), 1.5)
    assert probe.normalized(0.5, 3.0, scaled=False) == pytest.approx(2.5 - 0.2)
    assert probe.normalized(0.5, 3.0) == pytest.approx((2.5 - 0.2) / 1.5)
    assert probe.slowdown(0.0, 1.5) == pytest.approx(1.5)
    assert probe.slowdown(2.5, 3.0) == 1.0

    probe = hostspeed.SpeedProbe()
    with probe.periodic(every_s=0.01):
        started = perf_counter()
        while perf_counter() - started < 0.2:
            pass
    assert len(probe.starts) >= 5
    assert probe.normalized(started, perf_counter(), scaled=False) < perf_counter() - started
    assert np.all(probe.factors() > 0)


def test_lane_variants_spread_evenly_over_the_fabric():
    fixture, _ = fleet.build_fixture(TINY_LEAN, seed=4)
    placed = [fleet.shard_of(model.state_hash(), fleet.FABRIC_SHARDS) for model in fixture.predictors()]
    assert len(placed) == TINY_LEAN.lanes
    assert sorted(placed.count(shard) for shard in range(fleet.FABRIC_SHARDS)) == [2, 2]
