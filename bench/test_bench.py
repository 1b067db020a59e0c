"""Checks of the benchmark itself, at a small scale.

    python -m pytest bench/
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import measure
from workloads import WORKLOADS

from repro.hw.dma import DMAEngine

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SCALE = 0.02
SIM_METRICS = ("sim_op_p50_us", "sim_op_p99_us", "sim_mb_per_s",
               "pinned_pages_peak")


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> dict:
    """One traced run of every workload through the command line."""
    out = tmp_path_factory.mktemp("bench") / "result.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--scale", str(SCALE),
         "--trace", "-o", str(out)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    return json.loads(out.read_text())["workloads"]


def test_every_metric_is_emitted_with_its_unit(traced):
    assert set(traced) == {w["name"] for w in SPEC["workloads"]}
    for record in traced.values():
        for section in ("end_to_end", "per_layer"):
            for metric in SPEC[section]:
                emitted = record[section][metric["name"]]
                assert emitted["unit"] == metric["unit"], metric["name"]
                assert emitted["n"] >= 0


def test_traced_self_time_plus_unattributed_is_op_time(traced):
    for record in traced.values():
        diag = record["trace_diagnostics"]
        op_ns = diag["op_host_ns"]
        share = record["per_layer"]["trace.unattributed_share"]["value"]
        total = sum(diag["traced_self_ns"].values()) + share * op_ns
        assert total == pytest.approx(op_ns, rel=0.01)
        assert 0 <= share < 0.5


def test_same_seed_repeats_the_simulation():
    for name in WORKLOADS:
        first = measure.run_workload(name, 7, SCALE)
        second = measure.run_workload(name, 7, SCALE)
        assert first["correct"] and second["correct"], name
        assert first["sim_digest"] == second["sim_digest"], name
        for metric in SIM_METRICS:
            assert (first["end_to_end"][metric]["value"]
                    == second["end_to_end"][metric]["value"]), metric
        for metric, value in first["per_layer"].items():
            if metric.startswith("sim.") and metric != "sim.host_s_per_sim_s":
                assert second["per_layer"][metric] == value, metric


def test_different_seed_gives_different_ops():
    for cls in WORKLOADS.values():
        assert cls.generate(0, 64)["ops"] != cls.generate(1, 64)["ops"]


def test_corrupted_receive_fails_the_run(monkeypatch):
    """Flip one byte of the first large receive-side DMA write after
    set-up: the per-op payload check must fail the run."""
    original = DMAEngine.write_scatter
    calls = [0]
    armed_after = [None]

    def corrupting(self, segments, data):
        calls[0] += 1
        if (armed_after[0] is not None and calls[0] > armed_after[0]
                and len(data) >= 1024):
            armed_after[0] = None
            data = bytes([data[0] ^ 0xFF]) + bytes(data[1:])
        return original(self, segments, data)

    monkeypatch.setattr(DMAEngine, "write_scatter", corrupting)
    cls = WORKLOADS["reg_churn"]
    cls(cls.generate(0, measure.MIN_OPS))   # count one build's writes
    armed_after[0] = calls[0] * (measure.SETUP_BUILDS + 1)
    record = measure.run_workload("reg_churn", 0, SCALE)
    assert not record["correct"]
    assert record["failed"] == 1
    assert "end_to_end" not in record
    assert any("IncorrectOutput" in err for err in record["errors"])
