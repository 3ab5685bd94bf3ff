"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/selftest.py

The count-repeat tests run every workload twice in worker processes, about
a minute and a half on a 2-core machine.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import drift  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from tracing import PER_LAYER, self_times  # noqa: E402

COUNTS = ("operators.mesh_nodes", "model.feasible_mask_calls", "policy_iteration.iterations",
          "simulation.jumps", "simulation.boundary_hits", "operators.assemble_calls")


def test_generator_reproduces_bundled_drift_64():
    made = drift.drift_doc(64)
    bundled = json.loads((run.ROOT / "src/pdmp_avgctl/models/drift_boundary_64.json").read_text())
    for section in ("kernel", "rates"):
        for key in made[section]:
            diff = np.max(np.abs(np.asarray(made[section][key]) - np.asarray(bundled[section][key])))
            assert diff == 0.0, (section, key, diff)
    for section in ("grid", "actions", "flow", "costs", "lyapunov", "constants"):
        assert made[section] == bundled[section], section


def test_generated_drift_128_validates_and_passes_audit(tmp_path):
    sys.path.insert(0, str(run.ROOT / "src"))
    import pdmp_avgctl as pa

    model = pa.load_model(drift.write_drift_model(128, tmp_path / "drift_128.json"))
    assert model.n_states == 128
    assert pa.validate_model(model) == []
    assert pa.audit_assumptions(model, pa.FeedbackPolicy.lowest_feasible(model)).passed


def test_self_time_subtracts_the_union_of_children():
    spans = [["p", 0.0, 10.0, -1, "r"], ["a", 1.0, 3.0, 0, "r"], ["b", 2.0, 4.0, 0, "r"],
             ["c", 9.0, 9.5, 0, "r"], ["d", 2.5, 3.0, 2, "r"]]
    assert self_times(spans) == pytest.approx([6.5, 2.0, 1.5, 0.5, 0.5])


def test_speed_probe_divides_by_the_sampled_slowdown():
    probe = speed.SpeedProbe()
    for k in range(100):  # over [0, 10): the kernel takes twice the reference time
        begin = k * 0.1
        probe.begins.append(begin)
        probe.starts.append(begin + 0.001)
        probe.ends.append(begin + 0.001 + 2 * speed.REFERENCE_S)
    own = 100 * (0.001 + 2 * speed.REFERENCE_S)
    assert probe.own_time(0.0, 10.0) == pytest.approx(own)
    assert probe.slowdown(2.0, 3.0) == pytest.approx(2.0)
    assert probe.seconds(0.0, 10.0) == pytest.approx((10.0 - own) / 2.0)


def test_speed_probe_samples_a_busy_process():
    probe = speed.SpeedProbe()
    probe.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.6:
            sum(range(1000))
        t1 = time.perf_counter()
    finally:
        probe.stop()
    assert len(probe.starts) >= 3
    assert all(b <= s < e for b, s, e in zip(probe.begins, probe.starts, probe.ends))
    assert 0.0 < probe.own_time(t0, t1) < t1 - t0
    assert probe.seconds(t0, t1) > 0.0


def test_benchmark_json_matches_the_harness():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == PER_LAYER


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    """Two traced worker runs per workload at one seed: {workload: [(result, spans)] * 2}."""
    work = tmp_path_factory.mktemp("traced")
    out = {}
    for workload in run.WORKLOADS:
        spec = run.make_spec(workload, 3)
        pairs = []
        for k in range(2):
            spans = work / f"{workload}-{k}.json"
            result, _, err = run.run_worker(spec, spans, 170.0)
            assert result is not None, err
            pairs.append((result, json.loads(spans.read_text())["spans"]))
        out[workload] = pairs
    return out


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_counts_repeat_exactly_at_one_seed(traced_twice, workload):
    (first, _), (second, _) = traced_twice[workload]
    assert first["failed"] == 0 and second["failed"] == 0, first["failures"] + second["failures"]
    for name in COUNTS:
        assert first["layers"][name] == second["layers"][name], name
    assert first["layers"]["operators.mesh_nodes"] > 0
    assert first["layers"]["simulation.jumps"] > 0


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_span_self_times_are_within_their_durations(traced_twice, workload):
    for _, spans in traced_twice[workload]:
        assert spans
        for (_, start, end, _, _), own in zip(spans, self_times(spans)):
            assert 0.0 <= own <= end - start


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "bundled_mc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
