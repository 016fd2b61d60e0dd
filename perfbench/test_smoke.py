"""Toy-size smoke test of the benchmark (the Appalachian region, ~1 s runs).

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_smoke.py

It checks that every workload prints every metric named in
``BENCHMARK.json`` with its unit, that a traced run reports the per-layer
metrics that apply to the workload and accounts for its wall time, and
that a wrong answer injected into the program's output is counted as a
failure. Every run must leave no process behind.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]

#: Per-layer metrics each workload must report as non-zero.
APPLIES = {
    "paper-res6": [
        "pipeline_s", "error_rate", "demand.map_s", "demand.explode_s",
        "demand.explode.rows", "demand.bin_s", "demand.bin.cells",
        "core.model_s", "core.findings_s", "experiments.val_s",
        "experiments.failed", "runner.sweep_s", "runner.task_s",
        "runner.tasks", "layer.demand_s", "layer.experiments_s",
    ],
    "timeline-flat30": [
        "timeline_steps_per_s", "sim.step_s", "sim.visibility_s",
        "sim.visibility.pairs", "sim.assignment_s", "sim.metrics_s",
        "timeline.run_self_s", "timeline.verify_s", "layer.sim_s",
    ],
    "timeline-diurnal15": [
        "timeline_steps_per_s", "sim.visibility_s", "sim.assignment_s",
        "timeline.diurnal_s", "timeline.churn_s", "layer.timeline_s",
    ],
    "serve-mixed": [
        "serve_qps", "serve_p50_ms", "serve_p99_ms", "serve_tiles_ms",
        "serve_update_ms", "serve.shards_s", "serve.index_s",
        "serve.engine.point_ms", "serve.engine.tiles_ms",
        "serve.engine.update_ms", "serve.engine.busy_frac",
        "serve.requests", "loadgen.cpu_frac", "layer.serve_s",
        "layer.loadgen_s",
    ],
}


def _session_members(sid: int):
    """Processes still in session ``sid``, zombies included."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid:
            members.append(int(entry))
    return members


def _run(workload: str, trace: int, inject: bool = False):
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", "7", "--seconds", "1", "--trace", str(trace), "--toy",
    ]
    if inject:
        command.append("--inject")
    process = subprocess.Popen(
        command,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = process.communicate(timeout=300)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise
    assert process.returncode == 0, stderr
    assert not _session_members(process.pid), "the run left processes behind"
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    record = json.loads(
        (ROOT / ".perfbench" / "results" / f"{workload}-s7-t{trace}.json")
        .read_text()
    )
    return result, record


def _assert_metrics(result, section: str) -> None:
    expected = {m["name"]: m["unit"] for m in MANIFEST[section]}
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name], name
        assert isinstance(metric["value"], float), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result, _ = _run(workload, 0)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    _assert_metrics(result, "end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_accounts_for_its_wall(workload):
    result, record = _run(workload, 1)
    assert result["correct"] is True
    _assert_metrics(result, "per_layer")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    missing = [name for name in APPLIES[workload] if not metrics[name]]
    assert not missing, missing
    layers = sum(v for k, v in metrics.items() if k.startswith("layer."))
    wall = metrics["trace.wall_s"]
    assert layers + metrics["trace.unattributed_s"] == pytest.approx(wall)
    assert abs(record["notes"]["partition_residual_s"]) < 1e-6
    if workload == "timeline-diurnal15":
        assert metrics["timeline.verify_s"] == 0.0
    spans = list((ROOT / ".perfbench" / "spans").glob(f"{record['run']}.jsonl"))
    assert len(spans) == 1
    first = json.loads(spans[0].read_text().splitlines()[0])
    assert {"run", "id", "parent", "name", "start", "end"} <= set(first)


def test_paper_failures_are_named():
    result, record = _run("paper-res6", 0)
    assert result["failed"] == len(record["failures"]) >= 2
    assert any(f.startswith("experiments.tco:") for f in record["failures"])
    assert any(f.startswith("experiments.defection:") for f in record["failures"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_wrong_answer_is_a_failure(workload):
    clean, _ = _run(workload, 0)
    result, record = _run(workload, 0, inject=True)
    assert result["correct"] is False
    assert result["failed"] >= clean["failed"] + 1
    assert record["error_rate"] > 0.0
