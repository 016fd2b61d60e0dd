"""Per-layer metrics of a traced run, read from the benchmark's spans.

:func:`instrument_program` wraps the program's step-level entry points --
simulation step, visibility query, beam assignment, metric recording,
diurnal multipliers, churn, and the static re-run a flat timeline makes
to verify itself -- so calls the program makes internally get spans. The
stage-level spans (map, explode, bin, model, experiments, sweeps, index
build, timeline runs) are opened by the workloads around their own calls.
"""

from __future__ import annotations

from typing import Sequence

from common import Outcome
from tracing import LAYERS, Span, Tracer


def instrument_program(tracer: Tracer) -> None:
    from repro.sim import (
        ConstellationSimulation,
        CoverageMetrics,
        GreedyDemandFirst,
        ProportionalFair,
        StickyGreedy,
        VisibilityIndex,
    )
    from repro.timeline import ChurnState, DiurnalProfile

    tracer.instrument(ConstellationSimulation, "step", "sim.step")
    tracer.instrument(
        ConstellationSimulation,
        "run",
        lambda t: "timeline.verify" if t.in_span("timeline.run") else "sim.run",
    )
    tracer.instrument(
        VisibilityIndex,
        "query",
        "sim.visibility",
        attrs_of=lambda result: {"pairs": result[0].nnz},
    )
    for strategy in (GreedyDemandFirst, ProportionalFair, StickyGreedy):
        tracer.instrument(strategy, "assign_csr", "sim.assignment")
    tracer.instrument(CoverageMetrics, "record_step", "sim.metrics")
    tracer.instrument(DiurnalProfile, "cell_multipliers", "timeline.diurnal")
    tracer.instrument(ChurnState, "apply_step", "timeline.churn")


def stage_metrics(outcome: Outcome, tracer: Tracer) -> None:
    """demand, core, experiments, sim and timeline metrics from spans."""
    from repro.experiments import all_experiment_ids

    m = outcome.per_layer
    m["demand.map_s"] = tracer.total("demand.map")
    m["demand.explode_s"] = tracer.total("demand.explode")
    m["demand.explode.rows"] = tracer.attr_sum("demand.explode", "rows")
    m["demand.bin_s"] = tracer.total("demand.bin")
    m["demand.bin.cells"] = tracer.attr_sum("demand.bin", "cells")
    m["core.model_s"] = tracer.total("core.model")
    m["core.findings_s"] = tracer.total("core.findings")
    for experiment_id in all_experiment_ids():
        name = f"experiments.{experiment_id}"
        m[f"{name}_s"] = tracer.total(name)
    m["sim.step_s"] = tracer.self_total("sim.step")
    m["sim.visibility_s"] = tracer.total("sim.visibility")
    m["sim.visibility.pairs"] = tracer.attr_sum("sim.visibility", "pairs")
    m["sim.assignment_s"] = tracer.total("sim.assignment")
    m["sim.metrics_s"] = tracer.total("sim.metrics")
    m["timeline.run_self_s"] = tracer.self_total("timeline.run")
    m["timeline.diurnal_s"] = tracer.total("timeline.diurnal")
    m["timeline.churn_s"] = tracer.total("timeline.churn")
    m["timeline.verify_s"] = tracer.total("timeline.verify")


def runner_metrics(outcome: Outcome, tracer: Tracer, reports, workers: int) -> None:
    """Sweep wall, summed worker task walls, and the dispatch remainder."""
    m = outcome.per_layer
    sweep_s = tracer.total("runner.sweep")
    task_s = sum(sum(r.task_wall_times) for r in reports)
    m["runner.sweep_s"] = sweep_s
    m["runner.task_s"] = task_s
    m["runner.dispatch_s"] = sweep_s - task_s / workers
    m["runner.tasks"] = sum(len(r.results) for r in reports)
    m["runner.failed"] = sum(r.n_failed for r in reports)


def finish_trace(
    outcome: Outcome,
    tracer: Tracer,
    root: Span,
    untraced_s: float,
    traced_failures: Sequence[str] = (),
) -> None:
    """Layer self times, unattributed time, and tracing overhead.

    ``untraced_s`` is the wall of the same work measured with tracing off
    in the same run; the overhead is the traced wall minus it.
    """
    stage_metrics(outcome, tracer)
    m = outcome.per_layer
    m["experiments.failed"] = sum(
        1 for f in traced_failures if f.startswith("experiments.")
    )
    partition = tracer.partition(root.id)
    for layer in LAYERS:
        m[f"layer.{layer}_s"] = partition[layer]
    m["trace.unattributed_s"] = partition["unattributed"]
    m["trace.wall_s"] = root.duration
    m["trace.overhead_s"] = root.duration - untraced_s
    m["trace.overhead_frac"] = (root.duration - untraced_s) / untraced_s
    m["trace.spans"] = len(tracer.spans)
    outcome.notes["partition_residual_s"] = root.duration - sum(
        partition.values()
    )
