"""Timeline experiment: the busy hour the static model prices away.

Not a paper figure — a temporal extension of Figure 2's question. The
paper's capacity model asks "who is unserved at the provisioned busy
hour?" once. This experiment drives the :mod:`repro.timeline` workload
over a regional slice for a simulated day: a residential diurnal curve
phased by county-seat longitude, handover-churn reconnection windows,
and a Fig-2-over-time grid of served-location fraction by hour of day
across oversubscription ratios. It also runs the flat-profile
differential — a flat curve with churn disabled must reproduce the
static pipeline's report byte-identically — and reports the verdict
as a metric CI gates on.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import StarlinkDivideModel
from repro.experiments.registry import ExperimentResult
from repro.orbits.shells import GEN1_SHELLS
from repro.timeline import (
    HandoverChurnModel,
    TimelineConfig,
    get_profile,
    run_timeline,
)
from repro.viz.textplot import heat_grid

#: The Appalachian subset the simulation tests use — big enough to span
#: many cells and counties, small enough for a daylong sweep in seconds.
REGION_BBOX = (37.0, 38.5, -83.5, -81.0)

#: Oversubscription ratios forming the grid columns (Figure 2's axis).
SCENARIOS = (10.0, 20.0, 35.0)

#: Daylong sweep resolution: 30-minute steps keep the experiment fast;
#: the CLI and CI smoke runs exercise the sub-minute regime.
DAY_STEP_S = 1800.0

#: The flat-identity differential runs at a sub-minute step, the
#: regime the timeline workload exists for.
IDENTITY_DURATION_S = 1200.0
IDENTITY_STEP_S = 30.0

#: Hour-of-day bucketing for the grid rows.
GRID_HOUR_STEP = 3


def run(model: StarlinkDivideModel) -> ExperimentResult:
    """Daylong diurnal + churn timelines over a regional slice."""
    dataset = model.dataset.subset_bbox(*REGION_BBOX, "timeline region")
    shells = list(GEN1_SHELLS[:2])

    identity = run_timeline(
        dataset,
        shells,
        TimelineConfig(
            duration_s=IDENTITY_DURATION_S,
            step_s=IDENTITY_STEP_S,
            oversubscription=SCENARIOS[1],
        ),
    )

    profile = get_profile("residential")
    churn = HandoverChurnModel()
    results = []
    for ratio in SCENARIOS:
        results.append(
            run_timeline(
                dataset,
                shells,
                TimelineConfig(
                    duration_s=86400.0,
                    step_s=DAY_STEP_S,
                    profile=profile,
                    churn=churn,
                    oversubscription=ratio,
                ),
            )
        )

    hour_rows = list(range(0, 24, GRID_HOUR_STEP))
    grid = np.zeros((len(hour_rows), len(SCENARIOS)))
    for col, result in enumerate(results):
        _, hourly = result.hourly_served_fraction()
        for row, hour in enumerate(hour_rows):
            bucket = hourly[hour : hour + GRID_HOUR_STEP]
            grid[row, col] = float(np.nanmean(bucket))
    grid_text = heat_grid(
        grid,
        row_labels=[f"{h:02d}h" for h in hour_rows],
        col_labels=[f"{r:.0f}" for r in SCENARIOS],
        title=(
            "served-location fraction by UTC hour (rows) x "
            "oversubscription (cols), residential profile"
        ),
        value_format="{:.3f}",
    )

    headers = (
        "oversub",
        "unserved_h_day_mean",
        "unserved_h_day_max",
        "outage_min_mean",
        "reconnections",
        "served_frac_min",
        "served_frac_max",
    )
    rows = []
    for ratio, result in zip(SCENARIOS, results):
        unserved = result.unserved_hours_per_day()
        rows.append(
            (
                f"{ratio:.0f}",
                f"{float(unserved.mean()):.2f}",
                f"{float(unserved.max()):.2f}",
                f"{float(result.outage_minutes().mean()):.2f}",
                int(result.reconnection_counts.sum()),
                f"{float(result.served_location_fraction.min()):.3f}",
                f"{float(result.served_location_fraction.max()):.3f}",
            )
        )
    table_lines = ["", "per-day QoE by oversubscription:"]
    table_lines.append("  ".join(headers))
    table_lines.extend("  ".join(str(v) for v in row) for row in rows)
    identity_line = (
        f"flat-profile differential (step {IDENTITY_STEP_S:.0f} s): "
        f"{'byte-identical to static pipeline' if identity.flat_identical else 'MISMATCH'}"
    )
    text = "\n".join([grid_text, *table_lines, "", identity_line])

    mid = results[len(SCENARIOS) // 2]
    mid_unserved = mid.unserved_hours_per_day()
    return ExperimentResult(
        experiment_id="timeline",
        title="Diurnal + churn timelines: unserved hours follow the busy hour",
        text=text,
        csv_headers=headers,
        csv_rows=rows,
        metrics={
            "cells": float(mid.cells),
            "steps_per_day": float(mid.steps),
            "flat_identical": float(bool(identity.flat_identical)),
            "unserved_hours_per_day_mean": float(mid_unserved.mean()),
            "unserved_hours_per_day_max": float(mid_unserved.max()),
            "outage_minutes_mean": float(mid.outage_minutes().mean()),
            "reconnections_total": float(mid.reconnection_counts.sum()),
            "served_fraction_min": float(
                mid.served_location_fraction.min()
            ),
            "served_fraction_mean": float(
                mid.served_location_fraction.mean()
            ),
        },
    )
