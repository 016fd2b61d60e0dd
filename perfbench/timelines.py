"""Workloads ``timeline-flat30`` and ``timeline-diurnal15``.

Both run ``run_timeline`` on the res-5 national map (20,824 cells) under
all five Gen1 shells (4,408 satellites) with greedy assignment, starting at
02:00 UTC -- 21:00 local solar time at 75 W, the eastern US evening busy
hour -- and continuing in consecutive windows. Set-up is the map.

* ``timeline-flat30``: flat profile, churn off, 30 s steps, default
  verification. It is eligible for the static-identity differential, so
  every window also pays the static re-run, and its answer is checked by
  ``flat_identical``.
* ``timeline-diurnal15``: ``residential`` profile, default churn (15 s
  reconnect, 1 s handover), 15 s steps -- the Starlink reallocation period
  (Mohan et al., arXiv:2310.09242). Not eligible, so no re-run; checked by
  effective <= allocated <= demand on every step and unserved hours per
  day within [0, 24].
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import layers
from common import TOY_BBOX, Outcome, median, peak_rss_mb

BUSY_START_S = 2 * 3600.0
WINDOWS = 4
SETUP_REPEATS = 7

SHAPES = {
    "timeline-flat30": {"step_s": 30.0, "steps": 10, "diurnal": False},
    "timeline-diurnal15": {"step_s": 15.0, "steps": 20, "diurnal": True},
}


def _config(shape, window: int, toy: bool):
    from repro.timeline import HandoverChurnModel, TimelineConfig, get_profile

    steps = 2 if toy else shape["steps"]
    span_s = steps * shape["step_s"]
    extra = {}
    if shape["diurnal"]:
        extra = {
            "profile": get_profile("residential"),
            "churn": HandoverChurnModel(),
        }
    return TimelineConfig(
        duration_s=span_s,
        step_s=shape["step_s"],
        start_s=BUSY_START_S + window * span_s,
        **extra,
    )


def _check(name: str, shape, result, outcome: Outcome, inject: bool) -> None:
    effective = result.effective_mbps
    identical = result.flat_identical
    if inject:  # a wrong answer from the program, for the smoke test
        effective = effective + 1.0
        identical = not identical
    if shape["diurnal"]:
        hours = result.unserved_hours_per_day()
        ok = (
            identical is None
            and bool((effective <= result.allocated_mbps).all())
            and bool((result.allocated_mbps <= result.demand_mbps).all())
            and bool(((hours >= 0.0) & (hours <= 24.0)).all())
        )
    else:
        ok = identical is True
    outcome.check(name, ok)


def run(args, outcome: Outcome, tracer=None) -> None:
    from repro.demand import SyntheticMapConfig, generate_national_map
    from repro.orbits.shells import GEN1_SHELLS
    from repro.timeline import run_timeline

    shape = SHAPES[args.workload]
    shells = list(GEN1_SHELLS)

    setup = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        dataset = generate_national_map(SyntheticMapConfig(seed=args.seed))
        setup.append(time.perf_counter() - start)
    if args.toy:
        dataset = dataset.subset_bbox(*TOY_BBOX)
    outcome.end_to_end["setup_s"] = median(setup)

    def window_run(window: int, span=nullcontext):
        config = _config(shape, window, args.toy)
        start = time.perf_counter()
        with span("timeline.run"):
            result = run_timeline(dataset, shells, config)
        wall = time.perf_counter() - start
        _check(f"{args.workload}[{window}]", shape, result, outcome, args.inject)
        return wall, result.steps

    walls, rates = [], []
    deadline = time.perf_counter() + args.seconds
    while len(walls) < (1 if args.toy else WINDOWS) or time.perf_counter() < deadline:
        wall, steps = window_run(len(walls) % WINDOWS)
        walls.append(wall)
        rates.append(steps / wall)
    outcome.end_to_end["work_s"] = median(walls)
    outcome.end_to_end["peak_rss_mb"] = peak_rss_mb()
    outcome.named["timeline_steps_per_s"] = median(rates)
    outcome.notes["window_walls_s"] = walls

    if tracer:
        layers.instrument_program(tracer)
        try:
            with tracer.span(f"bench.{args.workload}") as root:
                window_run(0, tracer.span)
        finally:
            tracer.restore()
        untraced = median(walls[::WINDOWS])  # the same window, untraced
        layers.finish_trace(outcome, tracer, root, untraced)
