"""Workload ``paper-res6``: the researcher's path to the paper's artifacts.

One pass builds the res-6 national map (144,708 cells, 4.66M locations),
explodes it into a location table, bins the table back into cells, builds
the model, computes the findings, runs every registry experiment, and runs
the ``served`` and ``tail`` sweeps through ``SweepRunner`` on two fork
workers. Set-up is what a researcher pays before the first stage starts:
a fresh interpreter importing the program.
"""

from __future__ import annotations

import subprocess
import sys
import time
from contextlib import nullcontext

import layers
from common import TOY_BBOX, Outcome, median, peak_rss_mb

RESOLUTION = 6
SWEEPS = ("served", "tail")
SWEEP_GRID = {"beamspread": (1, 2, 5), "oversubscription": (10, 15, 20, 25)}
SWEEP_WORKERS = 2
SETUP_REPEATS = 3

#: Interpreter start-up plus every import the pipeline needs.
_IMPORT_PROGRAM = (
    "import sys; sys.path.insert(0, 'src'); "
    "import repro.demand.locations, repro.core, repro.runner; "
    "from repro.experiments import all_experiment_ids; all_experiment_ids()"
)


def measure_setup() -> float:
    """Median wall of a fresh interpreter importing the pipeline."""
    walls = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", _IMPORT_PROGRAM], check=True)
        walls.append(time.perf_counter() - start)
    return median(walls)


def one_pass(args, outcome: Outcome, tracer=None):
    """Run the pipeline once; returns (wall seconds, sweep reports, root).

    Every stage and answer is counted in ``outcome``; the checks run after
    the clock stops.
    """
    from repro.core.model import StarlinkDivideModel
    from repro.demand import SyntheticMapConfig, generate_national_map
    from repro.demand.locations import bin_table, explode_cells_table
    from repro.experiments import all_experiment_ids, run_experiment
    from repro.runner import ParameterGrid, SweepRunner

    def span(name, **attrs):
        return tracer.span(name, **attrs) if tracer else nullcontext({})

    started = time.perf_counter()
    with span("bench.paper-res6") as root:
        with span("demand.map"):
            if args.toy:
                dataset = generate_national_map(
                    SyntheticMapConfig(seed=args.seed)
                ).subset_bbox(*TOY_BBOX)
            else:
                dataset = generate_national_map(
                    SyntheticMapConfig.at_resolution(RESOLUTION, seed=args.seed)
                )
        with span("demand.explode") as s:
            table = explode_cells_table(dataset, seed=args.seed)
        if tracer:
            s.attrs["rows"] = len(table)
        with span("demand.bin") as s:
            bins = bin_table(table, dataset.grid_resolution)
        if tracer:
            s.attrs["cells"] = len(bins)
        with span("core.model"):
            model = StarlinkDivideModel(dataset)
        with span("core.findings"):
            model.findings()

        for experiment_id in all_experiment_ids():
            name = f"experiments.{experiment_id}"
            with span(name):
                try:
                    run_experiment(experiment_id, model)
                except Exception as exc:  # counted and named; the pass goes on
                    outcome.op(f"{name}: {type(exc).__name__}: {exc}", False)
                else:
                    outcome.op(name, True)

        reports = []
        for sweep_id in SWEEPS:
            runner = SweepRunner(
                sweep_id,
                ParameterGrid(SWEEP_GRID),
                n_workers=SWEEP_WORKERS,
                start_method="fork",
            )
            with span("runner.sweep", sweep=sweep_id):
                reports.append(runner.run(model=model))
    wall = time.perf_counter() - started

    if args.inject:
        key = next(iter(bins))
        bins[key] = (bins[key][0] + 1, bins[key][1])
    expected = {
        cell.cell: (cell.unserved_locations, cell.underserved_locations)
        for cell in dataset.cells
        if cell.unserved_locations + cell.underserved_locations
    }
    outcome.check(
        "demand.explode rows == dataset locations",
        len(table) == dataset.total_locations,
    )
    outcome.check("demand.bin counts == dataset counts", bins == expected)
    for report in reports:
        for task in report.results:
            label = f"runner.{report.sweep_id}[{task.index}]"
            if task.failed:
                error = task.error or {}
                label += f": {error.get('type')}: {error.get('message')}"
            outcome.op(label, not task.failed)
    return wall, reports, root


def run(args, outcome: Outcome, tracer=None) -> None:
    from repro.experiments import all_experiment_ids

    all_experiment_ids()  # import the experiment modules before timing
    outcome.end_to_end["setup_s"] = measure_setup()

    walls = []
    deadline = time.perf_counter() + args.seconds
    while not walls or time.perf_counter() < deadline:
        walls.append(one_pass(args, outcome)[0])
    pipeline_s = median(walls)
    outcome.end_to_end["work_s"] = pipeline_s
    outcome.end_to_end["peak_rss_mb"] = peak_rss_mb()
    outcome.named["pipeline_s"] = pipeline_s
    outcome.notes["pipeline_walls_s"] = walls

    if tracer:
        layers.instrument_program(tracer)
        before = len(outcome.failures)
        try:
            _, reports, root = one_pass(args, outcome, tracer)
        finally:
            tracer.restore()
        layers.runner_metrics(outcome, tracer, reports, SWEEP_WORKERS)
        layers.finish_trace(
            outcome, tracer, root, pipeline_s, outcome.failures[before:]
        )
