"""National benchmark of the Starlink digital-divide reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-res6 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one table

``--trace 0`` measures the end-to-end metrics with the benchmark's tracing
off; ``--trace 1`` measures the same work untraced and then traced, and
reports the per-layer metrics, the time attributed to no layer and the
tracing overhead. The metric names and units come from ``BENCHMARK.json``;
``perfbench/DESIGN.md`` says what each means on each workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The host record,
the failures by name and every measurement are written to
``.perfbench/results/``; a traced run writes its spans to
``.perfbench/spans/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from common import (
    OUT_DIR,
    ROOT,
    Outcome,
    host_record,
    import_program,
    stop_children,
)

MANIFEST = ROOT / "BENCHMARK.json"


def _load_manifest():
    with open(MANIFEST) as handle:
        return json.load(handle)


def _workload_module(name: str):
    if name == "paper-res6":
        import paper

        return paper
    if name.startswith("timeline-"):
        import timelines

        return timelines
    import serving

    return serving


def _metrics(manifest, outcome: Outcome, trace: bool):
    if not trace:
        return {
            m["name"]: {"value": outcome.end_to_end[m["name"]], "unit": m["unit"]}
            for m in manifest["end_to_end"]
        }
    values = {**outcome.named, **outcome.per_layer}
    values["error_rate"] = outcome.error_rate
    metrics = {}
    for m in manifest["per_layer"]:
        metrics[m["name"]] = {
            "value": float(values.get(m["name"], 0.0)),
            "unit": m["unit"],
        }
    return metrics


def run_one(args) -> int:
    from tracing import Tracer

    manifest = _load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    if args.workload not in names:
        sys.stderr.write(f"unknown workload {args.workload!r}; known: {names}\n")
        return 2
    host = host_record(args.seed)
    run_id = f"{args.workload}-s{args.seed}-{os.getpid()}-{time.time_ns()}"
    tracer = Tracer(run_id) if args.trace else None
    outcome = Outcome()
    _workload_module(args.workload).run(args, outcome, tracer)
    host["loadavg_end"] = list(os.getloadavg())

    metrics = _metrics(manifest, outcome, bool(args.trace))
    result = {
        "correct": outcome.wrong_answers == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    record = {
        "run": run_id,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "host": host,
        "failures": outcome.failures,
        "error_rate": outcome.error_rate,
        "end_to_end": outcome.end_to_end,
        "named": outcome.named,
        "per_layer": outcome.per_layer,
        "notes": outcome.notes,
        "result": result,
    }
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    if tracer:
        tracer.write(OUT_DIR / "spans" / f"{run_id}.jsonl")
    print(json.dumps({"host": host, "failures": sorted(set(outcome.failures))}))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one table by metric name."""
    manifest = _load_manifest()
    units = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    units.update({m["name"]: m["unit"] for m in manifest["per_layer"]})
    status = 0
    for workload in manifest["workloads"]:
        name = workload["name"]
        command = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", "0",
        ]
        if args.toy:
            command.append("--toy")
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            print(f"{name}: exit {done.returncode}")
            status = 1
            continue
        record = json.loads(
            (OUT_DIR / "results" / f"{name}-s{args.seed}-t0.json").read_text()
        )
        result = record["result"]
        print(
            f"{name}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']} error_rate={record['error_rate']:.4f}"
        )
        for failure in sorted(set(record["failures"])):
            print(f"  failed: {failure}")
        for key, value in {**record["end_to_end"], **record["named"]}.items():
            print(f"  {key:24s} {value:14.4f} {units.get(key, '')}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--toy",
        action="store_true",
        help="restrict every workload to the Appalachian region (smoke test)",
    )
    parser.add_argument(
        "--inject",
        action="store_true",
        help="corrupt one program answer before it is checked (smoke test)",
    )
    args = parser.parse_args(argv)
    import_program()
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
