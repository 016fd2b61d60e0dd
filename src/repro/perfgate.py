"""Performance-regression gate over committed ``BENCH_*.json`` baselines.

CI runs the quick benches, then compares each candidate results file
against the baseline committed at the repo root. Two classes of metric:

* **ratio metrics** (speedups, overhead fractions) are hardware-mostly-
  independent — the gate fails when a candidate ratio regresses by more
  than ``tolerance`` (default 20%) relative to the baseline;
* **identity flags** (``all_identical``, ``reports_identical``,
  ``*_equals_serial``) must never flip from true to false — a bitwise
  mismatch is a correctness regression regardless of speed.

Absolute wall times are *reported* in the delta table but only gated
behind ``--absolute``, because CI machines are not the machines the
baselines were pinned on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError

#: Default allowed relative regression on gated ratio metrics.
DEFAULT_TOLERANCE = 0.2

#: Dotted paths of the ratio metrics each schema gates. Higher is
#: better for every entry (speedups); regressions are drops.
GATED_RATIOS: Dict[str, Tuple[str, ...]] = {
    "repro-bench-simulation/1": (
        "visibility.speedup",
        "assignment.greedy.speedup",
        "assignment.fair.speedup",
        "end_to_end.greedy.speedup",
        "end_to_end.fair.speedup",
        # Per-phase step timings: a slowdown confined to one phase
        # (visibility or assignment) fails the gate even when the
        # end-to-end number still passes. (The impairments phase is
        # absent from the bench configuration and would info-pass.)
        "phases.greedy.visibility.speedup",
        "phases.greedy.assignment.speedup",
        "phases.fair.visibility.speedup",
        "phases.fair.assignment.speedup",
        "headline_speedup",
    ),
    "repro-bench-locations/1": (
        "explode.speedup",
        "bin.speedup",
        "csv_read.speedup",
        "headline_speedup",
    ),
    "repro-bench-sweep/1": (
        "handoff.handoff_speedup",
    ),
}

#: Ratio metrics reported with their delta but never gated: these
#: hover near 1x (the fast path barely wins), so tolerance-sized
#: swings are IO/timing noise, not regressions worth failing CI over.
INFO_RATIOS: Dict[str, Tuple[str, ...]] = {
    "repro-bench-simulation/1": (),
    "repro-bench-locations/1": ("csv_write.speedup",),
    "repro-bench-sweep/1": (),
}

#: Saturation clamps for ratio metrics whose fast side is so cheap the
#: raw ratio is timing noise (a sub-ms attach makes a 800x-vs-1200x
#: swing meaningless). Both sides are clamped to ``min(value, cap)``
#: before the tolerance check, so anything comfortably above the cap
#: passes, while a genuine collapse (attach ~ rebuild) still fails.
RATIO_SATURATION: Dict[str, float] = {
    "handoff.handoff_speedup": 20.0,
    # The quick bin workload finishes in ~1.5ms, so its ~59x quick
    # ratio swings wildly; the full-scale ratio (~3.3x) sits below the
    # cap and is gated unclamped.
    "bin.speedup": 10.0,
    # Quick-scale phase walls are sub-ms; clamp the ratios so runner
    # jitter on the fast side can't flap the gate, while a fast path
    # collapsing toward the reference still fails.
    "phases.greedy.visibility.speedup": 8.0,
    "phases.greedy.assignment.speedup": 8.0,
    "phases.fair.visibility.speedup": 8.0,
    "phases.fair.assignment.speedup": 8.0,
}

#: Dotted paths of boolean identity flags per schema; a true -> false
#: flip always fails the gate.
GATED_IDENTITIES: Dict[str, Tuple[str, ...]] = {
    "repro-bench-simulation/1": (
        "all_reports_identical",
        # A flat-profile timeline must reproduce the static pipeline's
        # report byte-identically.
        "timeline.flat_identical",
    ),
    "repro-bench-locations/1": ("all_identical",),
    "repro-bench-sweep/1": (
        "fork_equals_serial",
        "spawn_equals_serial",
        "all_modes_identical",
    ),
}

#: Wall-time metrics reported (and gated only under ``--absolute``).
REPORTED_WALLS: Dict[str, Tuple[str, ...]] = {
    "repro-bench-simulation/1": (
        "visibility.fast_s",
        "end_to_end.greedy.fast_s",
        "phases.fair.assignment.fast_s",
        "timeline.wall_s",
    ),
    "repro-bench-locations/1": ("explode.fast_s", "bin.fast_s"),
    "repro-bench-sweep/1": (
        "handoff.attach_s",
        "dispatch.serial.wall_s",
        "dispatch.fork.wall_s",
        "dispatch.spawn.wall_s",
    ),
}


@dataclass(frozen=True)
class GateFinding:
    """One compared metric and its verdict."""

    metric: str
    baseline: object
    candidate: object
    delta_fraction: Optional[float]
    gated: bool
    passed: bool

    @property
    def delta_text(self) -> str:
        if self.delta_fraction is None:
            return "-"
        return f"{self.delta_fraction:+.1%}"


def _lookup(results: Dict, dotted: str):
    node = results
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def compare_bench(
    baseline: Dict,
    candidate: Dict,
    tolerance: float = DEFAULT_TOLERANCE,
    absolute: bool = False,
) -> List[GateFinding]:
    """Compare one candidate results dict against its baseline.

    Returns one finding per known metric; ``passed`` is False on a
    gated regression. Raises :class:`ReproError` on schema mismatch.
    """
    schema = baseline.get("schema")
    if schema != candidate.get("schema"):
        raise ReproError(
            f"schema mismatch: baseline {schema!r} vs candidate "
            f"{candidate.get('schema')!r}"
        )
    if schema not in GATED_RATIOS:
        raise ReproError(f"unknown bench schema: {schema!r}")

    findings: List[GateFinding] = []
    for metric in GATED_RATIOS[schema]:
        base = _lookup(baseline, metric)
        cand = _lookup(candidate, metric)
        if base is None or cand is None:
            # A metric missing on either side is a layout change, not a
            # perf regression; surface it without failing the gate.
            findings.append(
                GateFinding(metric, base, cand, None, False, True)
            )
            continue
        delta = (cand - base) / base if base else None
        cap = RATIO_SATURATION.get(metric)
        base_gated = min(base, cap) if cap is not None else base
        cand_gated = min(cand, cap) if cap is not None else cand
        regressed = bool(base_gated) and cand_gated < base_gated * (
            1.0 - tolerance
        )
        findings.append(
            GateFinding(metric, base, cand, delta, True, not regressed)
        )
    for metric in INFO_RATIOS[schema]:
        base = _lookup(baseline, metric)
        cand = _lookup(candidate, metric)
        delta = None
        if base is not None and cand is not None and base:
            delta = (cand - base) / base
        findings.append(GateFinding(metric, base, cand, delta, False, True))
    for metric in GATED_IDENTITIES[schema]:
        base = _lookup(baseline, metric)
        cand = _lookup(candidate, metric)
        flipped = base is True and cand is not True
        findings.append(
            GateFinding(metric, base, cand, None, True, not flipped)
        )
    for metric in REPORTED_WALLS[schema]:
        base = _lookup(baseline, metric)
        cand = _lookup(candidate, metric)
        if base is None or cand is None:
            findings.append(
                GateFinding(metric, base, cand, None, False, True)
            )
            continue
        delta = (cand - base) / base if base else None
        # Walls regress by *growing*; only gated when asked.
        regressed = (
            absolute and bool(base) and cand > base * (1.0 + tolerance)
        )
        findings.append(
            GateFinding(metric, base, cand, delta, absolute, not regressed)
        )
    return findings


def format_gate_table(path_name: str, findings: List[GateFinding]) -> str:
    """The per-metric delta table the CI log shows."""
    from repro.viz.tables import format_table

    def fmt(value) -> str:
        if isinstance(value, bool) or value is None:
            return str(value)
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    rows = [
        (
            finding.metric,
            fmt(finding.baseline),
            fmt(finding.candidate),
            finding.delta_text,
            "gated" if finding.gated else "info",
            "ok" if finding.passed else "FAIL",
        )
        for finding in findings
    ]
    return format_table(
        ("metric", "baseline", "candidate", "delta", "class", "verdict"),
        rows,
        title=f"perf gate: {path_name}",
    )


def load_results(path) -> Dict:
    """Read one bench JSON, with a useful error on junk input."""
    target = Path(path)
    if not target.exists():
        raise ReproError(f"no such bench results file: {target}")
    try:
        results = json.loads(target.read_text())
    except json.JSONDecodeError as exc:
        raise ReproError(f"{target}: not valid JSON ({exc})")
    if not isinstance(results, dict) or "schema" not in results:
        raise ReproError(f"{target}: not a bench results dict")
    return results


def run_gate(
    pairs: List[Tuple[str, str]],
    tolerance: float = DEFAULT_TOLERANCE,
    absolute: bool = False,
) -> Tuple[str, bool]:
    """Gate each (baseline_path, candidate_path) pair.

    Returns the combined report text and whether every gate passed.
    """
    sections = []
    all_passed = True
    for baseline_path, candidate_path in pairs:
        baseline = load_results(baseline_path)
        candidate = load_results(candidate_path)
        findings = compare_bench(
            baseline, candidate, tolerance=tolerance, absolute=absolute
        )
        sections.append(
            format_gate_table(Path(candidate_path).name, findings)
        )
        failed = [f for f in findings if not f.passed]
        if failed:
            all_passed = False
            sections.append(
                "FAILED: "
                + ", ".join(f.metric for f in failed)
                + f" (tolerance {tolerance:.0%})"
            )
    return "\n\n".join(sections), all_passed
