"""Time-series workloads over the step simulator: diurnal demand + churn.

The paper's capacity model is peak-static — one busy-hour snapshot. This
package turns the step engine into a *timeline* workload:

* :class:`DiurnalProfile` — per-county busy-hour demand curves, phased
  by county-seat longitude (local solar time), applied as per-step
  multipliers over the columnar dataset's provisioned demand;
* :class:`HandoverChurnModel` — reconnection penalty windows after
  serving-satellite changes, calibrated to the ~15 s reconnection
  pattern measured in "A Multifaceted Look at Starlink Performance"
  and emulated by LEONetEM;
* :func:`run_timeline` — drives sub-minute steps through the fast
  engine's exact tiled visibility kernel and accumulates per-cell
  capacity/QoE timelines: coverage and served-location fractions per
  step, unserved-hours-per-day, and reconnection-outage minutes.

A flat profile with churn disabled reproduces the static pipeline's
:class:`~repro.sim.metrics.SimulationReport` byte-identically — the
differential the tests and the ``timeline-smoke`` CI job pin.
"""

from repro.timeline.churn import ChurnState, HandoverChurnModel
from repro.timeline.diurnal import (
    PROFILE_NAMES,
    DiurnalProfile,
    get_profile,
)
from repro.timeline.workload import (
    TimelineConfig,
    TimelineResult,
    read_timeline_jsonl,
    run_timeline,
    write_timeline_jsonl,
)

__all__ = [
    "PROFILE_NAMES",
    "ChurnState",
    "DiurnalProfile",
    "HandoverChurnModel",
    "TimelineConfig",
    "TimelineResult",
    "get_profile",
    "read_timeline_jsonl",
    "run_timeline",
    "write_timeline_jsonl",
]
