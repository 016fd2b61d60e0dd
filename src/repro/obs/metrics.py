"""A process-local registry of counters, gauges, and histograms.

Instruments are created on demand and live for the registry's lifetime::

    from repro.obs import registry

    registry().counter("sim.steps").inc()
    registry().counter("sim.csr.nnz").inc(csr.nnz)
    registry().gauge("sim.cells").set(n_cells)
    registry().histogram("runner.task.wall_s").observe(wall)

Naming convention: dotted, lowercase, ``<layer>.<thing>[.<aspect>]``
(``runner.cache.hits``, ``locations.explode.rows``); units spelled out
as a suffix when not obvious (``_s``, ``_mbps``, ``_bytes``).

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain JSON-ready dicts.
:meth:`MetricsRegistry.diff` subtracts two snapshots and
:meth:`MetricsRegistry.merge` adds one into a live registry — together
they are what makes metrics safe across ``ProcessPoolExecutor``
workers: each worker diffs its registry around a task and ships the
delta home, and merged parent counters equal the serial run's exactly
(counter adds are integer/float sums, so order does not matter).

Disabling the registry (``enabled = False``) turns every ``inc`` /
``set`` / ``observe`` into a single attribute check.

Thread safety: counters and gauges are single-word updates (safe under
the GIL); histograms guard their multi-field update with a lock so a
snapshot taken from another thread (the ``/metrics`` exposition thread,
the live streamer) never sees a torn count/total/min/max/samples state.
Instrument *creation* is also locked, so two threads racing on the
first ``counter(name)`` call cannot clobber each other.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (live imports us)
    from repro.obs.live import RollingHistogram

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: Samples kept per histogram for percentile estimates. Observations
#: past the cap still update count/total/min/max.
HISTOGRAM_SAMPLE_CAP = 4096


class Counter:
    """A monotonically increasing number (int or float)."""

    __slots__ = ("name", "value", "_registry")

    def __init__(self, name: str, registry: "MetricsRegistry"):
        self.name = name
        self.value: float = 0
        self._registry = registry

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (default 1); no-op when the registry is disabled."""
        if self._registry.enabled:
            self.value += amount


class Gauge:
    """A last-write-wins instantaneous value."""

    __slots__ = ("name", "value", "_registry")

    def __init__(self, name: str, registry: "MetricsRegistry"):
        self.name = name
        self.value: Optional[float] = None
        self._registry = registry

    def set(self, value: float) -> None:
        """Record the current value; no-op when the registry is disabled."""
        if self._registry.enabled:
            self.value = value


class Histogram:
    """Count/total/min/max plus a bounded sample reservoir for quantiles.

    Observations are guarded by a per-instrument lock: concurrent serve
    handlers and the metrics-exposition thread may touch the same
    histogram, and the count/total/min/max/samples update must be seen
    atomically (a snapshot mid-``observe`` must never show a count that
    excludes the total, or vice versa).
    """

    __slots__ = (
        "name",
        "count",
        "total",
        "min",
        "max",
        "samples",
        "_registry",
        "_lock",
    )

    def __init__(self, name: str, registry: "MetricsRegistry"):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.samples: List[float] = []
        self._registry = registry
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation; no-op when the registry is disabled."""
        if not self._registry.enabled:
            return
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)
            if len(self.samples) < HISTOGRAM_SAMPLE_CAP:
                self.samples.append(value)

    def quantile(self, q: float) -> Optional[float]:
        """Nearest-rank quantile over the retained samples (None if empty)."""
        with self._lock:
            ordered = sorted(self.samples)
        if not ordered:
            return None
        rank = min(len(ordered) - 1, max(0, int(q * len(ordered))))
        return ordered[rank]

    def stats(self) -> Dict[str, object]:
        """One consistent count/total/min/max/p50/p95 view (for snapshots)."""
        with self._lock:
            count = self.count
            total = self.total
            low = self.min
            high = self.max
            ordered = sorted(self.samples)

        def _rank(q: float) -> Optional[float]:
            if not ordered:
                return None
            return ordered[min(len(ordered) - 1, max(0, int(q * len(ordered))))]

        return {
            "count": count,
            "total": total,
            "min": low,
            "max": high,
            "p50": _rank(0.50),
            "p95": _rank(0.95),
        }


class MetricsRegistry:
    """All instruments of one process, keyed by name."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._rolling: Dict[str, "RollingHistogram"] = {}
        self._create_lock = threading.Lock()

    # -- instrument accessors (create on first touch) -----------------------

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        instrument = self._counters.get(name)
        if instrument is None:
            with self._create_lock:
                instrument = self._counters.get(name)
                if instrument is None:
                    instrument = self._counters[name] = Counter(name, self)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created on first use."""
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._create_lock:
                instrument = self._gauges.get(name)
                if instrument is None:
                    instrument = self._gauges[name] = Gauge(name, self)
        return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name``, created on first use."""
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._create_lock:
                instrument = self._histograms.get(name)
                if instrument is None:
                    instrument = self._histograms[name] = Histogram(name, self)
        return instrument

    def rolling(
        self,
        name: str,
        window_s: float = 60.0,
        buckets: int = 12,
    ) -> "RollingHistogram":
        """The rolling-window histogram called ``name``, created on first use.

        Rolling histograms live beside — not inside — :meth:`snapshot`:
        they answer "what were the last ``window_s`` seconds like"
        (:meth:`rolling_snapshot`), while the cumulative snapshot keeps
        its exact diff/merge semantics. The window configuration is
        fixed at first creation; later calls return the same instrument.
        """
        instrument = self._rolling.get(name)
        if instrument is None:
            from repro.obs.live import RollingHistogram

            with self._create_lock:
                instrument = self._rolling.get(name)
                if instrument is None:
                    instrument = self._rolling[name] = RollingHistogram(
                        name, window_s=window_s, buckets=buckets, registry=self
                    )
        return instrument

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-ready copy of every instrument's current state."""
        with self._create_lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            histograms = sorted(self._histograms.items())
        hist_stats = {name: hist.stats() for name, hist in histograms}
        return {
            "counters": {name: counter.value for name, counter in counters},
            "gauges": {
                name: gauge.value
                for name, gauge in gauges
                if gauge.value is not None
            },
            "histograms": {
                name: stats
                for name, stats in hist_stats.items()
                if stats["count"]
            },
        }

    def rolling_snapshot(self) -> Dict[str, Dict[str, object]]:
        """Trailing-window stats for every rolling histogram with data.

        Keyed by instrument name; each value is the instrument's
        :meth:`~repro.obs.live.RollingHistogram.stats` dict (count,
        total, min/max, p50/p95/p99, window_s). Kept out of
        :meth:`snapshot` so cumulative diff/merge semantics — and the
        serial-equals-parallel equality they guarantee — are untouched.
        """
        with self._create_lock:
            rolling = sorted(self._rolling.items())
        return {
            name: stats
            for name, stats in ((name, inst.stats()) for name, inst in rolling)
            if stats["count"]
        }

    @staticmethod
    def diff(
        before: Dict[str, Dict[str, object]],
        after: Dict[str, Dict[str, object]],
    ) -> Dict[str, Dict[str, object]]:
        """The delta snapshot ``after - before``.

        Counters and histogram count/total subtract; zero counter deltas
        are dropped. Gauges and histogram min/max/quantiles keep their
        ``after`` values (a gauge has no meaningful difference).
        """
        counters = {}
        for name, value in after.get("counters", {}).items():
            delta = value - before.get("counters", {}).get(name, 0)
            if delta:
                counters[name] = delta
        histograms = {}
        for name, stats in after.get("histograms", {}).items():
            prior = before.get("histograms", {}).get(
                name, {"count": 0, "total": 0.0}
            )
            count = stats["count"] - prior["count"]
            if count:
                histograms[name] = {
                    **stats,
                    "count": count,
                    "total": stats["total"] - prior["total"],
                }
        return {
            "counters": counters,
            "gauges": dict(after.get("gauges", {})),
            "histograms": histograms,
        }

    def merge(self, snapshot: Dict[str, Dict[str, object]]) -> None:
        """Fold a (delta) snapshot into this registry.

        Counter values and histogram count/total add; gauges overwrite;
        histogram min/max combine. Used by the sweep runner to absorb
        worker-side metric deltas, and commutative over counters so the
        merged totals match the serial run regardless of completion
        order.
        """
        if not self.enabled:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).value += value
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).value = value
        for name, stats in snapshot.get("histograms", {}).items():
            hist = self.histogram(name)
            with hist._lock:
                hist.count += stats.get("count", 0)
                hist.total += stats.get("total", 0.0)
                for bound, pick in (("min", min), ("max", max)):
                    incoming = stats.get(bound)
                    if incoming is not None:
                        current = getattr(hist, bound)
                        setattr(
                            hist,
                            bound,
                            incoming
                            if current is None
                            else pick(current, incoming),
                        )

    def reset(self) -> None:
        """Drop every instrument (tests, or between CLI commands)."""
        with self._create_lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._rolling.clear()

    def counter_items(self) -> List[Tuple[str, float]]:
        """Sorted (name, value) counter pairs (for reports)."""
        return sorted(
            (name, counter.value) for name, counter in self._counters.items()
        )

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (
            f"MetricsRegistry({state}, {len(self._counters)} counters, "
            f"{len(self._gauges)} gauges, {len(self._histograms)} histograms)"
        )
