"""The benchmark's own tracer: in-memory spans around calls into each layer.

A span has a name, a start, an end and the span that caused it (its
parent); every span of one workload run carries that run's id. Spans are
kept in memory and written out as JSON lines when the run ends.

Spans come from two places, both owned by the benchmark:

* the benchmark's own calls into the program (``with tracer.span(...)``);
* methods of program classes wrapped for the duration of a traced run
  (:meth:`Tracer.instrument`), so calls the program makes internally --
  a simulation step inside ``run_timeline``, say -- get a span too. The
  wrappers are removed again by :meth:`Tracer.restore`; an untraced run
  never installs them.

The first dotted component of a span name is its layer. A layer's self
time is the sum of its spans' self times: a span's duration minus the
part of it covered by its child spans. Self times of all spans under a
root add up to the root's duration, so the layers plus the time spent in
no layer (the benchmark's own spans) account for the traced wall time.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Program layers, named after the ``repro`` packages, plus the benchmark's
#: own load generator. Spans named under any other prefix count as time
#: not attributed to a layer.
LAYERS = (
    "demand",
    "core",
    "experiments",
    "runner",
    "sim",
    "timeline",
    "serve",
    "loadgen",
)


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> Optional[str]:
        head = self.name.split(".", 1)[0]
        return head if head in LAYERS else None


class Tracer:
    """Span recorder for one workload run (single-threaded use)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    # -- recording --------------------------------------------------------

    def begin(self, name: str, **attrs) -> Span:
        """Open a span (child of the innermost open span); see :meth:`end`."""
        span = Span(
            id=len(self.spans),
            parent=self._stack[-1] if self._stack else None,
            name=name,
            start=time.perf_counter(),
            attrs=dict(attrs),
        )
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.remove(span.id)

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        span = self.begin(name, **attrs)
        try:
            yield span
        finally:
            self.end(span)

    def in_span(self, name: str) -> bool:
        """Whether a span called ``name`` is open on the current stack."""
        return any(self.spans[i].name == name for i in self._stack)

    def export(self) -> List[Tuple]:
        """Picklable span records, for shipping from a child process."""
        return [
            (s.name, s.start, s.end, s.parent, s.attrs) for s in self.spans
        ]

    def adopt(self, records: Sequence[Tuple], parents: Sequence[int]) -> None:
        """Add spans recorded by another process (same monotonic clock).

        Their top-level spans are parented to whichever span in
        ``parents`` contains their start, else to ``parents[0]``.
        """
        offset = len(self.spans)
        for name, start, end, parent, attrs in records:
            if parent is None:
                parent = next(
                    (
                        p
                        for p in parents
                        if self.spans[p].start <= start <= self.spans[p].end
                    ),
                    parents[0],
                )
            else:
                parent += offset
            self.spans.append(
                Span(len(self.spans), parent, name, start, end, dict(attrs))
            )

    # -- wrapping program methods ----------------------------------------

    def instrument(
        self,
        owner: type,
        attr: str,
        name,
        attrs_of: Optional[Callable[[object], Dict]] = None,
    ) -> None:
        """Wrap ``owner.attr`` in a span until :meth:`restore`.

        ``name`` is a span name or a callable returning one (evaluated
        per call against this tracer); ``attrs_of`` maps the call's
        result to span attributes.
        """
        raw = owner.__dict__[attr]
        binder = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        function = raw.__func__ if binder else raw
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span_name = name(tracer) if callable(name) else name
            with tracer.span(span_name) as span:
                result = function(*args, **kwargs)
                if attrs_of is not None:
                    span.attrs.update(attrs_of(result))
                return result

        self.patch(owner, attr, binder(wrapper) if binder else wrapper)

    def patch(self, owner: type, attr: str, replacement) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        original = owner.__dict__[attr]
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, original))

    def restore(self) -> None:
        """Remove every wrapper :meth:`instrument` installed."""
        while self._undo:
            self._undo.pop()()

    # -- analysis ---------------------------------------------------------

    def children(self) -> Dict[int, List[Span]]:
        kids: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                kids.setdefault(span.parent, []).append(span)
        return kids

    def self_times(self) -> List[float]:
        """Per-span duration minus the union of its children's intervals."""
        kids = self.children()
        out = []
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(kids.get(span.id, ()), key=lambda c: c.start):
                lo = max(child.start, cursor)
                hi = min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(span.duration - covered)
        return out

    def subtree(self, root: int) -> List[int]:
        kids = self.children()
        ids, frontier = [], [root]
        while frontier:
            current = frontier.pop()
            ids.append(current)
            frontier.extend(c.id for c in kids.get(current, ()))
        return ids

    def partition(self, root: int) -> Dict[str, float]:
        """Self time per layer under ``root``, plus ``unattributed``."""
        self_times = self.self_times()
        totals = {layer: 0.0 for layer in LAYERS}
        totals["unattributed"] = 0.0
        for span_id in self.subtree(root):
            layer = self.spans[span_id].layer or "unattributed"
            totals[layer] += self_times[span_id]
        return totals

    def total(self, name: str) -> float:
        """Summed duration of ``name`` spans, counting a span nested
        directly in another of the same name once."""
        spans = self.spans
        return sum(
            s.duration
            for s in spans
            if s.name == name
            and (s.parent is None or spans[s.parent].name != name)
        )

    def self_total(self, name: str) -> float:
        self_times = self.self_times()
        return sum(self_times[s.id] for s in self.spans if s.name == name)

    def durations(self, name: str) -> List[float]:
        return [s.duration for s in self.spans if s.name == name]

    def attr_sum(self, name: str, key: str) -> float:
        return sum(
            float(s.attrs.get(key, 0)) for s in self.spans if s.name == name
        )

    def write(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": span.id,
                            "parent": span.parent,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            **span.attrs,
                        }
                    )
                    + "\n"
                )
        return path
