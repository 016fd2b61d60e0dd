"""Beam-to-cell assignment strategies.

Each simulation step produces a visibility relation (which satellites can
serve which cells) and the strategy decides where every satellite points
its beams. Two strategies are provided:

* :class:`GreedyDemandFirst` — serve the hungriest cells first, pinning as
  many beams as their provisioned demand needs (the paper's peak-cell
  picture).
* :class:`ProportionalFair` — one beam per cell first (coverage before
  capacity), then distribute leftover beams by remaining demand.

Both run on the packed bit rows of
:class:`~repro.sim.visibility_index.CSRVisibility` with integer bit
operations. A cell's row is a Python int over the step's in-view
satellites, and the free beams live in nested *level masks*:
``masks[L]`` holds the satellites with at least ``L`` free beams. The
best candidate of a cell -- most free beams, ties to the lowest
satellite id -- is the lowest set bit of ``row & masks[L]`` for the
highest ``L`` that leaves it non-zero, found by binary search over the
levels. A grant that takes a satellite from ``L`` to ``r`` free beams
clears its bit from levels ``r + 1 .. L``, and a cell is dead (every
candidate drained) exactly when ``row & masks[1] == 0``. Beams only
decrease, so a dead cell stays dead: the kernels walk their cell order
in blocks, drop a block's dead cells with one vectorized AND against
``masks[1]``, and re-check each survivor exactly. The ProportionalFair
leftover pass pops a lazy max-heap with stale-entry skipping instead of
an ``np.argmax`` per grant, preserving the argmax tie-break (equal
unmet demand -> lowest cell id) via the heap's (key, cell) ordering.

A row is a set: the kernels see each cell's satellites in ascending
id, whatever order a list-of-arrays input gave them. They are
outcome-identical to the original interpreted loops on ascending rows;
those loops are retained verbatim in :mod:`repro.sim.slow_reference`
for differential testing.
"""

from __future__ import annotations

import abc
import heapq
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.sim.visibility_index import CSRVisibility
from repro.spectrum.beams import BeamPlan


@dataclass
class AssignmentOutcome:
    """Result of one step's beam assignment.

    ``allocated_mbps[i]`` is the capacity delivered to cell ``i``, clamped
    to the cell's provisioned demand; ``capacity_pointed_mbps[i]`` the raw
    beam capacity pointed at the cell (>= allocated, since a cell whose
    demand is below one beam still consumes a whole beam);
    ``beams_used[j]`` the number of beams satellite ``j`` spent;
    ``covered[i]`` whether cell ``i`` received at least one beam;
    ``serving_satellite[i]`` the primary satellite pointing at cell ``i``
    (-1 when uncovered) — the quantity whose step-to-step churn measures
    beam handovers.
    """

    allocated_mbps: np.ndarray
    beams_used: np.ndarray
    covered: np.ndarray
    serving_satellite: Optional[np.ndarray] = None
    capacity_pointed_mbps: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.serving_satellite is None:
            self.serving_satellite = np.full(
                self.covered.shape[0], -1, dtype=int
            )
        if self.capacity_pointed_mbps is None:
            self.capacity_pointed_mbps = self.allocated_mbps.copy()

    @property
    def cells_covered(self) -> int:
        return int(np.count_nonzero(self.covered))

    @property
    def total_allocated_mbps(self) -> float:
        return float(self.allocated_mbps.sum())


class BeamAssignmentStrategy(abc.ABC):
    """Interface: assign satellite beams to demand cells for one step."""

    @abc.abstractmethod
    def assign(
        self,
        visible: List[np.ndarray],
        demands_mbps: np.ndarray,
        satellite_count: int,
        plan: BeamPlan,
    ) -> AssignmentOutcome:
        """Assign beams.

        Parameters
        ----------
        visible:
            Per-cell arrays of visible satellite indices.
        demands_mbps:
            Per-cell provisioned demand (already oversubscribed).
        satellite_count:
            Number of satellites in the constellation snapshot.
        plan:
            Beam counts and capacities.
        """

    def assign_csr(
        self,
        visibility: CSRVisibility,
        demands_mbps: np.ndarray,
        plan: BeamPlan,
    ) -> AssignmentOutcome:
        """Assign beams from a packed visibility relation.

        Strategies with a packed kernel override this; the default
        adapts back to the per-cell list API so legacy strategies keep
        working inside the fast simulation path.
        """
        return self.assign(
            visibility.to_lists(),
            demands_mbps,
            visibility.n_satellites,
            plan,
        )

    @staticmethod
    def _check_inputs(
        visible: List[np.ndarray], demands_mbps: np.ndarray
    ) -> None:
        if len(visible) != demands_mbps.shape[0]:
            raise SimulationError(
                "visibility list and demand vector are misaligned"
            )
        if np.any(demands_mbps < 0.0):
            raise SimulationError("negative cell demand")

    @staticmethod
    def _check_csr(
        visibility: CSRVisibility, demands_mbps: np.ndarray
    ) -> None:
        if visibility.n_cells != demands_mbps.shape[0]:
            raise SimulationError(
                "visibility relation and demand vector are misaligned"
            )
        if np.any(demands_mbps < 0.0):
            raise SimulationError("negative cell demand")


def _beams_needed(demands_mbps: np.ndarray, plan: BeamPlan) -> np.ndarray:
    """Per-cell beam requirement, computed in bulk."""
    needed = np.ceil(demands_mbps / plan.beam_capacity_mbps).astype(np.int64)
    return np.minimum(np.maximum(needed, 1), plan.max_beams_per_cell)


#: Cells per liveness block: before walking a block of cells, one
#: vectorized AND of their rows against the live-satellite mask drops
#: the cells whose every candidate has drained.
_LIVE_BLOCK = 256


def _level_masks(visibility: CSRVisibility, budget: int) -> List[int]:
    """Free-beam level masks over the relation's columns.

    ``masks[level]`` (``1 <= level <= budget``) has bit ``k`` set while
    satellite ``columns[k]`` has at least ``level`` free beams; every
    satellite starts with ``budget``. ``masks[0]`` is unused.
    """
    return [(1 << visibility.columns.size) - 1] * (budget + 1)


def _live_rows(
    visibility: CSRVisibility, order: np.ndarray, masks: List[int]
) -> Iterator[Tuple[int, int]]:
    """``(cell, row)`` along ``order`` for cells that may still be served.

    A row is the cell's packed candidates as a Python int. Each block of
    :data:`_LIVE_BLOCK` cells is ANDed, vectorized, against ``masks[1]``
    as it stands when the block starts; a cell dead then stays dead
    (free beams only fall), so dropping it is exact. A yielded cell may
    have died since the block started: the caller re-checks exactly.
    """
    bits = visibility.bits
    row_bytes = bits.shape[1]
    data = bits.tobytes()
    words = bits.view(np.uint64)
    for lo in range(0, order.size, _LIVE_BLOCK):
        block = order[lo : lo + _LIVE_BLOCK]
        live = np.frombuffer(
            masks[1].to_bytes(row_bytes, "little"), dtype=np.uint64
        )
        for cell in block[(words[block] & live).any(axis=1)].tolist():
            start = cell * row_bytes
            yield cell, int.from_bytes(data[start : start + row_bytes], "little")


def _best_candidate(live: int, masks: List[int], top: int) -> Tuple[int, int]:
    """``(level, bit)`` of the best candidate among ``live`` (non-zero).

    ``level`` is the most free beams any candidate has: the highest
    level mask ``live`` meets, found by binary search (the masks nest).
    ``bit`` is the lowest candidate at that level, so ties go to the
    lowest satellite id -- the first in an ascending row.
    """
    if live & masks[top]:
        level = top
    else:
        level, high = 1, top - 1
        while level < high:
            middle = (level + high + 1) >> 1
            if live & masks[middle]:
                level = middle
            else:
                high = middle - 1
    best = live & masks[level]
    return level, best & -best


class GreedyDemandFirst(BeamAssignmentStrategy):
    """Hungriest cells claim beams first, up to their full need."""

    def assign(
        self,
        visible: List[np.ndarray],
        demands_mbps: np.ndarray,
        satellite_count: int,
        plan: BeamPlan,
    ) -> AssignmentOutcome:
        self._check_inputs(visible, demands_mbps)
        return self.assign_csr(
            CSRVisibility.from_lists(visible, satellite_count),
            demands_mbps,
            plan,
        )

    def assign_csr(
        self,
        visibility: CSRVisibility,
        demands_mbps: np.ndarray,
        plan: BeamPlan,
    ) -> AssignmentOutcome:
        self._check_csr(visibility, demands_mbps)
        n_cells = demands_mbps.shape[0]
        budget = plan.beams_per_satellite
        masks = _level_masks(visibility, budget)
        serving = [-1] * n_cells
        granted = [0] * n_cells
        if budget > 0:
            order = np.argsort(-demands_mbps, kind="stable")
            needed = _beams_needed(demands_mbps, plan).tolist()
            for cell, row in _live_rows(visibility, order, masks):
                live = row & masks[1]
                if not live:
                    continue
                need = needed[cell]
                got = 0
                # Take from the candidate with the most free beams until
                # the need is met: each take either drains the satellite
                # or finishes the cell.
                while True:
                    level, bit = _best_candidate(live, masks, budget)
                    take = need - got
                    if take > level:
                        take = level
                    for cleared in range(level - take + 1, level + 1):
                        masks[cleared] ^= bit
                    if not got:
                        serving[cell] = bit.bit_length() - 1
                    got += take
                    if got == need:
                        break
                    live = row & masks[1]
                    if not live:
                        break
                granted[cell] = got
        return _packed_outcome(
            visibility, granted, serving, masks, demands_mbps, plan
        )


class ProportionalFair(BeamAssignmentStrategy):
    """Coverage first (one beam per cell), then demand-weighted extras."""

    def assign(
        self,
        visible: List[np.ndarray],
        demands_mbps: np.ndarray,
        satellite_count: int,
        plan: BeamPlan,
    ) -> AssignmentOutcome:
        self._check_inputs(visible, demands_mbps)
        return self.assign_csr(
            CSRVisibility.from_lists(visible, satellite_count),
            demands_mbps,
            plan,
        )

    def assign_csr(
        self,
        visibility: CSRVisibility,
        demands_mbps: np.ndarray,
        plan: BeamPlan,
    ) -> AssignmentOutcome:
        self._check_csr(visibility, demands_mbps)
        n_cells = demands_mbps.shape[0]
        budget = plan.beams_per_satellite
        capacity = plan.beam_capacity_mbps
        max_beams = plan.max_beams_per_cell
        masks = _level_masks(visibility, budget)
        granted = [0] * n_cells
        serving = [-1] * n_cells
        rows = {}  # covered cell -> its packed row, for pass 2

        # Pass 1: coverage, scarcest cells (fewest visible satellites)
        # first so footprint-edge cells claim their few candidates before
        # interior cells drain them.
        if budget > 0:
            scarcity = np.argsort(visibility.counts(), kind="stable")
            for cell, row in _live_rows(visibility, scarcity, masks):
                live = row & masks[1]
                if not live:
                    continue
                level, bit = _best_candidate(live, masks, budget)
                masks[level] ^= bit
                serving[cell] = bit.bit_length() - 1
                granted[cell] = 1
                rows[cell] = row

        # Pass 2: capacity. Repeatedly grant a beam to the cell with the
        # largest unmet demand; a cell leaves the pool when satisfied, at
        # its per-cell beam cap, or blocked (visible satellites drained).
        # A lazy max-heap replaces the per-grant np.argmax over all
        # cells: ``entitled`` maps still-eligible cells to their unmet
        # demand, and heap entries that no longer match it are stale
        # (each grant strictly shrinks a cell's unmet demand, so a stale
        # entry is always the older, larger value and pops first).
        # Ordering (-unmet, cell) reproduces argmax's tie-break: equal
        # unmet demand resolves to the lowest cell id.
        covered = np.zeros(n_cells, dtype=bool)
        covered[np.fromiter(rows, dtype=np.int64, count=len(rows))] = True
        unmet = demands_mbps - covered * capacity  # one beam per covered cell
        eligible = covered & (unmet > 0.0) & (max_beams > 1)
        entitled = {}
        heap = []
        for cell in np.flatnonzero(eligible).tolist():
            value = float(unmet[cell])
            entitled[cell] = value
            heap.append((-value, cell))
        heapq.heapify(heap)
        while heap:
            negated, cell = heapq.heappop(heap)
            if entitled.get(cell) != -negated:
                continue  # stale: superseded by a later grant
            live = rows[cell] & masks[1]
            if not live:
                del entitled[cell]
                continue
            level, bit = _best_candidate(live, masks, budget)
            masks[level] ^= bit
            granted[cell] += 1
            beams_now = granted[cell]
            value = float(demands_mbps[cell]) - beams_now * capacity
            if value > 0.0 and beams_now < max_beams:
                entitled[cell] = value
                heapq.heappush(heap, (-value, cell))
            else:
                del entitled[cell]
        return _packed_outcome(
            visibility, granted, serving, masks, demands_mbps, plan
        )


def _packed_outcome(
    visibility: CSRVisibility,
    granted: List[int],
    serving_columns: List[int],
    masks: List[int],
    demands_mbps: np.ndarray,
    plan: BeamPlan,
) -> AssignmentOutcome:
    """The outcome of a packed kernel, in global satellite ids.

    A satellite's free beams are the number of level masks holding it;
    ``serving_columns`` are column positions (-1 when uncovered).
    """
    columns = visibility.columns
    free = np.full(visibility.n_satellites, plan.beams_per_satellite, dtype=int)
    if len(masks) > 1 and columns.size:
        row_bytes = visibility.bits.shape[1]
        levels = np.frombuffer(
            b"".join(mask.to_bytes(row_bytes, "little") for mask in masks[1:]),
            dtype=np.uint8,
        ).reshape(len(masks) - 1, row_bytes)
        free[columns] = np.unpackbits(
            levels, axis=1, count=columns.size, bitorder="little"
        ).sum(axis=0)
    serving = np.array(serving_columns, dtype=int)
    served = serving >= 0
    serving[served] = columns[serving[served]]
    return _finish_outcome(
        np.array(granted, dtype=np.int64), serving, free, demands_mbps, plan
    )


def _finish_outcome(
    granted: np.ndarray,
    serving: np.ndarray,
    free_beams: np.ndarray,
    demands_mbps: np.ndarray,
    plan: BeamPlan,
) -> AssignmentOutcome:
    """Assemble the outcome arrays from per-cell grants (bulk ops)."""
    pointed = granted * plan.beam_capacity_mbps
    return AssignmentOutcome(
        allocated_mbps=np.minimum(pointed, demands_mbps),
        beams_used=plan.beams_per_satellite - free_beams,
        covered=granted > 0,
        serving_satellite=serving,
        capacity_pointed_mbps=pointed,
    )


class StickyGreedy(GreedyDemandFirst):
    """Greedy demand-first with serving-satellite stickiness.

    Remembers each cell's serving satellite from the previous step and
    keeps it while it remains visible with enough free beams — modeling a
    scheduler that avoids needless beam handovers. Stateful across steps:
    use one instance per simulation run.
    """

    def __init__(self) -> None:
        self._previous: Optional[np.ndarray] = None

    def assign(
        self,
        visible: List[np.ndarray],
        demands_mbps: np.ndarray,
        satellite_count: int,
        plan: BeamPlan,
    ) -> AssignmentOutcome:
        self._check_inputs(visible, demands_mbps)
        if self._previous is not None and self._previous.shape[0] != (
            demands_mbps.shape[0]
        ):
            raise SimulationError("sticky state misaligned with cell count")
        # Re-order each cell's candidate list to put last step's serving
        # satellite first, then delegate to the greedy pass.
        if self._previous is None:
            reordered = visible
        else:
            reordered = []
            for cell, sats in enumerate(visible):
                previous = self._previous[cell]
                if previous >= 0 and previous in sats:
                    rest = sats[sats != previous]
                    reordered.append(
                        np.concatenate(([previous], rest)).astype(int)
                    )
                else:
                    reordered.append(sats)
        outcome = self._assign_prefer_first(
            reordered, demands_mbps, satellite_count, plan
        )
        self._previous = outcome.serving_satellite.copy()
        return outcome

    def assign_csr(
        self,
        visibility: CSRVisibility,
        demands_mbps: np.ndarray,
        plan: BeamPlan,
    ) -> AssignmentOutcome:
        return self.assign(
            visibility.to_lists(),
            demands_mbps,
            visibility.n_satellites,
            plan,
        )

    def _assign_prefer_first(
        self,
        visible: List[np.ndarray],
        demands_mbps: np.ndarray,
        satellite_count: int,
        plan: BeamPlan,
    ) -> AssignmentOutcome:
        """Greedy pass that honours each cell's candidate ordering."""
        n_cells = demands_mbps.shape[0]
        free_beams = np.full(satellite_count, plan.beams_per_satellite, dtype=int)
        granted = np.zeros(n_cells, dtype=np.int64)
        serving = np.full(n_cells, -1, dtype=int)
        order = np.argsort(-demands_mbps, kind="stable")
        needed_all = _beams_needed(demands_mbps, plan)
        for cell in order:
            sats = visible[cell]
            if sats.size == 0:
                continue
            needed = needed_all[cell]
            got = 0
            for sat in sats:  # candidate order IS the preference order
                take = min(needed - got, int(free_beams[sat]))
                if take <= 0:
                    continue
                free_beams[sat] -= take
                if got == 0:
                    serving[cell] = int(sat)
                got += take
                if got == needed:
                    break
            granted[cell] = got
        return _finish_outcome(
            granted, serving, free_beams, demands_mbps, plan
        )
