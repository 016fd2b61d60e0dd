"""Compact visibility relation and the precomputed index that builds it.

* :class:`CSRVisibility` stores the relation "which satellites can serve
  which cells right now" in CSR form — one flat ``indices`` array of
  satellite ids plus an ``indptr`` offset array — so strategies,
  impairments, and metrics can operate on it with bulk NumPy ops.
  ``to_lists()`` adapts back to the legacy list-of-arrays API.
* :class:`VisibilityIndex` precomputes everything that does not change
  between steps: the (static, Earth-fixed) demand cells split into
  spatially compact tiles, and each shell's epoch ECI geometry. Per
  step, satellite positions are a *rotation* of the cached epoch
  geometry (circular orbits: ``pos(t) = cos(nt) pos0 + sin(nt) tan0``,
  then one Earth-spin matrix).

Two per-step modes produce bit-identical relations:

* **exact** (``window=1`` and ``"auto"``; ``last_query_stats["mode"]``
  reads ``"rebuild"``) — a tiled kernel. Satellites are culled against
  the sphere bounding all cells, then (tile, satellite) pairs against
  ``tile_radius + chord``; a satellite within ``chord - tile_radius`` of
  a tile's center sees the whole tile, and every other surviving pair is
  tested cell by cell with the squared-chord predicate cKDTree applies.
  Each tile's boolean block is written straight into cell-order CSR
  with satellite ids ascending: no KD-tree query, pair grouping or sort
  runs in the step.
* **cached** (an int ``window=K > 1``) — once per window of K steps, a
  single *inflated* KD-tree range query (``chord + max displacement over
  the half-window``) collects a candidate superset; each step inside the
  window refines the cached (cell, satellite) pairs with the same exact
  chord test and compresses the survivors into CSR. The inflation radius
  is a strict bound on satellite motion (circular orbits at fixed
  radius: ``|v| <= a * (n + omega_earth)``), so the candidate set
  provably contains every true pair for every time in the window.

Both modes apply exactly cKDTree's predicate (per-axis ``(cell - sat)**2``
accumulated x, y, z, compared ``<= chord**2``), so they agree bit for bit
with each other and with the reference engine (differentially tested).
Measured at national scale the exact kernel beats every window length at
1–30 s steps, so ``"auto"`` resolves to it.

Gateway (bent-pipe) eligibility is a boolean ndarray mask from a ball
query against a small precomputed gateway KD-tree (not a dense
satellites x gateways distance matrix); ineligible satellites are
dropped before any culling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from repro.errors import SimulationError
from repro.orbits.kepler import ecef_to_latlon, gmst_rad
from repro.orbits.walker import WalkerDelta
from repro.units import EARTH_ROTATION_RAD_S


@dataclass(frozen=True)
class CSRVisibility:
    """A cell -> visible-satellites relation in CSR form.

    ``indices[indptr[c]:indptr[c + 1]]`` are the satellite ids visible
    from cell ``c``, in ascending order when produced by
    :class:`VisibilityIndex` (matching the legacy per-cell arrays).
    """

    indptr: np.ndarray
    indices: np.ndarray
    n_satellites: int

    def __post_init__(self) -> None:
        if self.indptr.ndim != 1 or self.indptr[0] != 0:
            raise SimulationError("malformed CSR indptr")
        if self.indptr[-1] != self.indices.shape[0]:
            raise SimulationError("CSR indptr does not span indices")

    @property
    def n_cells(self) -> int:
        return self.indptr.shape[0] - 1

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    def cell(self, cell_index: int) -> np.ndarray:
        """Satellite ids visible from one cell (a view, do not mutate)."""
        return self.indices[self.indptr[cell_index] : self.indptr[cell_index + 1]]

    def counts(self) -> np.ndarray:
        """Visible-satellite count per cell."""
        return np.diff(self.indptr)

    def to_lists(self) -> List[np.ndarray]:
        """Legacy list-of-arrays view (views into ``indices``)."""
        return np.split(self.indices, self.indptr[1:-1])

    @classmethod
    def from_lists(
        cls, visible: Sequence[np.ndarray], n_satellites: int
    ) -> "CSRVisibility":
        """Pack per-cell index arrays into CSR, preserving per-cell order."""
        counts = np.fromiter(
            (len(v) for v in visible), dtype=np.int64, count=len(visible)
        )
        indptr = np.zeros(len(visible) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        if indptr[-1] == 0:
            indices = np.empty(0, dtype=np.int64)
        else:
            indices = np.concatenate(
                [np.asarray(v, dtype=np.int64) for v in visible if len(v)]
            )
        return cls(indptr=indptr, indices=indices, n_satellites=n_satellites)

    def filter_satellites(self, keep: np.ndarray) -> "CSRVisibility":
        """Drop satellites where ``keep`` is False (vectorized)."""
        if keep.shape != (self.n_satellites,):
            raise SimulationError("satellite keep-mask misshapen")
        mask = keep[self.indices]
        cell_ids = np.repeat(np.arange(self.n_cells, dtype=np.int64), self.counts())
        indptr = np.zeros(self.n_cells + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(cell_ids[mask], minlength=self.n_cells), out=indptr[1:]
        )
        return CSRVisibility(
            indptr=indptr,
            indices=self.indices[mask],
            n_satellites=self.n_satellites,
        )


def group_pairs(
    cells: np.ndarray,
    sats: np.ndarray,
    n_cells: int,
    n_satellites: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Group flat (cell, satellite) pairs into CSR in O(nnz).

    Returns ``(indptr, order)`` such that ``sats[order]`` is grouped by
    cell with satellite ids ascending inside each cell — the order the
    per-shell KD-tree rebuild produces per cell.

    This replaces ``np.argsort(cells * n_satellites + sats)``: the fused
    key is O(nnz log nnz) and overflows int64 once
    ``n_cells * n_satellites`` passes 2**63 (well within reach of a
    mega-constellation over a fine grid). A counting sort needs neither:
    scipy's compiled COO->CSR conversion is exactly a bincount
    prefix-sum scatter over the cell ids followed by an in-row index
    sort, so we ride it with the pair permutation as the payload.
    """
    nnz = int(cells.shape[0])
    if nnz == 0:
        return np.zeros(n_cells + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
    matrix = sparse.csr_matrix(
        # 1-based so a summed duplicate can never masquerade as a valid
        # permutation entry if the nnz guard were ever wrong.
        (np.arange(1, nnz + 1, dtype=np.int64), (cells, sats)),
        shape=(n_cells, n_satellites),
    )
    if matrix.nnz != nnz:
        # Duplicates are summed by the conversion, shrinking nnz; a
        # duplicate (cell, satellite) pair means a corrupt input.
        raise SimulationError("duplicate (cell, satellite) visibility pair")
    matrix.sort_indices()
    indptr = matrix.indptr.astype(np.int64)
    order = matrix.data - 1
    return indptr, order


#: Cells per tile of the exact kernel. Smaller tiles cull tighter but
#: pay more per-tile NumPy overhead each step; 256 measured fastest at
#: national res 5 (PERFORMANCE.md "The exact kernel").
_TILE_CELLS = 256

#: Slack (km) on every tile-level cull and whole-tile cover decision.
#: Float error in the tile distances is ~1e-12 km, so one metre keeps
#: both decisions strictly conservative: they only choose which pairs
#: get the exact per-pair test, never the answer.
_TILE_MARGIN_KM = 1e-3


def _tile_order(
    points: np.ndarray, tile_cells: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Order points into spatially compact tiles of at most ``tile_cells``.

    A k-d split: each range is cut across its widest axis with one
    ``argpartition`` (no full sort), at a point that keeps the tile
    count per side balanced. Returns ``(order, bounds)``: tile ``t`` is
    ``order[bounds[t]:bounds[t + 1]]``.
    """
    n = points.shape[0]
    axes = np.ascontiguousarray(points.T)  # per-axis rows: fast reductions
    order = np.arange(n, dtype=np.int64)
    starts: List[int] = []
    stack = [(0, n)]
    while stack:
        lo, hi = stack.pop()
        size = hi - lo
        if size <= tile_cells:
            if size:
                starts.append(lo)
            continue
        segment = order[lo:hi]
        coords = np.take(axes, segment, axis=1)
        axis = int(np.argmax(coords.max(axis=1) - coords.min(axis=1)))
        tiles = -(-size // tile_cells)
        split = size * (tiles // 2) // tiles
        order[lo:hi] = segment[np.argpartition(coords[axis], split)]
        stack.append((lo + split, hi))
        stack.append((lo, lo + split))
    return order, np.array(starts + [n], dtype=np.int64)


def _bounding_spheres(
    points: np.ndarray, bounds: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Box-midpoint centers and radii of the point ranges ``bounds``."""
    starts = bounds[:-1]
    centers = 0.5 * (
        np.minimum.reduceat(points, starts, axis=0)
        + np.maximum.reduceat(points, starts, axis=0)
    )
    offsets = points - np.repeat(centers, np.diff(bounds), axis=0)
    radii = np.sqrt(
        np.maximum.reduceat((offsets * offsets).sum(axis=1), starts)
    )
    return centers, radii


class _CellTiles:
    """The static cells in compact tiles, and the exact kernel over them.

    Per step, :meth:`visible` culls satellites against the sphere
    bounding every cell, then (tile, satellite) pairs against
    ``tile_radius + chord``. A satellite within ``chord - tile_radius``
    of a tile's center sees the whole tile; every other surviving pair
    is tested cell by cell with the squared-chord predicate cKDTree
    applies (per-axis ``(cell - sat)**2`` summed x, y, z, then
    ``<= chord**2``). Both tile decisions carry :data:`_TILE_MARGIN_KM`,
    so they only pick which pairs are tested: the relation is the one
    the per-pair predicate gives over all pairs.
    """

    def __init__(self, cell_ecef: np.ndarray, tile_cells: int = _TILE_CELLS):
        self.n_cells = cell_ecef.shape[0]
        self.order, bounds = _tile_order(cell_ecef, tile_cells)
        self.rank = np.empty_like(self.order)
        self.rank[self.order] = np.arange(self.n_cells, dtype=np.int64)
        tiled = cell_ecef[self.order]
        self.axes = tuple(
            np.ascontiguousarray(tiled[:, axis]) for axis in range(3)
        )
        self.spans = list(zip(bounds[:-1].tolist(), bounds[1:].tolist()))
        if self.n_cells:
            self.centers, self.radii = _bounding_spheres(tiled, bounds)
            whole_center, whole_radius = _bounding_spheres(
                tiled, np.array([0, self.n_cells])
            )
            self.whole_center = whole_center[0]
            self.whole_radius = float(whole_radius[0])

    def visible(
        self,
        sat_ecef: np.ndarray,
        sat_ids: np.ndarray,
        chord_km: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, int, int]:
        """CSR ``(indptr, indices)`` of the satellites each cell sees.

        ``sat_ids`` must ascend; rows come out in cell order with
        satellite ids ascending. Also returns how many (cell,
        satellite) pairs the exact test evaluated and how many passed.
        """
        n_cells = self.n_cells
        counts_tiled = np.zeros(n_cells, dtype=np.int64)
        # Per tile with any satellite in reach: (span, satellite ids,
        # satellites x cells hit mask, or None when every cell sees
        # every one of them).
        blocks: List[Tuple[int, int, np.ndarray, Optional[np.ndarray]]] = []
        evaluated = passed = 0
        if n_cells and sat_ids.size:
            # Satellites out of reach of every cell.
            offset = sat_ecef - self.whole_center
            reach = np.sqrt((offset * offset).sum(axis=1))
            keep = reach <= self.whole_radius + chord_km + _TILE_MARGIN_KM
            sat_ids = sat_ids[keep]
            sat_x, sat_y, sat_z = (
                np.ascontiguousarray(sat_ecef[keep, axis]) for axis in range(3)
            )
            chord_km = chord_km[keep]
            chord2_col = (chord_km * chord_km)[:, None]
            # (tile, satellite) center distances, then the two culls.
            centers = self.centers
            delta = centers[:, 0:1] - sat_x
            dist = delta * delta
            delta = centers[:, 1:2] - sat_y
            dist += delta * delta
            delta = centers[:, 2:3] - sat_z
            dist += delta * delta
            np.sqrt(dist, out=dist)
            radii = self.radii[:, None]
            near = dist <= radii + (chord_km + _TILE_MARGIN_KM)
            partial = near & (dist > (chord_km - _TILE_MARGIN_KM) - radii)
            cell_x, cell_y, cell_z = self.axes
            for tile, (lo, hi) in enumerate(self.spans):
                cols = np.flatnonzero(near[tile])
                width = cols.size
                if not width:
                    continue
                tested = partial[tile, cols]
                pick = cols[tested]
                if not pick.size:
                    counts_tiled[lo:hi] = width
                    blocks.append((lo, hi, sat_ids[cols], None))
                    continue
                # Exact test, satellites x cells (cells innermost).
                delta = sat_x[pick, None] - cell_x[lo:hi]
                dist2 = delta * delta
                delta = sat_y[pick, None] - cell_y[lo:hi]
                dist2 += delta * delta
                delta = sat_z[pick, None] - cell_z[lo:hi]
                dist2 += delta * delta
                hits = dist2 <= chord2_col[pick]
                counts = np.add.reduce(hits, axis=0, dtype=np.int64)
                evaluated += hits.size
                passed += int(counts.sum())
                if pick.size < width:
                    counts += width - pick.size
                    block = np.ones((width, hi - lo), dtype=bool)
                    block[tested] = hits
                else:
                    block = hits
                counts_tiled[lo:hi] = counts
                blocks.append((lo, hi, sat_ids[cols], block))
        counts = counts_tiled[self.rank]
        indptr = np.zeros(n_cells + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        # Scatter each tile's rows to their cells' CSR slots; satellite
        # ids ascend within a row because ``cols`` does.
        for lo, hi, sats, block in blocks:
            starts = indptr[self.order[lo:hi]]
            if block is None:
                indices[starts[:, None] + np.arange(sats.size)] = sats
                continue
            row_counts = counts_tiled[lo:hi]
            flat = np.flatnonzero(block.T)  # cell-major hit positions
            row_starts = np.cumsum(row_counts) - row_counts
            slots = np.repeat(starts - row_starts, row_counts)
            slots += np.arange(flat.size)
            indices[slots] = np.take(np.tile(sats, hi - lo), flat)
        return indptr, indices, evaluated, passed


@dataclass(frozen=True)
class _ShellGeometry:
    """Per-shell cached epoch geometry and query radii."""

    pos0: np.ndarray  # (total, 3) ECI positions at epoch
    tan0: np.ndarray  # (total, 3) in-plane tangents at epoch
    mean_motion_rad_s: float
    chord_radius_km: float
    gateway_radius_km: float
    offset: int  # global id of this shell's first satellite
    total: int
    # Strict ECEF speed bound for the inflation radius: orbital motion
    # plus the rotating frame, |v| <= a*n + omega*a.
    max_speed_km_s: float


#: Slack (seconds) added to the window half-span when sizing the
#: inflation radius, so query times that land a few float ulps past the
#: nominal window edge are still provably covered.
_TIME_SLOP_S = 1e-3


class VisibilityIndex:
    """Precomputed geometry answering "who sees whom" for every step.

    Build once per simulation; call :meth:`query` per step. The demand
    cells are fixed in the Earth frame, so their tiles are built a
    single time here; satellites are propagated by rotating cached epoch
    ECI geometry.

    ``window`` selects the per-step mode: ``1`` and ``"auto"`` (default)
    run the exact tiled kernel every step; an int ``K > 1`` reuses one
    inflated candidate query for K consecutive steps (refined exactly
    per step), sized from ``step_hint_s`` or the spacing of the queries
    actually observed. Every mode returns bit-identical relations;
    ``last_query_stats`` reports which mode ran and how many (cell,
    satellite) pairs the exact test scanned.
    """

    def __init__(
        self,
        walkers: Sequence[WalkerDelta],
        cell_ecef: np.ndarray,
        chord_radii_km: Sequence[float],
        gateway_ecef: Optional[np.ndarray] = None,
        gateway_radii_km: Optional[Sequence[float]] = None,
        window: Union[int, str] = "auto",
        step_hint_s: Optional[float] = None,
    ):
        if len(walkers) != len(chord_radii_km):
            raise SimulationError("one chord radius per shell required")
        if (gateway_ecef is None) != (gateway_radii_km is None):
            raise SimulationError(
                "gateway positions and radii must be given together"
            )
        cell_ecef = np.asarray(cell_ecef, dtype=np.float64)
        self._cell_ecef = cell_ecef
        self._cell_tree_cache: Optional[cKDTree] = None
        self._n_cells = cell_ecef.shape[0]
        self._tiles = _CellTiles(cell_ecef)
        # Contiguous per-axis cell coordinates for the cached-mode
        # refine (fancy-gathering a strided 2-D column is pathologically
        # slow compared to contiguous 1-D takes).
        self._cell_axes = tuple(
            np.ascontiguousarray(cell_ecef[:, axis]) for axis in range(3)
        )
        self._gateway_ecef = gateway_ecef
        self._gateway_tree = (
            cKDTree(gateway_ecef) if gateway_ecef is not None else None
        )
        self._shells: List[_ShellGeometry] = []
        offset = 0
        for index, walker in enumerate(walkers):
            pos0, tan0 = walker.eci_state_basis()
            radius_km = float(np.linalg.norm(pos0[0])) if len(pos0) else 0.0
            self._shells.append(
                _ShellGeometry(
                    pos0=pos0,
                    tan0=tan0,
                    mean_motion_rad_s=walker.mean_motion_rad_s,
                    chord_radius_km=chord_radii_km[index],
                    gateway_radius_km=(
                        gateway_radii_km[index] if gateway_radii_km else 0.0
                    ),
                    offset=offset,
                    total=walker.total,
                    max_speed_km_s=radius_km
                    * (walker.mean_motion_rad_s + EARTH_ROTATION_RAD_S),
                )
            )
            offset += walker.total
        self.n_satellites = offset
        # Chord radius per satellite, for the exact tests.
        self._chord_by_sat = np.repeat(
            np.array(chord_radii_km, dtype=np.float64),
            [shell.total for shell in self._shells],
        )
        self._window = self._validate_window(window)
        self._step_hint_s = (
            float(step_hint_s) if step_hint_s and step_hint_s > 0 else None
        )
        self._inferred_step_s: Optional[float] = None
        self._last_query_t: Optional[float] = None
        self._cache: Optional[Dict[str, object]] = None
        #: Stats of the most recent :meth:`query` (mode, candidate and
        #: surviving pair counts, whether a window was rebuilt).
        self.last_query_stats: Dict[str, object] = {}

    @property
    def _cell_tree(self) -> cKDTree:
        """KD-tree over the cells, built on first use (cached windows only)."""
        if self._cell_tree_cache is None:
            self._cell_tree_cache = cKDTree(self._cell_ecef)
        return self._cell_tree_cache

    @staticmethod
    def _validate_window(window: Union[int, str]) -> Union[int, str]:
        if window == "auto":
            return "auto"
        if isinstance(window, bool) or not isinstance(window, int):
            raise SimulationError(f"visibility window must be 'auto' or an int >= 1: {window!r}")
        if window < 1:
            raise SimulationError(f"visibility window must be >= 1: {window}")
        return window

    def configure_window(
        self,
        window: Optional[Union[int, str]] = None,
        step_hint_s: Optional[float] = None,
    ) -> None:
        """Adjust the caching policy; any cached window is dropped."""
        if window is not None:
            self._window = self._validate_window(window)
        if step_hint_s is not None:
            self._step_hint_s = float(step_hint_s) if step_hint_s > 0 else None
        self._cache = None

    def satellite_ecef(self, shell_index: int, time_s: float) -> np.ndarray:
        """ECEF positions (total, 3) of one shell's satellites at a time."""
        shell = self._shells[shell_index]
        angle = shell.mean_motion_rad_s * time_s
        eci = math.cos(angle) * shell.pos0 + math.sin(angle) * shell.tan0
        theta = gmst_rad(time_s)
        cos_t = math.cos(theta)
        sin_t = math.sin(theta)
        rotation = np.array(
            [[cos_t, sin_t, 0.0], [-sin_t, cos_t, 0.0], [0.0, 0.0, 1.0]]
        )
        return eci @ rotation.T

    def gateway_eligibility(
        self, shell_index: int, sat_ecef: np.ndarray
    ) -> Optional[np.ndarray]:
        """Boolean mask of satellites currently seeing any gateway.

        A ball query against the small precomputed gateway tree — the
        tree applies the same squared-chord predicate a dense
        ``|sat - gateway|^2 <= r^2`` matrix would, without allocating
        the (satellites x gateways) intermediate.
        """
        if self._gateway_tree is None:
            return None
        radius = self._shells[shell_index].gateway_radius_km
        hits = self._gateway_tree.query_ball_point(
            sat_ecef, r=radius, return_length=True
        )
        return hits > 0

    # ------------------------------------------------------------------
    # Query: mode selection

    def query(self, time_s: float):
        """(CSR visibility, satellite latitudes in degrees) at ``time_s``."""
        window_steps, hint_s = self._plan_window()
        if window_steps <= 1:
            result = self._query_exact(time_s)
        else:
            result = self._query_cached(time_s, window_steps, hint_s)
        # Observe the spacing of consecutive queries so an integer
        # window can be sized even when no step hint was configured.
        if self._last_query_t is not None:
            delta = abs(time_s - self._last_query_t)
            if delta > 0.0:
                self._inferred_step_s = delta
        self._last_query_t = time_s
        return result

    def _plan_window(self) -> Tuple[int, Optional[float]]:
        hint_s = self._step_hint_s or self._inferred_step_s
        # "auto" is the exact kernel: measured at national res 5 for 1,
        # 5, 15 and 30 s steps, no window length beats it (PERFORMANCE.md
        # "Windowed visibility").
        window_steps = 1 if self._window == "auto" else int(self._window)
        if window_steps > 1 and not hint_s:
            # Can't size the inflation radius without a step estimate;
            # fall back to exact steps until one is observed.
            return 1, hint_s
        return window_steps, hint_s

    def _satellites(
        self, time_s: float
    ) -> Tuple[np.ndarray, Optional[np.ndarray], np.ndarray]:
        """Every shell at ``time_s``: ECEF ``(n, 3)``, gateway mask, lats."""
        sat_ecef = np.empty((self.n_satellites, 3), dtype=np.float64)
        eligible: Optional[np.ndarray] = (
            np.empty(self.n_satellites, dtype=bool)
            if self._gateway_tree is not None
            else None
        )
        lats: List[np.ndarray] = []
        for shell_index, shell in enumerate(self._shells):
            ecef = self.satellite_ecef(shell_index, time_s)
            lat, _, _ = ecef_to_latlon(ecef)
            lats.append(lat)
            span = slice(shell.offset, shell.offset + shell.total)
            sat_ecef[span] = ecef
            if eligible is not None:
                eligible[span] = self.gateway_eligibility(shell_index, ecef)
        return sat_ecef, eligible, np.concatenate(lats)

    # ------------------------------------------------------------------
    # Mode 1: exact per-step tiled kernel

    def _query_exact(self, time_s: float):
        sat_ecef, eligible, lats = self._satellites(time_s)
        sat_ids = (
            np.flatnonzero(eligible)
            if eligible is not None
            else np.arange(self.n_satellites, dtype=np.int64)
        )
        indptr, indices, evaluated, passed = self._tiles.visible(
            sat_ecef[sat_ids],
            sat_ids,
            self._chord_by_sat[sat_ids],
        )
        csr = CSRVisibility(
            indptr=indptr, indices=indices, n_satellites=self.n_satellites
        )
        self.last_query_stats = {
            "mode": "rebuild",
            "window_steps": 1,
            "window_rebuilt": False,
            "candidates": evaluated,
            "kept": csr.nnz,
            "refine_ratio": passed / evaluated if evaluated else 1.0,
        }
        return csr, lats

    # ------------------------------------------------------------------
    # Mode 2: cached candidates, exact per-step refine

    def _rebuild_window(
        self, time_s: float, window_steps: int, hint_s: float
    ) -> None:
        """One inflated coarse query covering ``window_steps`` steps.

        Anchored at the window midpoint so the inflation only has to
        cover half the window span in either direction.
        """
        half_span_s = 0.5 * (window_steps - 1) * hint_s
        anchor_s = time_s + half_span_s
        pair_cells: List[np.ndarray] = []
        pair_sats: List[np.ndarray] = []
        for shell_index, shell in enumerate(self._shells):
            ecef = self.satellite_ecef(shell_index, anchor_s)
            margin_km = shell.max_speed_km_s * (half_span_s + _TIME_SLOP_S)
            sat_tree = cKDTree(ecef)
            pairs = sat_tree.sparse_distance_matrix(
                self._cell_tree,
                shell.chord_radius_km + margin_km,
                output_type="ndarray",
            )
            pair_sats.append(pairs["i"].astype(np.int64) + shell.offset)
            pair_cells.append(pairs["j"].astype(np.int64))
        cells = np.concatenate(pair_cells)
        sats = np.concatenate(pair_sats)
        indptr, order = group_pairs(
            cells, sats, self._n_cells, self.n_satellites
        )
        cand_sats = sats[order]
        cand_cells = cells[order]
        cell_x, cell_y, cell_z = self._cell_axes
        cand_chord = np.take(self._chord_by_sat, cand_sats)
        self._cache = {
            "anchor_s": anchor_s,
            "half_span_s": half_span_s,
            "window_steps": window_steps,
            "hint_s": hint_s,
            "indptr": indptr,
            "sats": cand_sats,
            "cell_x": np.take(cell_x, cand_cells),
            "cell_y": np.take(cell_y, cand_cells),
            "cell_z": np.take(cell_z, cand_cells),
            "chord2": cand_chord * cand_chord,
        }

    def _window_covers(self, time_s: float, window_steps: int, hint_s: float) -> bool:
        cache = self._cache
        if cache is None:
            return False
        if cache["window_steps"] != window_steps or cache["hint_s"] != hint_s:
            return False
        return abs(time_s - cache["anchor_s"]) <= (
            cache["half_span_s"] + _TIME_SLOP_S
        )

    def _query_cached(self, time_s: float, window_steps: int, hint_s: float):
        rebuilt = not self._window_covers(time_s, window_steps, hint_s)
        if rebuilt:
            self._rebuild_window(time_s, window_steps, hint_s)
        cache = self._cache
        sat_ecef, eligible, lats = self._satellites(time_s)
        # Per-axis satellite positions (small arrays; the per-candidate
        # gathers below are the hot part).
        sat_x, sat_y, sat_z = (
            np.ascontiguousarray(sat_ecef[:, axis]) for axis in range(3)
        )
        cand_sats = cache["sats"]
        # Exact chord test over the candidates, accumulated per axis in
        # the same order cKDTree's squared-distance predicate uses, so a
        # surviving candidate is exactly a pair the rebuild would emit.
        delta = cache["cell_x"] - np.take(sat_x, cand_sats)
        dist2 = delta * delta
        delta = cache["cell_y"] - np.take(sat_y, cand_sats)
        dist2 += delta * delta
        delta = cache["cell_z"] - np.take(sat_z, cand_sats)
        dist2 += delta * delta
        mask = dist2 <= cache["chord2"]
        if eligible is not None:
            mask &= np.take(eligible, cand_sats)
        # Compress candidates -> CSR: prefix-sum the survivors and read
        # the cell boundaries off the cached candidate indptr.
        survivors = np.zeros(mask.size + 1, dtype=np.int64)
        np.cumsum(mask, out=survivors[1:])
        indptr = survivors[cache["indptr"]]
        csr = CSRVisibility(
            indptr=indptr,
            indices=cand_sats[mask],
            n_satellites=self.n_satellites,
        )
        self.last_query_stats = {
            "mode": "cached",
            "window_steps": window_steps,
            "window_rebuilt": rebuilt,
            "candidates": int(mask.size),
            "kept": csr.nnz,
            "refine_ratio": csr.nnz / mask.size if mask.size else 1.0,
        }
        return csr, lats
