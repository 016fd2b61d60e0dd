"""Packed visibility relation and the precomputed index that builds it.

* :class:`CSRVisibility` stores the relation "which satellites can serve
  which cells right now" as packed bit rows: one row of bits per cell
  over the step's in-view satellites (ascending global ids), plus a
  per-cell count. Assignment reads the rows as Python ints and works
  with integer bit operations; impairments AND them with a keep mask.
  The CSR arrays (``indptr``, ``indices``) and ``to_lists()`` are
  derived on first use for tests and list-based strategies.
* :class:`VisibilityIndex` precomputes everything that does not change
  between steps: the (static, Earth-fixed) demand cells split into
  spatially compact tiles, and each shell's epoch ECI geometry. Per
  step, satellite positions are a *rotation* of the cached epoch
  geometry (circular orbits: ``pos(t) = cos(nt) pos0 + sin(nt) tan0``,
  then one Earth-spin matrix).

Per step, a tiled exact kernel builds the relation. Satellites are
culled against the sphere bounding all cells; the survivors are the
relation's columns. Then (tile, satellite) pairs are culled against
``tile_radius + chord``; a satellite within ``chord - tile_radius`` of
a tile's center sees the whole tile, and every other surviving pair is
tested cell by cell with the predicate cKDTree applies (per-axis
``(cell - sat)**2`` accumulated x, y, z, compared ``<= chord**2``).
Each tile's cells x columns hits are packed (``np.packbits``,
little-endian bit order) straight into its cells' rows through one
small scratch block: no KD-tree query, pair list, sort or CSR scatter
runs in the step. The relation agrees bit for bit with the reference
engine (differentially tested). Measured at national scale this kernel
beats a cached-candidate window at every step size from 1 to 30 s
(PERFORMANCE.md "One visibility kernel"), so it is the only one.

Gateway (bent-pipe) eligibility is a boolean ndarray mask from a ball
query against a small precomputed gateway KD-tree (not a dense
satellites x gateways distance matrix); ineligible satellites are
dropped before any culling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

from repro.errors import SimulationError
from repro.orbits.kepler import ecef_to_latlon, gmst_rad
from repro.orbits.walker import WalkerDelta


#: Set bits per byte value: row counts without unpacking.
_POPCOUNT = np.array([bin(value).count("1") for value in range(256)], dtype=np.uint8)

#: Bool scratch (bytes) one row block may use when packing CSR into bit
#: rows or unpacking bit rows back into CSR.
_BLOCK_BYTES = 1 << 22


def _row_bytes(n_columns: int) -> int:
    """Bytes per packed row: whole 64-bit words, so rows view as uint64."""
    return 8 * -(-n_columns // 64)


def _block_rows(n_columns: int) -> int:
    """Rows per block whose unpacked bool form fits :data:`_BLOCK_BYTES`."""
    return max(1, _BLOCK_BYTES // max(1, 8 * _row_bytes(n_columns)))


def _pack_flags(flags: np.ndarray, row_bytes: int) -> np.ndarray:
    """One packed row of ``row_bytes`` bytes from per-column flags."""
    padded = np.zeros(8 * row_bytes, dtype=bool)
    padded[: flags.size] = flags
    return np.packbits(padded, bitorder="little")


def _row_counts(bits: np.ndarray) -> np.ndarray:
    """Set bits per packed row, through the byte popcount table."""
    return _POPCOUNT[bits].sum(axis=1, dtype=np.int64)


class CSRVisibility:
    """A cell -> visible-satellites relation, stored as packed bit rows.

    :attr:`columns` are the satellites the relation can name, ascending
    global ids. Cell ``c``'s row is ``bits[c]``: bit ``k`` (little-endian
    bit order; rows padded to whole 64-bit words) is set when the cell
    sees satellite ``columns[k]``. A row is a set, so a cell's satellites
    always come out in ascending id. Per-cell counts are kept beside the
    rows: :attr:`nnz` and :meth:`counts` never unpack.

    The CSR view (``indices[indptr[c]:indptr[c + 1]]`` are the ids cell
    ``c`` sees) is derived in row blocks on first use and cached; it
    serves :meth:`cell`, :meth:`to_lists` and the list-based strategies.
    The constructor takes that CSR form and validates it: an id outside
    ``[0, n_satellites)`` or an id repeated within a row raises
    :class:`SimulationError`. Rows need not be sorted.
    """

    def __init__(self, indptr, indices, n_satellites: int) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or not indptr.size or indptr[0] != 0:
            raise SimulationError("malformed CSR indptr")
        row_counts = np.diff(indptr)
        if np.any(row_counts < 0):
            raise SimulationError("malformed CSR indptr")
        if indices.ndim != 1 or indptr[-1] != indices.shape[0]:
            raise SimulationError("CSR indptr does not span indices")
        columns = np.unique(indices)
        if columns.size and (columns[0] < 0 or columns[-1] >= n_satellites):
            raise SimulationError(
                f"satellite id outside [0, {n_satellites}) in the relation"
            )
        n_cells = row_counts.size
        bits = np.zeros((n_cells, _row_bytes(columns.size)), dtype=np.uint8)
        positions = np.searchsorted(columns, indices)
        step = _block_rows(columns.size)
        for lo in range(0, n_cells, step):
            hi = min(lo + step, n_cells)
            first, last = indptr[lo], indptr[hi]
            if first == last:
                continue
            rows = np.zeros((hi - lo, 8 * bits.shape[1]), dtype=bool)
            owners = np.repeat(np.arange(hi - lo), row_counts[lo:hi])
            rows[owners, positions[first:last]] = True
            bits[lo:hi] = np.packbits(rows, axis=1, bitorder="little")
        counts = _row_counts(bits)
        if not np.array_equal(counts, row_counts):
            raise SimulationError("satellite id repeated within a cell's row")
        self._set(bits, columns, counts, n_satellites)

    def _set(
        self,
        bits: np.ndarray,
        columns: np.ndarray,
        counts: np.ndarray,
        n_satellites: int,
    ) -> None:
        self.bits = bits
        self.columns = columns
        self.n_satellites = int(n_satellites)
        self._counts = counts
        self._csr: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @classmethod
    def _from_bits(
        cls,
        bits: np.ndarray,
        columns: np.ndarray,
        counts: np.ndarray,
        n_satellites: int,
    ) -> "CSRVisibility":
        """Wrap packed rows, their columns and row counts (no checks)."""
        relation = cls.__new__(cls)
        relation._set(bits, columns, counts, n_satellites)
        return relation

    @property
    def n_cells(self) -> int:
        return self.bits.shape[0]

    @property
    def nnz(self) -> int:
        return int(self._counts.sum())

    def counts(self) -> np.ndarray:
        """Visible-satellite count per cell."""
        return self._counts.copy()

    @property
    def indptr(self) -> np.ndarray:
        return self._derive_csr()[0]

    @property
    def indices(self) -> np.ndarray:
        return self._derive_csr()[1]

    def _derive_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)``, unpacked in row blocks once and cached."""
        if self._csr is None:
            indptr = np.zeros(self.n_cells + 1, dtype=np.int64)
            np.cumsum(self._counts, out=indptr[1:])
            indices = np.empty(int(indptr[-1]), dtype=np.int64)
            n_columns = self.columns.size
            step = _block_rows(n_columns)
            for lo in range(0, self.n_cells, step):
                hi = min(lo + step, self.n_cells)
                if indptr[lo] == indptr[hi]:
                    continue
                rows = np.unpackbits(
                    self.bits[lo:hi], axis=1, count=n_columns, bitorder="little"
                )
                indices[indptr[lo] : indptr[hi]] = self.columns[np.nonzero(rows)[1]]
            self._csr = (indptr, indices)
        return self._csr

    def cell(self, cell_index: int) -> np.ndarray:
        """Satellite ids visible from one cell (a view, do not mutate)."""
        indptr, indices = self._derive_csr()
        return indices[indptr[cell_index] : indptr[cell_index + 1]]

    def to_lists(self) -> List[np.ndarray]:
        """Legacy list-of-arrays view (views into ``indices``)."""
        indptr, indices = self._derive_csr()
        return np.split(indices, indptr[1:-1])

    @classmethod
    def from_lists(
        cls, visible: Sequence[np.ndarray], n_satellites: int
    ) -> "CSRVisibility":
        """Pack per-cell id arrays; each row is a set, read back sorted."""
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
        """Drop satellites where ``keep`` is False: one AND per row."""
        if keep.shape != (self.n_satellites,):
            raise SimulationError("satellite keep-mask misshapen")
        bits = self.bits & _pack_flags(keep[self.columns], self.bits.shape[1])
        return CSRVisibility._from_bits(
            bits, self.columns, _row_counts(bits), self.n_satellites
        )


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
        n_satellites: int,
    ) -> Tuple[CSRVisibility, int, int]:
        """The relation of the satellites each cell sees, as bit rows.

        ``sat_ids`` must ascend; the relation's columns are the ones
        that survive the all-cells cull. Also returns how many (cell,
        satellite) pairs the exact test evaluated and how many passed.
        """
        n_cells = self.n_cells
        counts_tiled = np.zeros(n_cells, dtype=np.int64)
        columns = np.empty(0, dtype=np.int64)
        bits = np.zeros((n_cells, 0), dtype=np.uint8)
        evaluated = passed = 0
        if n_cells and sat_ids.size:
            # Satellites out of reach of every cell.
            offset = sat_ecef - self.whole_center
            reach = np.sqrt((offset * offset).sum(axis=1))
            keep = reach <= self.whole_radius + chord_km + _TILE_MARGIN_KM
            columns = sat_ids[keep]
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
            row_bytes = _row_bytes(columns.size)
            bits = np.zeros((n_cells, row_bytes), dtype=np.uint8)
            # One tile's cells x columns hits, packed into its cells' rows
            # (in tile order: contiguous writes, one gather at the end).
            scratch = np.zeros(
                (max(hi - lo for lo, hi in self.spans), 8 * row_bytes),
                dtype=bool,
            )
            for tile, (lo, hi) in enumerate(self.spans):
                cols = np.flatnonzero(near[tile])
                width = cols.size
                if not width:
                    continue
                tested = partial[tile, cols]
                pick = cols[tested]
                if not pick.size:
                    counts_tiled[lo:hi] = width
                    scratch[0, cols] = True
                    bits[lo:hi] = np.packbits(scratch[0], bitorder="little")
                    scratch[0, cols] = False
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
                rows = scratch[: hi - lo]
                if pick.size < width:
                    counts += width - pick.size
                    rows[:, cols[~tested]] = True
                rows[:, pick] = hits.T
                bits[lo:hi] = np.packbits(rows, axis=1, bitorder="little")
                rows.fill(False)
                counts_tiled[lo:hi] = counts
        relation = CSRVisibility._from_bits(
            bits[self.rank], columns, counts_tiled[self.rank], n_satellites
        )
        return relation, evaluated, passed


@dataclass(frozen=True)
class _ShellGeometry:
    """Per-shell cached epoch geometry and gateway radius."""

    pos0: np.ndarray  # (total, 3) ECI positions at epoch
    tan0: np.ndarray  # (total, 3) in-plane tangents at epoch
    mean_motion_rad_s: float
    gateway_radius_km: float
    offset: int  # global id of this shell's first satellite
    total: int


class VisibilityIndex:
    """Precomputed geometry answering "who sees whom" for every step.

    Build once per simulation; call :meth:`query` per step. The demand
    cells are fixed in the Earth frame, so their tiles are built a
    single time here; satellites are propagated by rotating cached epoch
    ECI geometry. ``last_query_stats`` reports how many (cell,
    satellite) pairs the exact test scanned and how many the relation
    kept.
    """

    def __init__(
        self,
        walkers: Sequence[WalkerDelta],
        cell_ecef: np.ndarray,
        chord_radii_km: Sequence[float],
        gateway_ecef: Optional[np.ndarray] = None,
        gateway_radii_km: Optional[Sequence[float]] = None,
    ):
        if len(walkers) != len(chord_radii_km):
            raise SimulationError("one chord radius per shell required")
        if (gateway_ecef is None) != (gateway_radii_km is None):
            raise SimulationError(
                "gateway positions and radii must be given together"
            )
        self._tiles = _CellTiles(np.asarray(cell_ecef, dtype=np.float64))
        self._gateway_tree = (
            cKDTree(gateway_ecef) if gateway_ecef is not None else None
        )
        self._shells: List[_ShellGeometry] = []
        offset = 0
        for index, walker in enumerate(walkers):
            pos0, tan0 = walker.eci_state_basis()
            self._shells.append(
                _ShellGeometry(
                    pos0=pos0,
                    tan0=tan0,
                    mean_motion_rad_s=walker.mean_motion_rad_s,
                    gateway_radius_km=(
                        gateway_radii_km[index] if gateway_radii_km else 0.0
                    ),
                    offset=offset,
                    total=walker.total,
                )
            )
            offset += walker.total
        self.n_satellites = offset
        # Chord radius per satellite, for the exact tests.
        self._chord_by_sat = np.repeat(
            np.array(chord_radii_km, dtype=np.float64),
            [shell.total for shell in self._shells],
        )
        #: Stats of the most recent :meth:`query`: pairs the exact test
        #: evaluated (``candidates``), pairs in the relation (``kept``),
        #: and the fraction of evaluated pairs that passed.
        self.last_query_stats: Dict[str, float] = {}

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

    def query(self, time_s: float) -> Tuple[CSRVisibility, np.ndarray]:
        """(Visibility relation, satellite latitudes in degrees) at ``time_s``."""
        sat_ecef, eligible, lats = self._satellites(time_s)
        sat_ids = (
            np.flatnonzero(eligible)
            if eligible is not None
            else np.arange(self.n_satellites, dtype=np.int64)
        )
        csr, evaluated, passed = self._tiles.visible(
            sat_ecef[sat_ids],
            sat_ids,
            self._chord_by_sat[sat_ids],
            self.n_satellites,
        )
        self.last_query_stats = {
            "candidates": evaluated,
            "kept": csr.nnz,
            "refine_ratio": passed / evaluated if evaluated else 1.0,
        }
        return csr, lats
