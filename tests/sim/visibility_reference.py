"""The tiled kernel's former CSR scatter: a differential oracle for
:meth:`repro.sim.visibility_index._CellTiles.visible`.

The same culls and exact per-pair test, with each tile's boolean block
scattered into int64 CSR (``indptr``, ``indices``), rows in cell order
and satellite ids ascending. The packed bit-row relation must unpack to
these arrays bit for bit, with the same evaluated and passed counts.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.sim.visibility_index import _TILE_MARGIN_KM


def reference_visible(
    tiles, sat_ecef: np.ndarray, sat_ids: np.ndarray, chord_km: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """CSR ``(indptr, indices, evaluated, passed)`` over ``tiles``' cells."""
    n_cells = tiles.n_cells
    counts_tiled = np.zeros(n_cells, dtype=np.int64)
    # Per tile with any satellite in reach: (span, satellite ids,
    # satellites x cells hit mask, or None when every cell sees
    # every one of them).
    blocks: List[Tuple[int, int, np.ndarray, Optional[np.ndarray]]] = []
    evaluated = passed = 0
    if n_cells and sat_ids.size:
        # Satellites out of reach of every cell.
        offset = sat_ecef - tiles.whole_center
        reach = np.sqrt((offset * offset).sum(axis=1))
        keep = reach <= tiles.whole_radius + chord_km + _TILE_MARGIN_KM
        sat_ids = sat_ids[keep]
        sat_x, sat_y, sat_z = (
            np.ascontiguousarray(sat_ecef[keep, axis]) for axis in range(3)
        )
        chord_km = chord_km[keep]
        chord2_col = (chord_km * chord_km)[:, None]
        # (tile, satellite) center distances, then the two culls.
        centers = tiles.centers
        delta = centers[:, 0:1] - sat_x
        dist = delta * delta
        delta = centers[:, 1:2] - sat_y
        dist += delta * delta
        delta = centers[:, 2:3] - sat_z
        dist += delta * delta
        np.sqrt(dist, out=dist)
        radii = tiles.radii[:, None]
        near = dist <= radii + (chord_km + _TILE_MARGIN_KM)
        partial = near & (dist > (chord_km - _TILE_MARGIN_KM) - radii)
        cell_x, cell_y, cell_z = tiles.axes
        for tile, (lo, hi) in enumerate(tiles.spans):
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
    counts = counts_tiled[tiles.rank]
    indptr = np.zeros(n_cells + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    # Scatter each tile's rows to their cells' CSR slots; satellite
    # ids ascend within a row because ``cols`` does.
    for lo, hi, sats, block in blocks:
        starts = indptr[tiles.order[lo:hi]]
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


def reference_query(index, time_s: float) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """:func:`reference_visible` on a ``VisibilityIndex``'s step inputs."""
    sat_ecef, eligible, _ = index._satellites(time_s)
    sat_ids = (
        np.flatnonzero(eligible)
        if eligible is not None
        else np.arange(index.n_satellites, dtype=np.int64)
    )
    return reference_visible(
        index._tiles, sat_ecef[sat_ids], sat_ids, index._chord_by_sat[sat_ids]
    )
