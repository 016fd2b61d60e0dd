"""Choropleth tile aggregates: serving answers rolled up to coarse hexes.

A frontend map cannot draw 21k resolution-5 cells per viewport; it wants
a few hundred coarser tiles with served fractions. Tiles are the cells of
a coarser :class:`HexGrid` resolution; each fine cell is assigned to the
tile containing its center, and the per-cell arrays of a
:class:`~repro.serve.index.ServeIndex` are summed per tile — so tile
numbers are exact aggregates of batch-pipeline answers, not estimates.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro import obs
from repro.errors import ServeError
from repro.geo.hexgrid import CellId, HexGrid
from repro.serve.index import ServeIndex
from repro.viz.geojson import _collection, _feature

#: Resolution-3 tiles are ~12.4x the area of the resolution-5 service
#: cells — a national map lands around 2k tiles.
DEFAULT_TILE_RESOLUTION = 3


class _TileLayout:
    """The static cell -> tile geometry of one store at one resolution.

    Depends only on the store's cell keys and the two resolutions, so it
    is built at the first tile request and shared by every epoch.
    """

    def __init__(
        self, unique_keys: np.ndarray, grid_resolution: int, tile_resolution: int
    ):
        fine = HexGrid(grid_resolution)
        coarse = HexGrid(tile_resolution)
        lat, lon = fine.centers_many(unique_keys)
        tile_keys = coarse.cell_for_many(lat, lon)
        unique_tiles, self.inverse = np.unique(tile_keys, return_inverse=True)
        self.n_tiles = len(unique_tiles)
        self.tokens = [f"{int(key):015x}" for key in unique_tiles]
        self.cells = np.bincount(self.inverse, minlength=self.n_tiles).tolist()
        # Cells grouped by tile, for one ``reduceat`` per request.
        self.tile_order = np.argsort(self.inverse, kind="stable")
        self.tile_starts = np.concatenate(
            [[0], np.cumsum(self.cells)[:-1]]
        ).astype(np.int64)
        # Closed rings (first vertex repeated, per the GeoJSON spec).
        self.rings = []
        for key in unique_tiles:
            ring = tuple(
                (vertex.lon_deg, vertex.lat_deg)
                for vertex in coarse.cell_polygon(CellId.from_key(int(key)))
            )
            self.rings.append(ring + ring[:1])

    @classmethod
    def of(cls, index: ServeIndex, tile_resolution: int) -> "_TileLayout":
        """The layout cached on ``index.store``, built on first use."""
        layouts = index.store.tile_layouts
        key = (index.grid_resolution, tile_resolution)
        if key not in layouts:
            layouts[key] = cls(
                index.store.unique_keys, index.grid_resolution, tile_resolution
            )
        return layouts[key]


def tile_aggregates(
    index: ServeIndex, tile_resolution: int = DEFAULT_TILE_RESOLUTION
) -> List[Dict]:
    """Per-tile aggregate rows, sorted by tile token.

    Each row sums the index's per-cell layers over the fine cells whose
    centers fall in the tile: total and served locations, fully served
    cell counts, and the tile's maximum required oversubscription.
    """
    if tile_resolution >= index.grid_resolution:
        raise ServeError(
            f"tile resolution {tile_resolution} must be coarser than the "
            f"grid resolution {index.grid_resolution}"
        )
    with obs.span(
        "serve.tiles", cells=index.n_cells, resolution=tile_resolution
    ) as span:
        if index.n_cells == 0:
            return []
        layout = _TileLayout.of(index, tile_resolution)
        inverse = layout.inverse
        n_tiles = layout.n_tiles
        locations = np.bincount(
            inverse, weights=index.cell_counts, minlength=n_tiles
        ).astype(np.int64)
        served = np.bincount(
            inverse, weights=index.served_count, minlength=n_tiles
        ).astype(np.int64)
        fully = np.bincount(
            inverse, weights=index.fully_served, minlength=n_tiles
        ).astype(np.int64)
        max_oversub = np.maximum.reduceat(
            index.required_oversub[layout.tile_order], layout.tile_starts
        )
        span.set(tiles=n_tiles)
        return [
            {
                "tile": token,
                "cells": cells,
                "cells_fully_served": n_fully,
                "locations": n_locations,
                "locations_served": n_served,
                "served_fraction": (
                    n_served / n_locations if n_locations else 1.0
                ),
                "max_required_oversubscription": oversub,
            }
            for token, cells, n_fully, n_locations, n_served, oversub in zip(
                layout.tokens,
                layout.cells,
                fully.tolist(),
                locations.tolist(),
                served.tolist(),
                max_oversub.tolist(),
            )
        ]


def tiles_to_geojson(
    index: ServeIndex, tile_resolution: int = DEFAULT_TILE_RESOLUTION
) -> Dict:
    """Tile aggregates as a GeoJSON FeatureCollection of hex polygons."""
    rows = tile_aggregates(index, tile_resolution)
    if not rows:
        return _collection([])
    rings = _TileLayout.of(index, tile_resolution).rings
    epoch = index.epoch
    scenario_id = index.scenario_id
    features = []
    for row, ring in zip(rows, rings):
        row["epoch"] = epoch
        row["scenario_id"] = scenario_id
        coordinates = [[list(vertex) for vertex in ring]]
        features.append(
            _feature({"type": "Polygon", "coordinates": coordinates}, row)
        )
    return _collection(features)
