"""The cached tile layout must not change a byte of the tile responses:
``tiles_to_geojson`` is differenced against the per-request rollup it
replaced (``tiles_reference``) across resolutions and epochs."""

from __future__ import annotations

import json

import pytest

from repro.serve import ScenarioParams, tile_aggregates, tiles_to_geojson

from tests.serve.tiles_reference import (
    reference_tile_aggregates,
    reference_tiles_to_geojson,
)


def _epochs(index):
    """Epoch 0 plus a second epoch under a scenario that binds the cap."""
    return index, index.with_params(
        ScenarioParams(oversubscription=12.5, income_share=0.05)
    )


def _assert_identical(index, resolution):
    assert json.dumps(tiles_to_geojson(index, resolution)) == json.dumps(
        reference_tiles_to_geojson(index, resolution)
    )
    assert tile_aggregates(index, resolution) == reference_tile_aggregates(
        index, resolution
    )


@pytest.mark.parametrize("resolution", [2, 3])
def test_toy_tiles_match_reference(toy_serve_index, resolution):
    for index in _epochs(toy_serve_index):
        _assert_identical(index, resolution)


@pytest.mark.parametrize("resolution", [2, 3])
def test_national_tiles_match_reference(national_serve_index, resolution):
    first, second = _epochs(national_serve_index)
    assert first.scenario_id != second.scenario_id
    for index in (first, second):
        _assert_identical(index, resolution)


def test_layout_built_once_and_shared_by_epochs(toy_serve_index):
    first, second = _epochs(toy_serve_index)
    store = first.store
    assert second.store is store
    tiles_to_geojson(first, 3)
    layout = store.tile_layouts[(first.grid_resolution, 3)]
    tiles_to_geojson(second, 3)
    tile_aggregates(second, 3)
    assert store.tile_layouts == {(first.grid_resolution, 3): layout}


def test_responses_do_not_share_rings(toy_serve_index):
    first = tiles_to_geojson(toy_serve_index, 3)
    first["features"][0]["geometry"]["coordinates"][0][0][0] = 0.0
    assert json.dumps(tiles_to_geojson(toy_serve_index, 3)) == json.dumps(
        reference_tiles_to_geojson(toy_serve_index, 3)
    )
