"""Differential tests for the fast visibility path.

The precomputed :class:`VisibilityIndex` (static cells tiled once,
satellites propagated by rotating cached epoch geometry) must
produce exactly the same per-cell visibility relation as the original
per-step KD-tree rebuild (:meth:`ConstellationSimulation._visibility`),
at any time, with or without the bent-pipe gateway mask.
"""

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st
from scipy.spatial import cKDTree

from repro.errors import DatasetError, SimulationError
from repro.orbits.gateways import DEFAULT_CONUS_GATEWAYS
from repro.orbits.shells import GEN1_SHELLS, Shell
from repro.orbits.walker import WalkerDelta
from repro.sim.simulation import ConstellationSimulation
from repro.sim.visibility_index import (
    CSRVisibility,
    VisibilityIndex,
    _CellTiles,
    _tile_order,
)

from .visibility_reference import reference_query, reference_visible


@pytest.fixture(scope="module")
def regional_sim(regional_dataset):
    return ConstellationSimulation(GEN1_SHELLS[:2], regional_dataset)


@pytest.fixture(scope="module")
def gateway_sim(regional_dataset):
    return ConstellationSimulation(
        GEN1_SHELLS[:1], regional_dataset, gateways=DEFAULT_CONUS_GATEWAYS
    )


def assert_matches_reference(sim, time_s):
    """Fast index output == reference rebuild output, cell for cell.

    Also checks the query's stats: the pairs the exact test evaluated
    bound the ones that passed, and ``kept`` is the relation's size.
    """
    csr, fast_lats = sim.visibility_index.query(time_s)
    reference, reference_lats = sim._visibility(time_s)
    assert csr.n_cells == len(reference)
    for cell_index, expected in enumerate(reference):
        np.testing.assert_array_equal(csr.cell(cell_index), expected)
    np.testing.assert_allclose(fast_lats, reference_lats, atol=1e-9)
    stats = sim.visibility_index.last_query_stats
    assert stats["kept"] == csr.nnz
    assert 0.0 <= stats["refine_ratio"] <= 1.0
    passed = stats["refine_ratio"] * stats["candidates"]
    assert 0 <= passed <= stats["candidates"]


def assert_matches_scatter(index, time_s):
    """The packed relation unpacks to the former CSR scatter's arrays."""
    relation, _ = index.query(time_s)
    indptr, indices, evaluated, passed = reference_query(index, time_s)
    np.testing.assert_array_equal(relation.indptr, indptr)
    np.testing.assert_array_equal(relation.indices, indices)
    np.testing.assert_array_equal(relation.counts(), np.diff(indptr))
    assert relation.nnz == indices.size
    stats = index.last_query_stats
    assert stats["candidates"] == evaluated
    assert stats["refine_ratio"] == (passed / evaluated if evaluated else 1.0)


#: Orbital period of GEN1_SHELLS[0], the lower of ``regional_sim``'s two
#: shells. Sampling it at 22 equal steps (23 times with the epoch) ends
#: on the constellation's epoch geometry.
_PERIOD_S = 2.0 * np.pi / WalkerDelta.from_shell(GEN1_SHELLS[0]).mean_motion_rad_s


class TestCSRVisibility:
    def _relation(self):
        return [
            np.array([0, 2], dtype=np.int64),
            np.array([], dtype=np.int64),
            np.array([1, 2, 3], dtype=np.int64),
        ]

    def test_round_trip_lists(self):
        lists = self._relation()
        csr = CSRVisibility.from_lists(lists, n_satellites=4)
        assert csr.n_cells == 3
        assert csr.nnz == 5
        for rebuilt, original in zip(csr.to_lists(), lists):
            np.testing.assert_array_equal(rebuilt, original)

    def test_cell_and_counts(self):
        csr = CSRVisibility.from_lists(self._relation(), n_satellites=4)
        np.testing.assert_array_equal(csr.counts(), [2, 0, 3])
        np.testing.assert_array_equal(csr.cell(2), [1, 2, 3])

    def test_filter_satellites_matches_list_filter(self):
        lists = self._relation()
        csr = CSRVisibility.from_lists(lists, n_satellites=4)
        keep = np.array([True, False, True, False])
        filtered = csr.filter_satellites(keep)
        expected = [sats[keep[sats]] for sats in lists]
        for rebuilt, original in zip(filtered.to_lists(), expected):
            np.testing.assert_array_equal(rebuilt, original)
        assert filtered.n_satellites == csr.n_satellites
        # Rows spanning several 64-bit words, with ids on byte and word
        # edges; counts come from the packed rows, not from unpacking.
        rng = np.random.default_rng(5)
        n_sats = 200
        wide = [
            np.sort(rng.choice(n_sats, size=rng.integers(0, 80), replace=False))
            for _ in range(40)
        ]
        wide.append(np.array([7, 8, 63, 64, 127, 128, 199]))
        csr = CSRVisibility.from_lists(wide, n_satellites=n_sats)
        keep = rng.random(n_sats) < 0.6
        keep[[8, 64, 128]] = False
        filtered = csr.filter_satellites(keep)
        expected = [sats[keep[sats]] for sats in wide]
        np.testing.assert_array_equal(
            filtered.counts(), [sats.size for sats in expected]
        )
        assert filtered.nnz == sum(sats.size for sats in expected)
        for rebuilt, original in zip(filtered.to_lists(), expected):
            np.testing.assert_array_equal(rebuilt, original)

    def test_from_lists_sorts_each_row(self):
        csr = CSRVisibility.from_lists(
            [np.array([3, 0, 2]), np.array([], dtype=np.int64), np.array([1])],
            n_satellites=4,
        )
        np.testing.assert_array_equal(csr.indices, [0, 2, 3, 1])
        np.testing.assert_array_equal(csr.indptr, [0, 3, 3, 4])

    @pytest.mark.parametrize(
        "row",
        [[-1], [0, 4], [2, 0, 2]],
        ids=["negative-id", "id-past-the-end", "repeated-id"],
    )
    def test_from_lists_rejects_bad_ids(self, row):
        with pytest.raises(SimulationError):
            CSRVisibility.from_lists(
                [np.array([1]), np.array(row)], n_satellites=4
            )

    @pytest.mark.parametrize(
        "indptr,indices",
        [([0, 1], [7]), ([0, 1], [-1]), ([0, 2], [1, 1]), ([0, 2, 1, 2], [0, 1])],
        ids=["id-past-the-end", "negative-id", "repeated-id", "falling-indptr"],
    )
    def test_constructor_rejects_bad_rows(self, indptr, indices):
        with pytest.raises(SimulationError):
            CSRVisibility(indptr=indptr, indices=indices, n_satellites=3)

    def test_zero_satellite_relation(self):
        csr = CSRVisibility.from_lists([np.array([], dtype=np.int64)] * 2, 0)
        assert csr.n_cells == 2 and csr.nnz == 0
        np.testing.assert_array_equal(csr.counts(), [0, 0])
        filtered = csr.filter_satellites(np.ones(0, dtype=bool))
        assert filtered.nnz == 0 and filtered.indices.size == 0

    def test_rejects_misshapen_indptr(self):
        with pytest.raises(SimulationError):
            CSRVisibility(
                indptr=np.array([0, 1], dtype=np.int64),
                indices=np.array([0, 1], dtype=np.int64),
                n_satellites=2,
            )


class TestEciStateBasis:
    def test_basis_reproduces_direct_propagation(self):
        walker = WalkerDelta.from_shell(GEN1_SHELLS[0])
        pos0, tan0 = walker.eci_state_basis()
        n = walker.mean_motion_rad_s
        for time_s in (0.0, 17.0, 600.0, 5431.5):
            angle = n * time_s
            rotated = np.cos(angle) * pos0 + np.sin(angle) * tan0
            np.testing.assert_allclose(
                rotated, walker.positions_eci(time_s), atol=1e-6
            )

    def test_epoch_basis_is_exact_position(self):
        walker = WalkerDelta.from_shell(GEN1_SHELLS[1])
        pos0, _ = walker.eci_state_basis()
        np.testing.assert_allclose(pos0, walker.positions_eci(0.0), atol=1e-9)


class TestAgainstReference:
    @pytest.mark.parametrize(
        "time_s",
        [0.0, 60.0, 600.0, 3600.0]
        + [
            pytest.param(step * _PERIOD_S / 22.0, id=f"period-{step}/22")
            for step in range(1, 23)
        ],
    )
    def test_matches_reference_rebuild(self, regional_sim, time_s):
        assert_matches_reference(regional_sim, time_s)

    @pytest.mark.parametrize(
        "time_s", [0.0, 300.0, 60.0, 120.0, 180.0, 240.0, 360.0]
    )
    def test_matches_reference_with_gateways(self, gateway_sim, time_s):
        assert_matches_reference(gateway_sim, time_s)

    @given(time_s=st.floats(min_value=0.0, max_value=86400.0))
    @settings(max_examples=20, deadline=None)
    def test_matches_reference_at_random_times(self, regional_sim, time_s):
        assert_matches_reference(regional_sim, time_s)

    def test_simulation_visibility_uses_selected_engine(
        self, regional_dataset
    ):
        fast = ConstellationSimulation(
            GEN1_SHELLS[:1], regional_dataset, engine="fast"
        )
        reference = ConstellationSimulation(
            GEN1_SHELLS[:1], regional_dataset, engine="reference"
        )
        fast_lists, _ = fast.visibility(120.0)
        reference_lists, _ = reference.visibility(120.0)
        for a, b in zip(fast_lists, reference_lists):
            np.testing.assert_array_equal(a, b)

    def test_rejects_unknown_engine(self, regional_dataset):
        with pytest.raises(SimulationError):
            ConstellationSimulation(
                GEN1_SHELLS[:1], regional_dataset, engine="warp"
            )


class TestIndexValidation:
    def test_rejects_mismatched_radii(self, regional_sim):
        with pytest.raises(SimulationError):
            VisibilityIndex(
                regional_sim.walkers,
                regional_sim._cell_ecef,
                regional_sim._chord_radii[:1],
            )

    def test_gateway_radii_required_with_gateways(self, gateway_sim):
        with pytest.raises(SimulationError):
            VisibilityIndex(
                gateway_sim.walkers,
                gateway_sim._cell_ecef,
                gateway_sim._chord_radii,
                gateway_ecef=gateway_sim._gateway_ecef,
            )


class TestGatewayKD:
    def test_eligibility_matches_dense_reference(self, gateway_sim):
        index = gateway_sim.visibility_index
        gateways = gateway_sim._gateway_ecef
        radius = index._shells[0].gateway_radius_km
        for time_s in (0.0, 451.0, 7200.0):
            sat_ecef = index.satellite_ecef(0, time_s)
            mask = index.gateway_eligibility(0, sat_ecef)
            deltas = sat_ecef[:, None, :] - gateways[None, :, :]
            dense = (
                (deltas * deltas).sum(axis=-1) <= radius * radius
            ).any(axis=1)
            np.testing.assert_array_equal(mask, dense)
            assert mask.any() and not mask.all()


@st.composite
def walker_shells(draw):
    """1-3 small Walker shells at distinct altitudes (distinct chords)."""
    altitudes = draw(
        st.lists(
            st.floats(min_value=400.0, max_value=1300.0),
            min_size=1,
            max_size=3,
            unique_by=lambda altitude: round(altitude),
        )
    )
    shells = []
    for index, altitude_km in enumerate(altitudes):
        planes = draw(st.integers(min_value=2, max_value=8))
        sats_per_plane = draw(st.integers(min_value=2, max_value=10))
        shells.append(
            Shell(
                name=f"hypothesis-{index}",
                satellite_count=planes * sats_per_plane,
                altitude_km=altitude_km,
                inclination_deg=draw(st.floats(min_value=30.0, max_value=98.0)),
                planes=planes,
                sats_per_plane=sats_per_plane,
            )
        )
    return shells


#: A bounding box over the open Pacific: no cells.
EMPTY_BBOX = (0.0, 1.0, -150.0, -149.0)


@st.composite
def regions(draw):
    """A CONUS bounding box (usually several tiles), one cell, or none."""
    kind = draw(st.sampled_from(["empty", "cell", "bbox", "bbox", "bbox"]))
    if kind == "empty":
        return kind, EMPTY_BBOX
    if kind == "cell":
        return kind, draw(st.integers(min_value=0, max_value=10**6))
    lat_min = draw(st.floats(min_value=27.0, max_value=44.0))
    lon_min = draw(st.floats(min_value=-122.0, max_value=-75.0))
    return (
        kind,
        (
            lat_min,
            lat_min + draw(st.floats(min_value=2.0, max_value=8.0)),
            lon_min,
            lon_min + draw(st.floats(min_value=3.0, max_value=12.0)),
        ),
    )


def oracle_lists(cells, sat_ecef, chord_km):
    """Per-cell visible satellites from one cKDTree ball query per satellite."""
    visible = [[] for _ in range(len(cells))]
    if len(cells):
        tree = cKDTree(cells)
        for sat, (position, chord) in enumerate(zip(sat_ecef, chord_km)):
            for cell in tree.query_ball_point(position, r=chord):
                visible[cell].append(sat)
    return visible


def assert_tiles_match_oracle(tiles, cells, sat_ecef, chord_km):
    """The tiled kernel == the cKDTree oracle, cell for cell."""
    chord_km = np.asarray(chord_km, dtype=float)
    sat_ids = np.arange(len(sat_ecef), dtype=np.int64)
    csr, evaluated, kept = tiles.visible(sat_ecef, sat_ids, chord_km, len(sat_ecef))
    indptr, indices, *counted = reference_visible(tiles, sat_ecef, sat_ids, chord_km)
    np.testing.assert_array_equal(csr.indptr, indptr)
    np.testing.assert_array_equal(csr.indices, indices)
    assert [evaluated, kept] == counted
    expected = oracle_lists(cells, sat_ecef, chord_km)
    assert csr.n_cells == len(expected)
    for cell, sats in enumerate(expected):
        np.testing.assert_array_equal(csr.cell(cell), sats)
    assert 0 <= kept <= evaluated
    return csr, evaluated


def _grid_cells(rows=12, cols=12, spacing_deg=0.25):
    """A lat/lon grid of surface points over Kentucky, in ECEF km."""
    lat = np.radians(37.0 + spacing_deg * np.arange(rows))
    lon = np.radians(-85.0 + spacing_deg * np.arange(cols))
    lat, lon = np.meshgrid(lat, lon, indexing="ij")
    radius = 6371.0
    return radius * np.stack(
        [
            (np.cos(lat) * np.cos(lon)).ravel(),
            (np.cos(lat) * np.sin(lon)).ravel(),
            np.sin(lat).ravel(),
        ],
        axis=-1,
    )


def _offset_points(origin, distances_km, rng):
    """Points at exact-ish distances from ``origin`` in random directions."""
    directions = rng.normal(size=(len(distances_km), 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return origin + directions * np.asarray(distances_km)[:, None]


class TestTiledKernel:
    """The tiled exact kernel == the reference engine, bit for bit."""

    @given(
        shells=walker_shells(),
        region=regions(),
        gateway_ids=st.one_of(
            st.none(),
            st.lists(
                st.integers(min_value=0, max_value=len(DEFAULT_CONUS_GATEWAYS) - 1),
                min_size=1,
                max_size=3,
                unique=True,
            ),
        ),
        times_s=st.lists(
            st.floats(min_value=0.0, max_value=2 * 86400.0), min_size=1, max_size=3
        ),
    )
    @example(
        shells=list(GEN1_SHELLS[:2]),
        region=("cell", 0),
        gateway_ids=None,
        times_s=[0.0],
    )
    @example(
        shells=list(GEN1_SHELLS[:1]),
        region=("empty", EMPTY_BBOX),
        gateway_ids=[0],
        times_s=[60.0],
    )
    # Out-of-order query times on one index: backwards jumps and a
    # repeated time.
    @example(
        shells=list(GEN1_SHELLS[:2]),
        region=("bbox", (37.0, 38.5, -83.5, -81.0)),
        gateway_ids=None,
        times_s=[300.0, 330.0, 0.0, 360.0, 30.0, 300.0],
    )
    # The same region and times with the bent-pipe gateway mask on.
    @example(
        shells=list(GEN1_SHELLS[:1]),
        region=("bbox", (37.0, 38.5, -83.5, -81.0)),
        gateway_ids=[0, 1, 2],
        times_s=[300.0, 330.0, 0.0, 360.0, 30.0, 300.0],
    )
    @settings(max_examples=40, deadline=None)
    def test_random_shells_regions_gateways_match_reference(
        self, national_dataset, shells, region, gateway_ids, times_s
    ):
        gateways = (
            None
            if gateway_ids is None
            else [DEFAULT_CONUS_GATEWAYS[i] for i in gateway_ids]
        )
        kind, value = region
        if kind == "cell":
            lats = national_dataset.latitudes()
            lons = national_dataset.longitudes()
            cell = value % lats.size
            value = (lats[cell], lats[cell], lons[cell], lons[cell])
        try:
            dataset = national_dataset.subset_bbox(*value)
        except DatasetError:
            dataset = None  # empty region: no dataset, index only
        if kind == "cell":
            assert len(dataset.cells) == 1
        cells = 0 if dataset is None else dataset.counts().size
        event(f"tiles: {-(-cells // 256)}" if cells > 1 else f"cells: {cells}")
        if dataset is not None:
            sim = ConstellationSimulation(shells, dataset, gateways=gateways)
            for time_s in times_s:
                assert_matches_reference(sim, time_s)
                assert_matches_scatter(sim.visibility_index, time_s)
            return
        probe = ConstellationSimulation(
            shells,
            national_dataset.subset_bbox(37.0, 38.5, -83.5, -81.0),
            gateways=gateways,
        )
        index = VisibilityIndex(
            probe.walkers,
            np.empty((0, 3)),
            probe._chord_radii,
            gateway_ecef=probe._gateway_ecef if gateways else None,
            gateway_radii_km=probe._gateway_radii if gateways else None,
        )
        for time_s in times_s:
            assert_matches_scatter(index, time_s)
            csr, lats = index.query(time_s)
            assert csr.n_cells == 0 and csr.nnz == 0
            np.testing.assert_array_equal(csr.indptr, [0])
            np.testing.assert_allclose(
                lats, probe._visibility(time_s)[1], atol=1e-9
            )

    def test_tile_order_is_a_compact_partition(self):
        cells = _grid_cells(rows=17, cols=13)
        order, bounds = _tile_order(cells, 10)
        np.testing.assert_array_equal(np.sort(order), np.arange(len(cells)))
        sizes = np.diff(bounds)
        assert bounds[0] == 0 and bounds[-1] == len(cells)
        assert sizes.min() >= 1 and sizes.max() <= 10
        assert len(sizes) == -(-len(cells) // 10)  # no needless tiles
        tiles = _CellTiles(cells, tile_cells=10)
        for tile, (lo, hi) in enumerate(tiles.spans):
            members = cells[order[lo:hi]]
            reach = np.linalg.norm(members - tiles.centers[tile], axis=1)
            assert reach.max() <= tiles.radii[tile]

    def test_cell_exactly_at_chord_radius_is_visible(self):
        # Find a (cell, satellite) pair whose squared distance is exactly
        # the square of some float chord: the `<=` boundary itself.
        cells = _grid_cells()
        sat = cells.mean(axis=0) * (6921.0 / 6371.0)
        tiles = _CellTiles(cells, tile_cells=16)
        for cell in range(len(cells)):
            delta = cells[cell] - sat
            dist2 = delta[0] * delta[0]
            dist2 += delta[1] * delta[1]
            dist2 += delta[2] * delta[2]
            chord = np.sqrt(dist2)
            nearby = (chord, np.nextafter(chord, 0), np.nextafter(chord, np.inf))
            for candidate in nearby:
                if candidate * candidate == dist2:
                    break
            else:
                continue
            csr, evaluated = assert_tiles_match_oracle(
                tiles, cells, sat[None, :], [candidate]
            )
            assert 0 in csr.cell(cell)
            assert evaluated > 0
            below = np.nextafter(candidate, 0)
            assert below * below < dist2
            csr, _ = assert_tiles_match_oracle(tiles, cells, sat[None, :], [below])
            assert 0 not in csr.cell(cell)
            return
        pytest.fail("no cell landed exactly on a representable chord")

    def test_satellites_on_tile_cull_edges(self):
        # Satellites at `tile_radius + chord` and `chord - tile_radius`
        # from each tile's center (the two cull thresholds, decided by
        # the cells on the tile's bounding sphere), and one metre either
        # side.
        cells = _grid_cells()
        tiles = _CellTiles(cells, tile_cells=9)
        chord = 150.0
        rng = np.random.default_rng(7)
        sats = []
        for center, radius in zip(tiles.centers, tiles.radii):
            for distance in (radius + chord, chord - radius):
                for nudge in (-1e-3, 0.0, 1e-3):
                    sats.append(_offset_points(center, [distance + nudge], rng)[0])
        # Along the ray through each tile's farthest cell, one chord out
        # and one chord in: that edge cell sits on the boundary.
        for tile, (lo, hi) in enumerate(tiles.spans):
            members = cells[tiles.order[lo:hi]]
            reach = np.linalg.norm(members - tiles.centers[tile], axis=1)
            far = members[np.argmax(reach)]
            direction = (far - tiles.centers[tile]) / tiles.radii[tile]
            sats.append(far + direction * chord)
            sats.append(far - direction * chord)
        sats = np.array(sats)
        chords = np.full(len(sats), chord)
        assert_tiles_match_oracle(tiles, cells, sats, chords)
        # Per-satellite chords: alternate two shells' radii.
        chords[::2] = 149.0
        assert_tiles_match_oracle(tiles, cells, sats, chords)

    def test_footprint_covering_whole_tiles_takes_the_shortcut(self):
        cells = _grid_cells()
        tiles = _CellTiles(cells, tile_cells=16)
        sat = cells.mean(axis=0) * (6921.0 / 6371.0)
        csr, evaluated = assert_tiles_match_oracle(
            tiles, cells, sat[None, :], [5000.0]
        )
        assert evaluated == 0  # every tile covered whole, nothing tested
        assert csr.nnz == len(cells)

    def test_footprint_grazing_a_tile(self):
        cells = _grid_cells()
        tiles = _CellTiles(cells, tile_cells=16)
        chord = 300.0
        rng = np.random.default_rng(11)
        for tile in range(len(tiles.spans)):
            sat = _offset_points(
                tiles.centers[tile], [tiles.radii[tile] + chord - 5.0], rng
            )
            csr, evaluated = assert_tiles_match_oracle(tiles, cells, sat, [chord])
            lo, hi = tiles.spans[tile]
            assert evaluated >= hi - lo  # the grazed tile was tested
            assert csr.nnz < len(cells)

    def test_empty_inputs(self):
        tiles = _CellTiles(np.empty((0, 3)))
        relation, evaluated, kept = tiles.visible(
            np.empty((0, 3)), np.empty(0, dtype=np.int64), np.empty(0), 0
        )
        np.testing.assert_array_equal(relation.indptr, [0])
        assert relation.indices.size == evaluated == kept == 0
        cells = _grid_cells(rows=2, cols=2)
        csr, evaluated = assert_tiles_match_oracle(
            _CellTiles(cells), cells, np.empty((0, 3)), []
        )
        assert csr.nnz == evaluated == 0
