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
    group_pairs,
)


@pytest.fixture(scope="module")
def regional_sim(regional_dataset):
    return ConstellationSimulation(GEN1_SHELLS[:2], regional_dataset)


@pytest.fixture(scope="module")
def gateway_sim(regional_dataset):
    return ConstellationSimulation(
        GEN1_SHELLS[:1], regional_dataset, gateways=DEFAULT_CONUS_GATEWAYS
    )


def assert_matches_reference(sim, time_s):
    """Fast index output == reference rebuild output, cell for cell."""
    csr, fast_lats = sim.visibility_index.query(time_s)
    reference, reference_lats = sim._visibility(time_s)
    assert csr.n_cells == len(reference)
    for cell_index, expected in enumerate(reference):
        np.testing.assert_array_equal(csr.cell(cell_index), expected)
    np.testing.assert_allclose(fast_lats, reference_lats, atol=1e-9)


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
    @pytest.mark.parametrize("time_s", [0.0, 60.0, 600.0, 3600.0])
    def test_matches_reference_rebuild(self, regional_sim, time_s):
        assert_matches_reference(regional_sim, time_s)

    @pytest.mark.parametrize("time_s", [0.0, 300.0])
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

    @pytest.mark.parametrize("window", [0, -3, True, "fast", 2.5])
    def test_rejects_bad_windows(self, regional_sim, window):
        with pytest.raises(SimulationError):
            VisibilityIndex(
                regional_sim.walkers,
                regional_sim._cell_ecef,
                regional_sim._chord_radii,
                window=window,
            )

    def test_configure_window_validates_too(self, regional_sim):
        index = _paired_indexes(regional_sim, 1, None)[0]
        with pytest.raises(SimulationError):
            index.configure_window(window=0)
        index.configure_window(window="auto", step_hint_s=15.0)
        assert index._window == "auto"


class TestGroupPairs:
    """The O(nnz) CSR grouping vs the fused-argsort it replaced."""

    def _reference_indptr(self, cells, n_cells):
        indptr = np.zeros(n_cells + 1, dtype=np.int64)
        np.cumsum(np.bincount(cells, minlength=n_cells), out=indptr[1:])
        return indptr

    def test_empty_pairs(self):
        indptr, order = group_pairs(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 4, 9
        )
        np.testing.assert_array_equal(indptr, np.zeros(5, dtype=np.int64))
        assert order.size == 0

    def test_matches_fused_argsort_on_random_pairs(self):
        rng = np.random.default_rng(20250807)
        for _ in range(25):
            n_cells = int(rng.integers(1, 24))
            n_sats = int(rng.integers(1, 24))
            universe = n_cells * n_sats
            nnz = int(rng.integers(0, universe + 1))
            flat = rng.choice(universe, size=nnz, replace=False)
            cells = (flat // n_sats).astype(np.int64)
            sats = (flat % n_sats).astype(np.int64)
            indptr, order = group_pairs(cells, sats, n_cells, n_sats)
            # Small enough that the legacy fused key cannot overflow.
            fused = np.argsort(cells * n_sats + sats)
            np.testing.assert_array_equal(sats[order], sats[fused])
            np.testing.assert_array_equal(cells[order], cells[fused])
            np.testing.assert_array_equal(
                indptr, self._reference_indptr(cells, n_cells)
            )

    def test_duplicate_pair_raises(self):
        cells = np.array([2, 0, 2], dtype=np.int64)
        sats = np.array([7, 1, 7], dtype=np.int64)
        with pytest.raises(SimulationError):
            group_pairs(cells, sats, 3, 9)

    def test_immune_to_fused_key_overflow(self):
        # With n_satellites = 2**62 the legacy key
        # ``cells * n_satellites + sats`` wraps int64 for any cell >= 2,
        # scrambling the grouping. The counting sort never forms the
        # product, so satellite ids up to the full int64 range group
        # correctly.
        n_satellites = 2**62
        cells = np.array([2, 0, 2, 1], dtype=np.int64)
        sats = np.array([2**61, 5, 3, 2**60], dtype=np.int64)
        indptr, order = group_pairs(cells, sats, 3, n_satellites)
        np.testing.assert_array_equal(indptr, [0, 1, 2, 4])
        np.testing.assert_array_equal(sats[order], [5, 2**60, 3, 2**61])
        np.testing.assert_array_equal(cells[order], [0, 1, 2, 2])


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


def _paired_indexes(sim, window, step_hint_s):
    """A windowed index and an exact per-step rebuild twin for one sim."""

    def build(window_setting, hint):
        kwargs = {}
        if sim.gateways:
            kwargs = dict(
                gateway_ecef=sim._gateway_ecef,
                gateway_radii_km=sim._gateway_radii,
            )
        return VisibilityIndex(
            sim.walkers,
            sim._cell_ecef,
            sim._chord_radii,
            window=window_setting,
            step_hint_s=hint,
            **kwargs,
        )

    return build(window, step_hint_s), build(1, None)


def assert_windowed_matches_rebuild(sim, times_s, window, step_hint_s):
    """Bit-identity of the cached-candidate mode against the rebuild."""
    cached, exact = _paired_indexes(sim, window, step_hint_s)
    for time_s in times_s:
        cached_csr, cached_lats = cached.query(time_s)
        exact_csr, exact_lats = exact.query(time_s)
        np.testing.assert_array_equal(cached_csr.indptr, exact_csr.indptr)
        np.testing.assert_array_equal(cached_csr.indices, exact_csr.indices)
        np.testing.assert_array_equal(cached_lats, exact_lats)
    return cached


class TestWindowedVisibility:
    """Cached-candidate windows == per-step rebuilds, bit for bit."""

    def test_full_orbital_period_multi_shell(self, regional_sim):
        # One full orbit of the lowest shell, sampled at a step count
        # (23) not divisible by the window (5): the final window is
        # ragged and the constellation returns to its epoch geometry.
        period_s = 2.0 * np.pi / regional_sim.walkers[0].mean_motion_rad_s
        step_s = period_s / 22.0
        times = [index * step_s for index in range(23)]
        cached = assert_windowed_matches_rebuild(
            regional_sim, times, window=5, step_hint_s=step_s
        )
        assert cached.last_query_stats["mode"] == "cached"

    def test_window_boundaries_with_ragged_tail(self, regional_sim):
        # 23 steps through windows of 4: rebuilds must land exactly on
        # steps 0, 4, 8, ... and every in-window step must still match.
        times = [index * 30.0 for index in range(23)]
        cached, exact = _paired_indexes(regional_sim, 4, 30.0)
        rebuilds = 0
        for time_s in times:
            cached_csr, _ = cached.query(time_s)
            exact_csr, _ = exact.query(time_s)
            np.testing.assert_array_equal(
                cached_csr.indptr, exact_csr.indptr
            )
            np.testing.assert_array_equal(
                cached_csr.indices, exact_csr.indices
            )
            stats = cached.last_query_stats
            assert stats["window_rebuilt"] == (time_s % 120.0 == 0.0)
            rebuilds += stats["window_rebuilt"]
            assert stats["candidates"] >= stats["kept"] == cached_csr.nnz
            assert 0.0 <= stats["refine_ratio"] <= 1.0
        assert rebuilds == 6  # ceil(23 / 4)

    def test_gateway_mask_applied_inside_windows(self, gateway_sim):
        times = [index * 60.0 for index in range(7)]
        assert_windowed_matches_rebuild(
            gateway_sim, times, window=3, step_hint_s=60.0
        )

    def test_out_of_order_query_times_still_exact(self, regional_sim):
        # Jumping backwards out of the cached window must trigger a
        # rebuild, never a wrong answer.
        times = [300.0, 330.0, 0.0, 360.0, 30.0, 300.0]
        assert_windowed_matches_rebuild(
            regional_sim, times, window=4, step_hint_s=30.0
        )

    def test_auto_mode_is_exact_at_fine_steps(self, regional_sim):
        # The tiled exact kernel beats every window length at 1-30 s
        # steps, so "auto" no longer caches even at 1 s.
        auto, exact = _paired_indexes(regional_sim, "auto", 1.0)
        for time_s in (0.0, 1.0, 2.0, 3.0):
            auto_csr, _ = auto.query(time_s)
            exact_csr, _ = exact.query(time_s)
            np.testing.assert_array_equal(auto_csr.indptr, exact_csr.indptr)
            np.testing.assert_array_equal(auto_csr.indices, exact_csr.indices)
            assert auto.last_query_stats["mode"] == "rebuild"
            assert auto.last_query_stats["window_steps"] == 1

    def test_auto_mode_rebuilds_at_coarse_steps(self, regional_sim):
        cached, _ = _paired_indexes(regional_sim, "auto", 60.0)
        cached.query(0.0)
        assert cached.last_query_stats["mode"] == "rebuild"
        assert cached.last_query_stats["window_steps"] == 1

    def test_window_without_hint_falls_back_then_infers(self, regional_sim):
        cached, exact = _paired_indexes(regional_sim, 4, None)
        cached_csr, _ = cached.query(0.0)
        assert cached.last_query_stats["mode"] == "rebuild"
        for time_s in (20.0, 40.0, 60.0):
            cached_csr, _ = cached.query(time_s)
            exact_csr, _ = exact.query(time_s)
            np.testing.assert_array_equal(
                cached_csr.indptr, exact_csr.indptr
            )
            np.testing.assert_array_equal(
                cached_csr.indices, exact_csr.indices
            )
        assert cached.last_query_stats["mode"] == "cached"

    @given(
        window=st.integers(min_value=2, max_value=6),
        step_s=st.floats(min_value=5.0, max_value=240.0),
        start_s=st.floats(min_value=0.0, max_value=86400.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_random_windows_match_rebuild(
        self, regional_sim, window, step_s, start_s
    ):
        times = [start_s + index * step_s for index in range(window + 2)]
        assert_windowed_matches_rebuild(
            regional_sim, times, window=window, step_hint_s=step_s
        )

    @given(
        altitude_km=st.floats(min_value=420.0, max_value=1300.0),
        inclination_deg=st.floats(min_value=35.0, max_value=97.0),
        planes=st.integers(min_value=2, max_value=6),
        sats_per_plane=st.integers(min_value=2, max_value=8),
        window=st.integers(min_value=2, max_value=5),
        step_s=st.floats(min_value=10.0, max_value=120.0),
    )
    @settings(max_examples=8, deadline=None)
    def test_random_constellations_match_rebuild(
        self,
        regional_dataset,
        altitude_km,
        inclination_deg,
        planes,
        sats_per_plane,
        window,
        step_s,
    ):
        shell = Shell(
            name="hypothesis",
            satellite_count=planes * sats_per_plane,
            altitude_km=altitude_km,
            inclination_deg=inclination_deg,
            planes=planes,
            sats_per_plane=sats_per_plane,
        )
        sim = ConstellationSimulation([shell], regional_dataset)
        times = [index * step_s for index in range(window + 2)]
        assert_windowed_matches_rebuild(
            sim, times, window=window, step_hint_s=step_s
        )


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
    indptr, indices, evaluated, kept = tiles.visible(
        sat_ecef, np.arange(len(sat_ecef), dtype=np.int64), chord_km
    )
    csr = CSRVisibility(indptr=indptr, indices=indices, n_satellites=len(sat_ecef))
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
            sim = ConstellationSimulation(
                shells, dataset, gateways=gateways, visibility_window=1
            )
            for time_s in times_s:
                assert_matches_reference(sim, time_s)
                assert sim.visibility_index.last_query_stats["mode"] == "rebuild"
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
        indptr, indices, evaluated, kept = tiles.visible(
            np.empty((0, 3)), np.empty(0, dtype=np.int64), np.empty(0)
        )
        np.testing.assert_array_equal(indptr, [0])
        assert indices.size == evaluated == kept == 0
        cells = _grid_cells(rows=2, cols=2)
        csr, evaluated = assert_tiles_match_oracle(
            _CellTiles(cells), cells, np.empty((0, 3)), []
        )
        assert csr.nnz == evaluated == 0
