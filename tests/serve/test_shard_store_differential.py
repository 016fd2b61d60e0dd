"""``ShardStore.from_table`` against the sort-based reference construction.

The store reads its cell directory and duplicate-id check off arrays it
already holds sorted; ``shards_reference`` builds every array with
``np.lexsort`` and ``np.unique``. The two must agree bit for bit, on
both sort paths, for any table.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import obs
from repro.demand.locations import LocationTable
from repro.errors import ServeError
from repro.serve.shards import ShardStore

from tests.serve.shards_reference import ARRAYS, reference_store


def _table(cell_keys, location_ids):
    n = len(cell_keys)
    keys = np.asarray(cell_keys, dtype=np.uint64)
    return LocationTable(
        location_id=np.asarray(location_ids, dtype=np.int64),
        lat_deg=np.linspace(36.0, 38.0, n),
        lon_deg=np.linspace(-84.0, -82.0, n),
        cell_key=keys,
        county_id=(keys % np.uint64(7)).astype(np.int64),
        technology=np.zeros(n, dtype=np.int16),
        max_download_mbps=np.zeros(n),
        max_upload_mbps=np.zeros(n),
    )


def _fused_path_applies(table):
    """The fused path's precondition: ascending ids, one run per key."""
    keys, ids = table.cell_key, table.location_id
    if len(keys) == 0 or not np.all(ids[1:] > ids[:-1]):
        return False
    runs = 1 + int(np.count_nonzero(keys[1:] != keys[:-1]))
    return runs == len(np.unique(keys))


def _assert_matches_reference(table, target_shard_rows=3):
    fast_path = obs.registry().counter("serve.shards.grouped_fast_path")
    before = fast_path.value
    store = ShardStore.from_table(table, target_shard_rows)
    assert fast_path.value - before == int(_fused_path_applies(table))
    arrays, cuts = reference_store(table, target_shard_rows)
    for name in ARRAYS:
        got, want = getattr(store, name), arrays[name]
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert [(s.cell_start, s.cell_stop) for s in store.shards] == cuts
    cell_starts = arrays["cell_starts"]
    for i, shard in enumerate(store.shards):
        assert shard.index == i
        assert shard.row_start == cell_starts[shard.cell_start]
        assert shard.row_stop == cell_starts[shard.cell_stop]


#: Cell keys spanning the whole uint64 range, so a signed comparison
#: anywhere would misorder them.
key_pools = st.lists(
    st.integers(min_value=0, max_value=2**64 - 1),
    min_size=1,
    max_size=6,
    unique=True,
)


@st.composite
def grouped_tables(draw):
    """Exploded-table shape: one run per key, strictly ascending ids."""
    pool = draw(key_pools)
    lens = draw(
        st.lists(
            st.integers(min_value=1, max_value=5),
            min_size=len(pool),
            max_size=len(pool),
        )
    )
    gaps = draw(
        st.lists(
            st.integers(min_value=1, max_value=4),
            min_size=sum(lens),
            max_size=sum(lens),
        )
    )
    keys = np.repeat(np.asarray(pool, dtype=np.uint64), lens)
    return _table(keys, np.cumsum(gaps) - 1)


@st.composite
def any_tables(draw):
    """Arbitrary row order: split key runs, unordered unique ids."""
    pool = draw(key_pools)
    n = draw(st.integers(min_value=0, max_value=40))
    keys = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    ids = draw(
        st.lists(
            st.integers(min_value=-(10**12), max_value=10**12),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    return _table(keys, ids)


@given(grouped_tables(), st.integers(min_value=1, max_value=8))
@settings(max_examples=100, deadline=None)
def test_grouped_tables_match_reference(table, target_shard_rows):
    assert _fused_path_applies(table)
    _assert_matches_reference(table, target_shard_rows)


@given(any_tables(), st.integers(min_value=1, max_value=8))
@settings(max_examples=150, deadline=None)
def test_any_table_matches_reference(table, target_shard_rows):
    _assert_matches_reference(table, target_shard_rows)


@given(grouped_tables(), st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_shuffled_grouped_tables_match_reference(table, rnd):
    perm = list(range(len(table)))
    rnd.shuffle(perm)
    shuffled = _table(table.cell_key[perm], table.location_id[perm])
    _assert_matches_reference(shuffled)


def test_split_key_run_takes_lexsort_path():
    table = _table([5, 5, 9, 9, 5], np.arange(5))
    assert not _fused_path_applies(table)
    _assert_matches_reference(table)


def test_non_ascending_ids_take_lexsort_path():
    table = _table([3, 3, 8, 8], [4, 2, 9, 11])
    assert not _fused_path_applies(table)
    _assert_matches_reference(table)


@pytest.mark.parametrize("n", [0, 1])
def test_empty_and_one_row_tables(n):
    _assert_matches_reference(_table([42] * n, [7] * n))


@pytest.mark.parametrize(
    "keys, ids",
    [
        ([1, 2, 3], [5, 1, 5]),  # same id in different cells
        ([4, 4, 4, 4], [8, 3, 6, 8]),  # same id twice in one cell
        ([9, 2, 9, 2, 9], [0, 1, 2, 3, 1]),
    ],
)
def test_non_adjacent_duplicate_ids_raise(keys, ids):
    table = _table(keys, ids)
    with pytest.raises(ServeError, match="duplicate location ids"):
        reference_store(table, 3)
    with pytest.raises(ServeError, match="duplicate location ids"):
        ShardStore.from_table(table, 3)


@given(any_tables(), st.data())
@settings(max_examples=100, deadline=None)
def test_any_duplicated_id_raises(table, data):
    assume(len(table) >= 2)
    i, j = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=len(table) - 1),
            min_size=2,
            max_size=2,
            unique=True,
        )
    )
    ids = table.location_id.copy()
    ids[j] = ids[i]
    with pytest.raises(ServeError, match="duplicate location ids"):
        ShardStore.from_table(_table(table.cell_key, ids))
