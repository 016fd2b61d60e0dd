"""The shard store built the direct way: a differential oracle for
:meth:`repro.serve.shards.ShardStore.from_table`.

One ``np.lexsort`` orders the rows, ``np.unique`` with index and counts
gives the cell directory, and a unique count is the duplicate-id check.
The store must match every array bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ServeError

ARRAYS = (
    "location_id",
    "cell_key",
    "county_id",
    "lat_deg",
    "lon_deg",
    "unique_keys",
    "cell_starts",
    "row_cell",
    "rank_in_cell",
    "_id_order",
    "_ids_sorted",
)


def reference_store(table, target_shard_rows):
    """Every :class:`ShardStore` array, built with sorts and ``np.unique``."""
    order = np.lexsort((table.location_id, table.cell_key))
    columns = ("location_id", "cell_key", "county_id", "lat_deg", "lon_deg")
    arrays = {name: getattr(table, name)[order] for name in columns}
    location_id = arrays["location_id"]
    n = len(location_id)
    if n and len(np.unique(location_id)) != n:
        raise ServeError("duplicate location ids in table")
    unique_keys, first_rows, per_cell = np.unique(
        arrays["cell_key"], return_index=True, return_counts=True
    )
    cell_starts = np.concatenate(
        [first_rows, np.array([n], dtype=np.int64)]
    ).astype(np.int64)
    row_cell = np.repeat(
        np.arange(len(unique_keys), dtype=np.int64), per_cell
    )
    id_order = np.argsort(location_id, kind="stable")
    arrays.update(
        unique_keys=unique_keys,
        cell_starts=cell_starts,
        row_cell=row_cell,
        rank_in_cell=np.arange(n, dtype=np.int64) - cell_starts[row_cell],
        _id_order=id_order,
        _ids_sorted=location_id[id_order],
    )
    cuts, start = [], 0
    for stop in range(1, len(unique_keys) + 1):
        rows = cell_starts[stop] - cell_starts[start]
        if rows >= target_shard_rows or stop == len(unique_keys):
            cuts.append((start, stop))
            start = stop
    return arrays, cuts
