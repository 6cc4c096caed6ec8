"""Spatially sharded map store (the global map's record store, §4.3.2).

``ShardedMapStore`` is :class:`~repro.sharedmem.shm_store.ShmShardedMapStore`
under the name the single-process serving path uses: the same class,
whose constructor builds the heap backing.  Spatial routing, sticky
placement, ordered multi-shard write locks and compaction are described
in :mod:`repro.sharedmem.shm_store`.
"""

from .shm_store import (
    DEFAULT_CAPACITY,
    ShardedMapStore,
    StoreStats,
    spatial_shard,
)

__all__ = ["DEFAULT_CAPACITY", "ShardedMapStore", "StoreStats", "spatial_shard"]
