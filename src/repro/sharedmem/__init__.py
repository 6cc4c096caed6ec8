"""Shared-memory substrate: packed records, RW locks, the map store."""

from .records import (
    keyframe_record_size,
    mappoint_record_size,
    read_keyframe_record,
    read_mappoint_record,
    write_keyframe_record,
    write_mappoint_record,
)
from .prwlock import ProcessRWLock
from .rwlock import RWLock
from .shm_backend import SharedMemoryRegion
from .snapshot import (
    LoadedSnapshot,
    SnapshotError,
    SnapshotInfo,
    load_snapshot,
    restore_into_store,
    restore_map,
    save_snapshot,
)
from .shm_store import (
    DEFAULT_CAPACITY,
    ArenaError,
    ArenaStats,
    ShardedMapStore,
    SharedMapPack,
    ShmMapLayout,
    ShmShardedMapStore,
    ShmStoreHandle,
    StoreStats,
    spatial_shard,
)

__all__ = [
    "ArenaError",
    "ArenaStats",
    "DEFAULT_CAPACITY",
    "ProcessRWLock",
    "RWLock",
    "ShardedMapStore",
    "SharedMapPack",
    "ShmMapLayout",
    "ShmShardedMapStore",
    "ShmStoreHandle",
    "spatial_shard",
    "SharedMemoryRegion",
    "StoreStats",
    "LoadedSnapshot",
    "SnapshotError",
    "SnapshotInfo",
    "load_snapshot",
    "restore_into_store",
    "restore_map",
    "save_snapshot",
    "keyframe_record_size",
    "mappoint_record_size",
    "read_keyframe_record",
    "read_mappoint_record",
    "write_keyframe_record",
    "write_mappoint_record",
]
