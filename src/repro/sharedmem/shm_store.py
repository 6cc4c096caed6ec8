"""True shared-memory map tier: one segment, N attached processes.

This module backs the shared-map abstractions with a real
``multiprocessing.shared_memory`` segment so separate OS processes —
not threads under the GIL — read and write the global map zero-copy,
the deployment the paper actually describes (§4.3.2: the orchestrator
allocates the region, each per-client server process "searches and
attaches the shared memory buffer to its own virtual address space").

Everything lives in **one arena** (a single named segment):

::

    +--------------------------------------------------------------+
    | global header (64 B): magic, layout ver, n_shards,           |
    |   pack_capacity, shard_slab_bytes, region_size               |
    +--------------------------------------------------------------+
    | map pack slab:                                               |
    |   header (64 B): count u64 | version u64 | capacity u64 |    |
    |                  lock word (16 B)                            |
    |   positions   f64[capacity, 3]    <- PR-2/5 packed matrices  |
    |   descriptors u8 [capacity, 32]                              |
    |   point_ids   i64[capacity]                                  |
    +--------------------------------------------------------------+
    | shard slab 0..n-1 (each shard_slab_bytes):                   |
    |   header (64 B): bytes_used u64 | n_records u64 |            |
    |                  version u64 | lock word (16 B)              |
    |   append-only record log:                                    |
    |     (kind u32 | flags u32 | entity_id u64 | size u64)        |
    |     + packed keyframe/mappoint record, 8-aligned             |
    +--------------------------------------------------------------+

The *map pack* holds the map's packed ``(n, 3)`` position and
``(n, 32)`` descriptor matrices as numpy views straight over the
segment — worker processes run the vectorized tracking kernels
(Hamming matching, projection search) on them with zero copies.  The
*shard slabs* are the record store: a bump-cursor log per spatial
shard whose cursor (``bytes_used``) lives in the shard header, i.e.
the allocator state itself is in shared memory.  Each shard and the
pack are guarded by a :class:`~repro.sharedmem.prwlock.ProcessRWLock`
whose lock word sits in the corresponding header.

Record indexes (entity id -> log offset) are process-local caches,
rebuilt incrementally by scanning the log tail under the shard lock —
deterministic because appends are serialized by the write lock.
Sticky id->shard routing works cross-process the same way: a record's
shard is fixed by the spatial hash of its *creation* position, and a
process learns placements by reading; updates always append to the
shard the entity already lives in.
"""

from __future__ import annotations

import multiprocessing as mp
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_metrics, get_tracer
from ..slam.keyframe import KeyFrame
from ..slam.mappoint import MapPoint
from .arena import ArenaError, ArenaStats
from .prwlock import ProcessRWLock
from .records import (
    keyframe_record_size,
    mappoint_record_size,
    read_keyframe_record,
    read_mappoint_record,
    write_keyframe_record,
    write_mappoint_record,
)
from .sharding import StoreStats, spatial_shard
from .shm_backend import SharedMemoryRegion

_tracer = get_tracer()
_metrics = get_metrics()
_publishes_total = _metrics.counter(
    "sharedmem.publishes", "map-update batches published"
)
_publish_bytes = _metrics.counter(
    "sharedmem.publish_bytes", "bytes written by map publishes"
)
_compactions_total = _metrics.counter(
    "sharedmem.compactions", "store compaction passes"
)
_reclaimed_bytes = _metrics.counter(
    "sharedmem.reclaimed_bytes", "bytes reclaimed by store compaction"
)

MAGIC = 0x534C4D53  # "SLMS"
LAYOUT_VERSION = 1
_GLOBAL_HEADER = struct.Struct("<IIIIQQd")
HEADER_BYTES = 64
_SLAB_COUNTS = struct.Struct("<QQQ")     # count/bytes_used, version, capacity
_LOCK_WORD_OFFSET = 24                   # within a slab header
# Compaction epoch (u64) after the 16-byte lock word; bumped whenever a
# shard's log is rewritten in place so every attached process knows its
# cached offsets and scan cursor are stale and rescans from offset 0.
_SLAB_EPOCH_OFFSET = 40
_SLAB_EPOCH = struct.Struct("<Q")
_RECORD_PREFIX = struct.Struct("<IIQQ")  # kind, flags, entity_id, size

KIND_KEYFRAME = 1
KIND_MAPPOINT = 2
KIND_KEYFRAME_REMOVE = 3
KIND_MAPPOINT_REMOVE = 4

_POS_BYTES = 24       # f64[3]
_DESC_BYTES = 32      # u8[32]
_ID_BYTES = 8         # i64


def _align8(n: int) -> int:
    return (n + 7) & ~7


@dataclass(frozen=True)
class ShmMapLayout:
    """Offset arithmetic for the single-segment map arena."""

    n_shards: int = 8
    pack_capacity: int = 65536
    shard_slab_bytes: int = 4 * 1024 * 1024
    region_size: float = 8.0

    @property
    def pack_offset(self) -> int:
        return HEADER_BYTES

    @property
    def pack_positions_offset(self) -> int:
        return self.pack_offset + HEADER_BYTES

    @property
    def pack_descriptors_offset(self) -> int:
        return self.pack_positions_offset + self.pack_capacity * _POS_BYTES

    @property
    def pack_ids_offset(self) -> int:
        return self.pack_descriptors_offset + self.pack_capacity * _DESC_BYTES

    @property
    def shards_offset(self) -> int:
        return _align8(self.pack_ids_offset + self.pack_capacity * _ID_BYTES)

    def shard_offset(self, index: int) -> int:
        return self.shards_offset + index * self.shard_slab_bytes

    @property
    def shard_log_capacity(self) -> int:
        return self.shard_slab_bytes - HEADER_BYTES

    @property
    def total_bytes(self) -> int:
        return self.shards_offset + self.n_shards * self.shard_slab_bytes

    def write_global_header(self, buf: memoryview) -> None:
        _GLOBAL_HEADER.pack_into(
            buf, 0, MAGIC, LAYOUT_VERSION, self.n_shards, 0,
            self.pack_capacity, self.shard_slab_bytes, self.region_size,
        )

    @classmethod
    def from_global_header(cls, buf: memoryview) -> "ShmMapLayout":
        magic, version, n_shards, _, cap, slab, region = (
            _GLOBAL_HEADER.unpack_from(buf, 0)
        )
        if magic != MAGIC:
            raise ValueError("segment does not hold a SLAM-share map arena")
        if version != LAYOUT_VERSION:
            raise ValueError(
                f"layout version mismatch: segment v{version}, "
                f"code v{LAYOUT_VERSION}"
            )
        return cls(n_shards=n_shards, pack_capacity=cap,
                   shard_slab_bytes=slab, region_size=region)


class SharedMapPack:
    """The map's packed matrices as numpy views over the segment.

    ``positions``/``descriptors``/``point_ids`` are zero-copy views;
    row ``i`` of each belongs to one map point.  Readers hold the pack
    read lock for the duration of a kernel call
    (:meth:`read`); writers append rows or nudge positions in place
    under the write lock, bumping ``version``.
    """

    def __init__(self, buffer: memoryview, layout: ShmMapLayout,
                 lock: ProcessRWLock) -> None:
        self._buf = buffer
        self._layout = layout
        self.lock = lock
        cap = layout.pack_capacity
        self.positions = np.frombuffer(
            buffer, dtype="<f8", count=cap * 3,
            offset=layout.pack_positions_offset,
        ).reshape(cap, 3)
        self.descriptors = np.frombuffer(
            buffer, dtype=np.uint8, count=cap * _DESC_BYTES,
            offset=layout.pack_descriptors_offset,
        ).reshape(cap, _DESC_BYTES)
        self.point_ids = np.frombuffer(
            buffer, dtype="<i8", count=cap,
            offset=layout.pack_ids_offset,
        )

    # ------------------------------------------------------------- header
    def _counts(self) -> Tuple[int, int, int]:
        return _SLAB_COUNTS.unpack_from(self._buf, self._layout.pack_offset)

    def _set_counts(self, count: int, version: int) -> None:
        _SLAB_COUNTS.pack_into(self._buf, self._layout.pack_offset,
                               count, version, self._layout.pack_capacity)

    @property
    def capacity(self) -> int:
        return self._layout.pack_capacity

    @property
    def count(self) -> int:
        return self._counts()[0]

    @property
    def version(self) -> int:
        return self._counts()[1]

    # -------------------------------------------------------------- write
    def append(self, positions, descriptors, point_ids) -> Tuple[int, int]:
        """Append rows under the write lock; returns the (start, end) range."""
        positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
        descriptors = np.atleast_2d(np.asarray(descriptors, dtype=np.uint8))
        point_ids = np.atleast_1d(np.asarray(point_ids, dtype=np.int64))
        n = len(positions)
        with self.lock.write():
            count, version, _ = self._counts()
            if count + n > self.capacity:
                raise ArenaError(
                    f"map pack exhausted: {count}+{n} > {self.capacity}"
                )
            self.positions[count : count + n] = positions
            self.descriptors[count : count + n] = descriptors
            self.point_ids[count : count + n] = point_ids
            self._set_counts(count + n, version + 1)
            return count, count + n

    def set_positions(self, rows, positions) -> None:
        """Nudge existing rows (a BA update) in place under the write lock."""
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
        with self.lock.write():
            count, version, _ = self._counts()
            if len(rows) and int(rows.max()) >= count:
                raise IndexError("set_positions beyond the appended range")
            self.positions[rows] = positions
            self._set_counts(count, version + 1)

    # --------------------------------------------------------------- read
    @contextmanager
    def read(self):
        """Yield ``(positions, descriptors, point_ids, version)`` views of
        the appended rows, valid while the read lock is held."""
        with self.lock.read():
            count, version, _ = self._counts()
            yield (self.positions[:count], self.descriptors[:count],
                   self.point_ids[:count], version)

    def snapshot(self):
        """Copy of the appended rows (safe to use after the lock drops)."""
        with self.read() as (pos, desc, ids, version):
            return pos.copy(), desc.copy(), ids.copy(), version


class _ShmShard:
    """Process-local handle on one shard slab."""

    __slots__ = ("index", "header_offset", "log_offset", "log_capacity",
                 "lock", "kf_index", "mp_index", "scanned", "epoch",
                 "writes", "reads")

    def __init__(self, index: int, layout: ShmMapLayout,
                 lock: ProcessRWLock) -> None:
        self.index = index
        self.header_offset = layout.shard_offset(index)
        self.log_offset = self.header_offset + HEADER_BYTES
        self.log_capacity = layout.shard_log_capacity
        self.lock = lock
        self.kf_index: Dict[int, tuple] = {}
        self.mp_index: Dict[int, tuple] = {}
        self.scanned = 0          # log bytes this process has indexed
        self.epoch = 0            # compaction epoch our index reflects
        self.writes = 0
        self.reads = 0


@dataclass
class ShmStoreHandle:
    """Picklable attach ticket: segment name + layout + shared locks.

    Pass it to a worker ``Process`` at spawn time (the conditions inside
    the locks only pickle on that path) and call :meth:`attach` there.
    """

    segment_name: str
    layout: ShmMapLayout
    pack_lock: ProcessRWLock
    shard_locks: List[ProcessRWLock]

    def attach(self) -> "ShmShardedMapStore":
        return ShmShardedMapStore.attach(self)


class ShmShardedMapStore:
    """Cross-process :class:`~repro.sharedmem.sharding.ShardedMapStore`.

    Same public surface (put/get/remove, ``publish_map``, ordered
    ``write_transaction``, ``stats``/``shard_stats``) but every byte of
    state that must be shared — payload records, allocator cursors,
    lock words, the packed map matrices — lives in one named shared
    segment that any number of worker processes attach.
    """

    def __init__(self, region: SharedMemoryRegion, layout: ShmMapLayout,
                 pack_lock: ProcessRWLock,
                 shard_locks: Sequence[ProcessRWLock],
                 owner: bool) -> None:
        if len(shard_locks) != layout.n_shards:
            raise ValueError("one lock per shard required")
        self.region = region
        self.layout = layout
        self.n_shards = layout.n_shards
        self.region_size = layout.region_size
        buf = region.buffer
        pack_lock.bind(buf, layout.pack_offset + _LOCK_WORD_OFFSET)
        self.pack = SharedMapPack(buf, layout, pack_lock)
        self.shards: List[_ShmShard] = []
        for i, lock in enumerate(shard_locks):
            lock.bind(buf, layout.shard_offset(i) + _LOCK_WORD_OFFSET)
            self.shards.append(_ShmShard(i, layout, lock))
        self._owner = owner
        self._kf_shard: Dict[int, int] = {}
        self._mp_shard: Dict[int, int] = {}

    # ---------------------------------------------------------- lifecycle
    @classmethod
    def create(
        cls,
        n_shards: int = 8,
        pack_capacity: int = 65536,
        shard_slab_bytes: int = 4 * 1024 * 1024,
        region_size: float = 8.0,
        ctx=None,
        name: Optional[str] = None,
        lock_timeout_s: Optional[float] = None,
    ) -> "ShmShardedMapStore":
        """Allocate the segment and initialize headers (orchestrator)."""
        if n_shards < 1:
            raise ValueError("need at least one shard")
        if region_size <= 0:
            raise ValueError("region_size must be positive")
        ctx = ctx if ctx is not None else mp.get_context()
        layout = ShmMapLayout(
            n_shards=n_shards, pack_capacity=pack_capacity,
            shard_slab_bytes=shard_slab_bytes, region_size=region_size,
        )
        region = SharedMemoryRegion(name=name, size=layout.total_bytes)
        buf = region.buffer
        # Segments arrive zero-filled; only non-zero fields need writing.
        layout.write_global_header(buf)
        _SLAB_COUNTS.pack_into(buf, layout.pack_offset, 0, 0, pack_capacity)
        pack_lock = ProcessRWLock(ctx=ctx, default_timeout=lock_timeout_s)
        shard_locks = [
            ProcessRWLock(ctx=ctx, default_timeout=lock_timeout_s)
            for _ in range(n_shards)
        ]
        return cls(region, layout, pack_lock, shard_locks, owner=True)

    @classmethod
    def attach(cls, handle: ShmStoreHandle) -> "ShmShardedMapStore":
        """Attach the named segment in a worker (process or thread).

        Locks are cloned — same shared condition and lock word, but a
        per-attachment segment view and wait accounting — so several
        attachments of one segment inside one process (the threaded
        baseline) cannot unbind each other's views on close.
        """
        region = SharedMemoryRegion(name=handle.segment_name, create=False)
        layout = ShmMapLayout.from_global_header(region.buffer)
        return cls(region, layout, handle.pack_lock.clone(),
                   [lk.clone() for lk in handle.shard_locks],
                   owner=False)

    def handle(self) -> ShmStoreHandle:
        return ShmStoreHandle(
            segment_name=self.region.name,
            layout=self.layout,
            pack_lock=self.pack.lock,
            shard_locks=[s.lock for s in self.shards],
        )

    def close(self) -> None:
        """Detach: drop numpy/lock views, then close the mapping."""
        self.pack.lock.unbind()
        for shard in self.shards:
            shard.lock.unbind()
        self.pack.positions = self.pack.descriptors = None
        self.pack.point_ids = None
        self.pack._buf = None
        self.region.close()

    def unlink(self) -> None:
        self.region.unlink()

    def __enter__(self) -> "ShmShardedMapStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        self.unlink()

    # ------------------------------------------------------------ headers
    def _shard_counts(self, shard: _ShmShard) -> Tuple[int, int, int]:
        return _SLAB_COUNTS.unpack_from(self.region.buffer,
                                        shard.header_offset)

    def _set_shard_counts(self, shard: _ShmShard, bytes_used: int,
                          n_records: int, version: int) -> None:
        _SLAB_COUNTS.pack_into(self.region.buffer, shard.header_offset,
                               bytes_used, n_records, version)

    # ----------------------------------------------------------- indexing
    def _refresh_locked(self, shard: _ShmShard) -> None:
        """Index log records appended since our last scan.

        Caller holds the shard's read or write lock, so ``bytes_used``
        is a stable cursor and every record before it is fully written.
        A compaction-epoch mismatch means another process rewrote the
        log under us: every cached offset is stale, so the local index
        is dropped and the (now shorter) log rescanned from the start.
        """
        buf_epoch = _SLAB_EPOCH.unpack_from(
            self.region.buffer, shard.header_offset + _SLAB_EPOCH_OFFSET
        )[0]
        if buf_epoch != shard.epoch:
            for kf_id in shard.kf_index:
                self._kf_shard.pop(kf_id, None)
            for pid in shard.mp_index:
                self._mp_shard.pop(pid, None)
            shard.kf_index.clear()
            shard.mp_index.clear()
            shard.scanned = 0
            shard.epoch = buf_epoch
        bytes_used, _, _ = self._shard_counts(shard)
        if shard.scanned >= bytes_used:
            return
        buf = self.region.buffer
        cursor = shard.log_offset + shard.scanned
        end = shard.log_offset + bytes_used
        while cursor < end:
            kind, _flags, entity_id, size = _RECORD_PREFIX.unpack_from(
                buf, cursor
            )
            payload = cursor + _RECORD_PREFIX.size
            if kind == KIND_KEYFRAME:
                shard.kf_index[entity_id] = (payload, size)
                self._kf_shard[entity_id] = shard.index
            elif kind == KIND_MAPPOINT:
                shard.mp_index[entity_id] = (payload, size)
                self._mp_shard[entity_id] = shard.index
            elif kind == KIND_KEYFRAME_REMOVE:
                shard.kf_index.pop(entity_id, None)
                self._kf_shard.pop(entity_id, None)
            elif kind == KIND_MAPPOINT_REMOVE:
                shard.mp_index.pop(entity_id, None)
                self._mp_shard.pop(entity_id, None)
            else:
                raise ValueError(
                    f"corrupt shard {shard.index} log: kind {kind} at "
                    f"offset {cursor - shard.log_offset}"
                )
            cursor = payload + _align8(size)
        shard.scanned = bytes_used

    def _append_locked(self, shard: _ShmShard, kind: int, entity_id: int,
                       size: int) -> memoryview:
        """Reserve one log record under the held write lock; returns the
        payload view to pack into."""
        bytes_used, n_records, version = self._shard_counts(shard)
        need = _RECORD_PREFIX.size + _align8(size)
        if bytes_used + need > shard.log_capacity:
            raise ArenaError(
                f"shard {shard.index} arena exhausted: need {need} bytes, "
                f"{shard.log_capacity - bytes_used} free"
            )
        buf = self.region.buffer
        record = shard.log_offset + bytes_used
        _RECORD_PREFIX.pack_into(buf, record, kind, 0, entity_id, size)
        payload = record + _RECORD_PREFIX.size
        self._set_shard_counts(shard, bytes_used + need, n_records + 1,
                               version + 1)
        shard.scanned = bytes_used + need
        shard.writes += 1
        return buf[payload : payload + size]

    # ------------------------------------------------------------ routing
    def shard_of_keyframe(self, kf: KeyFrame) -> int:
        sticky = self._kf_shard.get(kf.keyframe_id)
        if sticky is not None:
            return sticky
        return spatial_shard(kf.camera_center(), self.region_size,
                             self.n_shards)

    def shard_of_mappoint(self, point: MapPoint) -> int:
        sticky = self._mp_shard.get(point.point_id)
        if sticky is not None:
            return sticky
        return spatial_shard(point.position, self.region_size, self.n_shards)

    def shard_of_position(self, position) -> int:
        return spatial_shard(position, self.region_size, self.n_shards)

    # ------------------------------------------------- ordered write lock
    @contextmanager
    def write_transaction(self, shard_indices: Sequence[int], trace=None):
        """Hold the write locks of ``shard_indices`` in ascending shard
        order — the same global order every attached process uses, which
        keeps interleaved multi-shard writers deadlock-free across
        process boundaries exactly as it does across threads."""
        ordered = sorted(set(shard_indices))
        acquired: List[_ShmShard] = []
        try:
            with _tracer.child_span(
                trace, "sharedmem.lock_wait", n_shards=len(ordered)
            ):
                for idx in ordered:
                    shard = self.shards[idx]
                    if not shard.lock.acquire_write():
                        raise RuntimeError(
                            f"write lock timeout on shard {idx}"
                        )
                    acquired.append(shard)
            for shard in acquired:
                self._refresh_locked(shard)
            yield ordered
        finally:
            for shard in reversed(acquired):
                shard.lock.release_write()

    # ------------------------------------------------------------- writes
    def _put_keyframe_locked(self, shard: _ShmShard, kf: KeyFrame) -> int:
        size = keyframe_record_size(len(kf), len(kf.bow_vector))
        view = self._append_locked(shard, KIND_KEYFRAME, kf.keyframe_id, size)
        write_keyframe_record(view, kf)
        offset = shard.scanned - _align8(size) + shard.log_offset
        shard.kf_index[kf.keyframe_id] = (offset, size)
        self._kf_shard[kf.keyframe_id] = shard.index
        return size

    def _put_mappoint_locked(self, shard: _ShmShard, point: MapPoint) -> int:
        size = mappoint_record_size(len(point.observations))
        view = self._append_locked(shard, KIND_MAPPOINT, point.point_id, size)
        write_mappoint_record(view, point)
        offset = shard.scanned - _align8(size) + shard.log_offset
        shard.mp_index[point.point_id] = (offset, size)
        self._mp_shard[point.point_id] = shard.index
        return size

    def put_keyframe(self, kf: KeyFrame) -> int:
        idx = self.shard_of_keyframe(kf)
        shard = self.shards[idx]
        with shard.lock.write():
            self._refresh_locked(shard)
            # Another process may have created it elsewhere first.
            home = self._kf_shard.get(kf.keyframe_id, idx)
            if home == idx:
                self._put_keyframe_locked(shard, kf)
            else:
                idx = home
        if idx != shard.index:
            other = self.shards[idx]
            with other.lock.write():
                self._refresh_locked(other)
                self._put_keyframe_locked(other, kf)
        return idx

    def put_mappoint(self, point: MapPoint) -> int:
        idx = self.shard_of_mappoint(point)
        shard = self.shards[idx]
        with shard.lock.write():
            self._refresh_locked(shard)
            home = self._mp_shard.get(point.point_id, idx)
            if home == idx:
                self._put_mappoint_locked(shard, point)
            else:
                idx = home
        if idx != shard.index:
            other = self.shards[idx]
            with other.lock.write():
                self._refresh_locked(other)
                self._put_mappoint_locked(other, point)
        return idx

    def remove_keyframe(self, keyframe_id: int) -> None:
        self._remove(keyframe_id, self._kf_shard, KIND_KEYFRAME_REMOVE)

    def remove_mappoint(self, point_id: int) -> None:
        self._remove(point_id, self._mp_shard, KIND_MAPPOINT_REMOVE)

    def _remove(self, entity_id: int, sticky: Dict[int, int],
                kind: int) -> None:
        shard_idx = sticky.get(entity_id)
        if shard_idx is None:
            self._refresh_all_read()
            shard_idx = sticky.get(entity_id)
            if shard_idx is None:
                return
        shard = self.shards[shard_idx]
        with shard.lock.write():
            self._refresh_locked(shard)
            index = (shard.kf_index if kind == KIND_KEYFRAME_REMOVE
                     else shard.mp_index)
            if entity_id not in index:
                return
            self._append_locked(shard, kind, entity_id, 0)
            index.pop(entity_id, None)
            sticky.pop(entity_id, None)

    # -------------------------------------------------------------- reads
    def _refresh_all_read(self) -> None:
        for shard in self.shards:
            with shard.lock.read():
                self._refresh_locked(shard)

    def get_keyframe(self, keyframe_id: int) -> Optional[KeyFrame]:
        shard_idx = self._kf_shard.get(keyframe_id)
        if shard_idx is None:
            self._refresh_all_read()
            shard_idx = self._kf_shard.get(keyframe_id)
            if shard_idx is None:
                return None
        shard = self.shards[shard_idx]
        with shard.lock.read():
            self._refresh_locked(shard)
            entry = shard.kf_index.get(keyframe_id)
            if entry is None:
                return None
            shard.reads += 1
            offset, size = entry
            return read_keyframe_record(
                self.region.buffer[offset : offset + size]
            )

    def get_mappoint(self, point_id: int) -> Optional[MapPoint]:
        shard_idx = self._mp_shard.get(point_id)
        if shard_idx is None:
            self._refresh_all_read()
            shard_idx = self._mp_shard.get(point_id)
            if shard_idx is None:
                return None
        shard = self.shards[shard_idx]
        with shard.lock.read():
            self._refresh_locked(shard)
            entry = shard.mp_index.get(point_id)
            if entry is None:
                return None
            shard.reads += 1
            offset, size = entry
            return read_mappoint_record(
                self.region.buffer[offset : offset + size]
            )

    def keyframe_ids(self) -> List[int]:
        self._refresh_all_read()
        return sorted(self._kf_shard)

    def mappoint_ids(self) -> List[int]:
        self._refresh_all_read()
        return sorted(self._mp_shard)

    def iter_keyframes(self) -> Iterator[KeyFrame]:
        for kf_id in self.keyframe_ids():
            kf = self.get_keyframe(kf_id)
            if kf is not None:
                yield kf

    # ---------------------------------------------------------- bulk sync
    def publish_map(self, keyframes, mappoints, trace=None) -> int:
        """Write one client's map-update batch atomically w.r.t. other
        multi-shard writers (ascending-order locks, as in the threaded
        store — the discipline now spans process boundaries)."""
        keyframes = list(keyframes)
        mappoints = list(mappoints)
        by_shard: Dict[int, tuple] = {}
        for kf in keyframes:
            by_shard.setdefault(self.shard_of_keyframe(kf), ([], []))[0].append(kf)
        for point in mappoints:
            by_shard.setdefault(self.shard_of_mappoint(point), ([], []))[1].append(point)
        if not by_shard:
            return 0
        total = 0
        with _tracer.child_span(trace, "sharedmem.publish") as span:
            with self.write_transaction(list(by_shard)) as ordered:
                for idx in ordered:
                    shard = self.shards[idx]
                    kfs, points = by_shard[idx]
                    for kf in kfs:
                        total += self._put_keyframe_locked(shard, kf)
                    for point in points:
                        total += self._put_mappoint_locked(shard, point)
            span.set(bytes=total, n_keyframes=len(keyframes),
                     n_mappoints=len(mappoints), n_shards=len(by_shard))
        if _metrics.enabled:
            _publishes_total.inc()
            _publish_bytes.inc(total)
        return total

    # --------------------------------------------------------- compaction
    def _compact_locked(self, shard: _ShmShard) -> int:
        """Rewrite the shard's live records from the log start.

        Caller holds the shard's write lock and has refreshed its index
        (``write_transaction`` does both).  Live records move leftward
        past the tombstones and superseded versions, the bump cursor
        resets to the new log length and the compaction epoch bumps so
        other attached processes drop their stale offsets on next
        refresh.  Each payload is copied out before rewriting, and live
        records only ever move to lower offsets, so in-place rewriting
        never reads bytes it has already overwritten.
        """
        buf = self.region.buffer
        bytes_used, _, version = self._shard_counts(shard)
        live = sorted(
            [(off, size, KIND_KEYFRAME, eid)
             for eid, (off, size) in shard.kf_index.items()]
            + [(off, size, KIND_MAPPOINT, eid)
               for eid, (off, size) in shard.mp_index.items()]
        )
        cursor = shard.log_offset
        new_kf: Dict[int, tuple] = {}
        new_mp: Dict[int, tuple] = {}
        for offset, size, kind, entity_id in live:
            payload = bytes(buf[offset : offset + size])
            _RECORD_PREFIX.pack_into(buf, cursor, kind, 0, entity_id, size)
            dst = cursor + _RECORD_PREFIX.size
            buf[dst : dst + size] = payload
            (new_kf if kind == KIND_KEYFRAME else new_mp)[entity_id] = (
                dst, size,
            )
            cursor += _RECORD_PREFIX.size + _align8(size)
        new_used = cursor - shard.log_offset
        shard.kf_index = new_kf
        shard.mp_index = new_mp
        self._set_shard_counts(shard, new_used, len(live), version + 1)
        _SLAB_EPOCH.pack_into(
            buf, shard.header_offset + _SLAB_EPOCH_OFFSET, shard.epoch + 1
        )
        shard.epoch += 1
        shard.scanned = new_used
        return max(0, bytes_used - new_used)

    def compact(self, shard_indices: Optional[Sequence[int]] = None,
                trace=None) -> int:
        """Compact shard logs under the ordered multi-shard transaction.

        Returns the log bytes reclaimed (tombstones plus superseded
        record versions) and bumps ``sharedmem.compactions`` /
        ``sharedmem.reclaimed_bytes``.
        """
        indices = (list(range(self.n_shards)) if shard_indices is None
                   else list(shard_indices))
        reclaimed = 0
        with self.write_transaction(indices, trace=trace) as ordered:
            for idx in ordered:
                reclaimed += self._compact_locked(self.shards[idx])
        if _metrics.enabled:
            _compactions_total.inc()
            _reclaimed_bytes.inc(reclaimed)
        return reclaimed

    def maybe_compact(self, utilization: float = 0.6, trace=None) -> int:
        """Compact the shards whose log crossed ``utilization`` full.

        The occupancy probe reads ``bytes_used`` without the lock — a
        racy hint is fine because the compaction itself re-reads
        everything under the write transaction.
        """
        due = []
        for shard in self.shards:
            bytes_used = _SLAB_COUNTS.unpack_from(
                self.region.buffer, shard.header_offset
            )[0]
            if bytes_used / shard.log_capacity >= utilization:
                due.append(shard.index)
        if not due:
            return 0
        return self.compact(due, trace=trace)

    # ------------------------------------------------------------- stats
    def stats(self) -> StoreStats:
        capacity = allocated = n_blocks = 0
        writes = reads = 0
        n_kf = n_mp = 0
        for shard in self.shards:
            with shard.lock.read():
                self._refresh_locked(shard)
                bytes_used, n_records, _ = self._shard_counts(shard)
                capacity += shard.log_capacity
                allocated += bytes_used
                n_blocks += n_records
                writes += shard.writes
                reads += shard.reads
                n_kf += len(shard.kf_index)
                n_mp += len(shard.mp_index)
        return StoreStats(
            n_keyframes=n_kf,
            n_mappoints=n_mp,
            arena=ArenaStats(capacity=capacity, allocated=allocated,
                             n_blocks=n_blocks, peak_allocated=allocated),
            writes=writes,
            reads=reads,
        )

    def shard_stats(self) -> List[Dict[str, float]]:
        rows = []
        for shard in self.shards:
            with shard.lock.read():
                self._refresh_locked(shard)
                bytes_used, _, version = self._shard_counts(shard)
                rows.append({
                    "shard": shard.index,
                    "n_keyframes": len(shard.kf_index),
                    "n_mappoints": len(shard.mp_index),
                    "allocated": bytes_used,
                    "version": version,
                    "writes": shard.writes,
                    "reads": shard.reads,
                    "read_wait_ns": shard.lock.read_wait_ns,
                    "write_wait_ns": shard.lock.write_wait_ns,
                })
        return rows

    # ------------------------------------------------------------ metrics
    def metrics_snapshot(self) -> Dict[str, object]:
        """Per-lock wait totals of *this process* (workers ship this)."""
        return {
            "pack": self.pack.lock.metrics_snapshot(),
            "shards": [s.lock.metrics_snapshot() for s in self.shards],
        }

    def fold_metrics(self, snapshot: Dict[str, object]) -> None:
        """Fold a worker's snapshot into the orchestrator's lock totals."""
        self.pack.lock.fold_metrics(snapshot.get("pack", {}))
        for shard, snap in zip(self.shards, snapshot.get("shards", [])):
            shard.lock.fold_metrics(snap)
