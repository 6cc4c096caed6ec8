"""The global map's record store: one log-structured layout, two byte backings.

SLAM-Share keeps the global map in one shared-memory region that every
per-client server process attaches (§4.3.2: the orchestrator allocates
the region, each process "searches and attaches the shared memory
buffer to its own virtual address space").  :class:`ShmShardedMapStore`
(also importable as ``ShardedMapStore``) is that store, laid out over
one of two byte backings:

* **heap** — ``ShmShardedMapStore(n_shards, capacity, region_size)``:
  an anonymous private mapping, committed page by page as records are
  written, guarded by the thread-tier :class:`~repro.sharedmem.rwlock.RWLock`;
  the single-process serving path uses it.
* **shm** — :meth:`ShmShardedMapStore.create` / :meth:`attach`: a named
  ``multiprocessing.shared_memory`` segment that separate OS processes
  read and write zero-copy, guarded by
  :class:`~repro.sharedmem.prwlock.ProcessRWLock` whose lock words sit
  in the segment's headers.

Both backings hold the same layout:

::

    +--------------------------------------------------------------+
    | global header (64 B): magic, layout ver, n_shards,           |
    |   pack_capacity, shard_slab_bytes, region_size               |
    +--------------------------------------------------------------+
    | map pack slab:                                               |
    |   header (64 B): count u64 | version u64 | capacity u64 |    |
    |                  lock word (16 B)                            |
    |   positions   f64[capacity, 3]    <- packed map matrices     |
    |   descriptors u8 [capacity, 32]                              |
    |   point_ids   i64[capacity]                                  |
    +--------------------------------------------------------------+
    | shard slab 0..n-1 (each shard_slab_bytes):                   |
    |   header (64 B): bytes_used u64 | n_records u64 |            |
    |                  version u64 | lock word (16 B) | epoch u64  |
    |   append-only record log:                                    |
    |     (kind u32 | flags u32 | entity_id u64 | size u64)        |
    |     + packed keyframe/mappoint record, 8-aligned             |
    +--------------------------------------------------------------+

The *map pack* holds the map's packed ``(n, 3)`` position and
``(n, 32)`` descriptor matrices as numpy views straight over the
backing — worker processes run the vectorized tracking kernels
(Hamming matching, projection search) on them with zero copies.  The
*shard slabs* are the record store: a bump-cursor log per spatial
shard whose cursor (``bytes_used``) lives in the shard header, so the
allocator state itself is in the backing.  Updates append a new
version; removes append a tombstone.  An append that does not fit
compacts its shard in place under the write lock it already holds and
retries; it fails only when the shard's live records alone fill it.

Entities are routed to shards by the *spatial region* they live in
(keyframes by camera center, map points by position): a grid-cell
hash (cell edge ``region_size`` metres) that is deterministic across
processes and runs.  SLAM access is spatially local, so most
operations touch one shard and proceed in parallel with writes to
other regions.  Routing is *sticky*: updates stay in the shard an
entity was created in even if bundle adjustment moves it across a cell
boundary.  Cross-shard writers (a publish batch straddling regions, an
Alg.-2 merge) take every involved shard's write lock in ascending
shard order, which keeps interleaved writers deadlock-free across
threads and processes alike.

Record indexes (entity id -> log offset) are process-local caches,
rebuilt incrementally by scanning the log tail under the shard lock —
deterministic because appends are serialized by the write lock.  A
compaction bumps the shard's epoch, telling every other attached
process to drop its cached offsets and rescan from the log start.
"""

from __future__ import annotations

import math
import mmap
import multiprocessing as mp
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_metrics, get_tracer
from ..slam.keyframe import KeyFrame
from ..slam.mappoint import MapPoint
from .prwlock import ProcessRWLock
from .records import (
    keyframe_record_size,
    mappoint_record_size,
    read_keyframe_record,
    read_mappoint_record,
    write_keyframe_record,
    write_mappoint_record,
)
from .rwlock import RWLock
from .shm_backend import SharedMemoryRegion

DEFAULT_CAPACITY = 256 * 1024 * 1024  # scaled-down 2 GB region

_tracer = get_tracer()
_metrics = get_metrics()
_publishes_total = _metrics.counter(
    "sharedmem.publishes", "map-update batches published"
)
_publish_bytes = _metrics.counter(
    "sharedmem.publish_bytes", "bytes written by map publishes"
)
_multi_shard_writes = _metrics.counter(
    "sharedmem.multi_shard_writes", "publishes spanning more than one shard"
)
_shards_per_write = _metrics.histogram(
    "sharedmem.shards_per_write", "write-locked shards per publish batch"
)
_compactions_total = _metrics.counter(
    "sharedmem.compactions", "store compaction passes"
)
_reclaimed_bytes = _metrics.counter(
    "sharedmem.reclaimed_bytes", "bytes reclaimed by store compaction"
)


def _count_compaction(reclaimed: int) -> None:
    if _metrics.enabled:
        _compactions_total.inc()
        _reclaimed_bytes.inc(reclaimed)


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


class ArenaError(RuntimeError):
    """A shard log or the map pack is out of space."""


@dataclass
class ArenaStats:
    capacity: int
    allocated: int
    n_blocks: int
    peak_allocated: int

    @property
    def utilization(self) -> float:
        return self.allocated / self.capacity if self.capacity else 0.0


@dataclass
class StoreStats:
    n_keyframes: int
    n_mappoints: int
    arena: ArenaStats
    writes: int
    reads: int


def spatial_shard(position, region_size: float, n_shards: int) -> int:
    """Deterministic shard index for a 3-D position.

    Grid-cell hash with the canonical spatial-hashing primes; stable
    across interpreter runs and processes (no ``PYTHONHASHSEED``
    dependence), which matters because every attached process must
    agree on where a region lives.
    """
    inv = 1.0 / region_size
    cx = math.floor(float(position[0]) * inv)
    cy = math.floor(float(position[1]) * inv)
    cz = math.floor(float(position[2]) * inv)
    h = (cx * 73856093) ^ (cy * 19349663) ^ (cz * 83492791)
    return (h & 0x7FFFFFFF) % n_shards


def _check_shape(n_shards: int, region_size: float) -> None:
    if n_shards < 1:
        raise ValueError("need at least one shard")
    if region_size <= 0:
        raise ValueError("region_size must be positive")


@dataclass(frozen=True)
class ShmMapLayout:
    """Offset arithmetic for the single-region map layout."""

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

    def format(self, buf: memoryview) -> None:
        """Initialize a zero-filled region: only non-zero fields are written."""
        self.write_global_header(buf)
        _SLAB_COUNTS.pack_into(buf, self.pack_offset, 0, 0, self.pack_capacity)

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


class _HeapRegion:
    """Process-private byte backing with the region surface the store uses.

    An anonymous mapping arrives zero-filled, like a fresh segment, but
    the kernel commits its pages only as they are first written.
    """

    name = None

    def __init__(self, size: int) -> None:
        self._map = mmap.mmap(-1, size)
        self.buffer = memoryview(self._map)

    def close(self) -> None:
        try:
            self.buffer.release()
            self._map.close()
        except BufferError:
            # Live views over the buffer keep it pinned; the mapping is
            # released when they are garbage collected.
            pass

    def unlink(self) -> None:
        """Nothing outlives the process: a no-op, as on attached regions."""


class SharedMapPack:
    """The map's packed matrices as numpy views over the backing.

    ``positions``/``descriptors``/``point_ids`` are zero-copy views;
    row ``i`` of each belongs to one map point.  Readers hold the pack
    read lock for the duration of a kernel call
    (:meth:`read`); writers append rows or nudge positions in place
    under the write lock, bumping ``version``.
    """

    def __init__(self, buffer: memoryview, layout: ShmMapLayout,
                 lock) -> None:
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
            if len(rows) and (int(rows.min()) < 0 or int(rows.max()) >= count):
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


class _Shard:
    """Process-local handle on one shard slab."""

    __slots__ = ("index", "header_offset", "log_offset", "log_capacity",
                 "lock", "kf_index", "mp_index", "scanned", "epoch",
                 "writes", "reads")

    def __init__(self, index: int, layout: ShmMapLayout, lock) -> None:
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
    """Region-sharded, log-structured store of the global map's records.

    Put/get/remove, ``publish_map``, the ordered multi-shard
    ``write_transaction`` used by merges, compaction and
    ``stats``/``shard_stats``.  The constructor builds the heap backing
    (``capacity // n_shards`` bytes per shard); :meth:`create` and
    :meth:`attach` build the shared-memory backing.  Every method past
    construction is the same for both: locks are used only through the
    surface :class:`RWLock` and :class:`ProcessRWLock` share.
    """

    def __init__(
        self,
        n_shards: int = 8,
        capacity: int = DEFAULT_CAPACITY,
        region_size: float = 8.0,
    ) -> None:
        _check_shape(n_shards, region_size)
        layout = ShmMapLayout(
            n_shards=n_shards,
            shard_slab_bytes=max(capacity // n_shards, 1024) & ~7,
            region_size=region_size,
        )
        region = _HeapRegion(layout.total_bytes)
        layout.format(region.buffer)
        self._open(region, layout, RWLock(),
                   [RWLock() for _ in range(n_shards)])

    def _open(self, region, layout: ShmMapLayout, pack_lock,
              shard_locks: Sequence, bound_locks: Sequence = ()) -> None:
        if len(shard_locks) != layout.n_shards:
            raise ValueError("one lock per shard required")
        self.region = region
        self.layout = layout
        self.n_shards = layout.n_shards
        self.region_size = layout.region_size
        self.pack = SharedMapPack(region.buffer, layout, pack_lock)
        self.shards: List[_Shard] = [
            _Shard(i, layout, lock) for i, lock in enumerate(shard_locks)
        ]
        # Locks whose lock words live in the region (shm backing only).
        self._bound_locks = list(bound_locks)
        # Sticky routing: entity id -> shard index, learned from writes
        # and from scanning the shard logs.
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
        """Allocate a named segment and initialize headers (orchestrator)."""
        _check_shape(n_shards, region_size)
        ctx = ctx if ctx is not None else mp.get_context()
        layout = ShmMapLayout(
            n_shards=n_shards, pack_capacity=pack_capacity,
            shard_slab_bytes=shard_slab_bytes, region_size=region_size,
        )
        region = SharedMemoryRegion(name=name, size=layout.total_bytes)
        layout.format(region.buffer)
        locks = [ProcessRWLock(ctx=ctx, default_timeout=lock_timeout_s)
                 for _ in range(n_shards + 1)]
        return cls._over_segment(region, layout, locks[0], locks[1:])

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
        return cls._over_segment(region, layout, handle.pack_lock.clone(),
                                 [lk.clone() for lk in handle.shard_locks])

    @classmethod
    def _over_segment(cls, region: SharedMemoryRegion, layout: ShmMapLayout,
                      pack_lock: ProcessRWLock,
                      shard_locks: Sequence[ProcessRWLock]) -> "ShmShardedMapStore":
        """Bind each lock to its word in the segment headers and open."""
        buf = region.buffer
        pack_lock.bind(buf, layout.pack_offset + _LOCK_WORD_OFFSET)
        for i, lock in enumerate(shard_locks):
            lock.bind(buf, layout.shard_offset(i) + _LOCK_WORD_OFFSET)
        store = cls.__new__(cls)
        store._open(region, layout, pack_lock, shard_locks,
                    bound_locks=[pack_lock, *shard_locks])
        return store

    def handle(self) -> ShmStoreHandle:
        if self.region.name is None:
            raise ValueError("a heap-backed store cannot be attached")
        return ShmStoreHandle(
            segment_name=self.region.name,
            layout=self.layout,
            pack_lock=self.pack.lock,
            shard_locks=[s.lock for s in self.shards],
        )

    def close(self) -> None:
        """Detach: drop numpy/lock views, then close the backing."""
        for lock in self._bound_locks:
            lock.unbind()
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
    def _shard_counts(self, shard: _Shard) -> Tuple[int, int, int]:
        return _SLAB_COUNTS.unpack_from(self.region.buffer,
                                        shard.header_offset)

    def _set_shard_counts(self, shard: _Shard, bytes_used: int,
                          n_records: int, version: int) -> None:
        _SLAB_COUNTS.pack_into(self.region.buffer, shard.header_offset,
                               bytes_used, n_records, version)

    # ----------------------------------------------------------- indexing
    def _refresh_locked(self, shard: _Shard) -> None:
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

    def _append_locked(self, shard: _Shard, kind: int, entity_id: int,
                       size: int) -> memoryview:
        """Reserve one log record under the held write lock; returns the
        payload view to pack into.

        A full log is compacted in place (the caller's write lock and
        refreshed index are all compaction needs) before the retry; only
        a log whose live records alone leave no room raises.
        """
        bytes_used, n_records, version = self._shard_counts(shard)
        need = _RECORD_PREFIX.size + _align8(size)
        if bytes_used + need > shard.log_capacity:
            _count_compaction(self._compact_locked(shard))
            bytes_used, n_records, version = self._shard_counts(shard)
            if bytes_used + need > shard.log_capacity:
                raise ArenaError(
                    f"shard {shard.index} arena exhausted: need {need} "
                    f"bytes, {shard.log_capacity - bytes_used} free after "
                    f"compaction"
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
        process boundaries exactly as it does across threads.

        ``trace`` (a frame's :class:`~repro.obs.TraceContext`) attaches
        the acquisition as a ``sharedmem.lock_wait`` wall span to that
        frame's lifecycle, so contended shard locks show up in the
        per-frame waterfall.
        """
        ordered = sorted(set(shard_indices))
        acquired: List[_Shard] = []
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
    def _put_keyframe_locked(self, shard: _Shard, kf: KeyFrame) -> int:
        size = keyframe_record_size(len(kf), len(kf.bow_vector))
        view = self._append_locked(shard, KIND_KEYFRAME, kf.keyframe_id, size)
        write_keyframe_record(view, kf)
        offset = shard.scanned - _align8(size) + shard.log_offset
        shard.kf_index[kf.keyframe_id] = (offset, size)
        self._kf_shard[kf.keyframe_id] = shard.index
        return size

    def _put_mappoint_locked(self, shard: _Shard, point: MapPoint) -> int:
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
            if index.pop(entity_id, None) is None:
                return
            sticky.pop(entity_id, None)
            # Out of the index first: a compaction the tombstone's append
            # triggers already leaves the removed record behind.
            self._append_locked(shard, kind, entity_id, 0)

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
        """Write one client's map-update batch.

        Entities are grouped by destination shard; all involved shards
        are write-locked together (ascending order) so the batch lands
        atomically with respect to other multi-shard writers, in this
        process or another — the same locking discipline an Alg.-2
        merge uses.  ``trace`` joins the publish (and its nested lock
        wait) to a frame's lifecycle trace.
        """
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
            _shards_per_write.record(len(by_shard))
            if len(by_shard) > 1:
                _multi_shard_writes.inc()
        return total

    # --------------------------------------------------------- compaction
    def _compact_locked(self, shard: _Shard) -> int:
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
        _count_compaction(reclaimed)
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


# The store's name on the single-process serving path: the same class.
ShardedMapStore = ShmShardedMapStore
