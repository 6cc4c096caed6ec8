"""Spatially sharded map store (the global map's record store, §4.3.2).

:class:`ShardedMapStore` splits the map into ``n_shards`` arenas, each
with its own write-preferring :class:`RWLock`, and routes every entity
to a shard by the *spatial region* it lives in (keyframes by camera
center, map points by position).  SLAM access is spatially local — a
tracking process reads the region its client is looking at — so most
operations touch exactly one shard and proceed in parallel with
publishes to other regions.  ``n_shards=1`` is a single arena behind a
single lock.

Cross-shard operations (an Alg.-2 merge rewrites entities spread over
several regions, and a publish batch may straddle a region boundary)
acquire every involved shard's write lock in **ascending shard order**
before touching any payload, which makes the multi-lock acquisition
deadlock-free regardless of how merges and publishes interleave.

Shard assignment hashes the entity's grid cell (cell edge =
``region_size`` metres) with the classic 3-D spatial hash primes, so
the mapping is deterministic across processes and runs.  Assignment is
*sticky*: once an entity lands in a shard, updates stay there even if
bundle adjustment nudges its position across a cell boundary — readers
never race a record migrating between arenas.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from ..obs import get_metrics, get_tracer
from ..slam.keyframe import KeyFrame
from ..slam.mappoint import MapPoint
from .arena import Arena, ArenaStats
from .records import (
    keyframe_record_size,
    mappoint_record_size,
    read_keyframe_record,
    read_mappoint_record,
    write_keyframe_record,
    write_mappoint_record,
)
from .rwlock import RWLock

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


class _Shard:
    """One arena + lock + record index for a slice of the map."""

    __slots__ = ("index", "arena", "lock", "kf_index", "mp_index",
                 "writes", "reads")

    def __init__(self, index: int, capacity: int) -> None:
        self.index = index
        self.arena = Arena(bytearray(capacity))
        self.lock = RWLock()
        self.kf_index: Dict[int, tuple] = {}
        self.mp_index: Dict[int, tuple] = {}
        self.writes = 0
        self.reads = 0


class ShardedMapStore:
    """Arena-backed, region-sharded store of the global map's records.

    Put/get/remove, ``publish_map`` and ``stats``, plus shard
    introspection and the ordered multi-shard write transaction used by
    merges.
    """

    def __init__(
        self,
        n_shards: int = 8,
        capacity: int = DEFAULT_CAPACITY,
        region_size: float = 8.0,
    ) -> None:
        if n_shards < 1:
            raise ValueError("need at least one shard")
        if region_size <= 0:
            raise ValueError("region_size must be positive")
        self.n_shards = n_shards
        self.region_size = region_size
        per_shard = max(capacity // n_shards, 1024)
        self.shards: List[_Shard] = [
            _Shard(i, per_shard) for i in range(n_shards)
        ]
        # Sticky routing: entity id -> shard index.  Mutated only while
        # holding the target shard's write lock; lookups are plain dict
        # reads (atomic under the GIL); the index is process-local
        # metadata beside the shared payload bytes.
        self._kf_shard: Dict[int, int] = {}
        self._mp_shard: Dict[int, int] = {}

    # ----------------------------------------------------------- routing
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
        """Hold the write locks of ``shard_indices``, acquired in
        ascending shard order (the global order that makes interleaved
        multi-shard writers deadlock-free).

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
                        raise RuntimeError(f"write lock timeout on shard {idx}")
                    acquired.append(shard)
            yield ordered
        finally:
            for shard in reversed(acquired):
                shard.lock.release_write()

    # ------------------------------------------------------------- writes
    def _put_keyframe_locked(self, shard: _Shard, kf: KeyFrame) -> int:
        size = keyframe_record_size(len(kf), len(kf.bow_vector))
        old = shard.kf_index.pop(kf.keyframe_id, None)
        if old is not None:
            shard.arena.free(old[0])
        offset = shard.arena.alloc(size)
        write_keyframe_record(shard.arena.view(offset, size), kf)
        shard.kf_index[kf.keyframe_id] = (offset, size)
        self._kf_shard[kf.keyframe_id] = shard.index
        shard.writes += 1
        return size

    def _put_mappoint_locked(self, shard: _Shard, point: MapPoint) -> int:
        size = mappoint_record_size(len(point.observations))
        old = shard.mp_index.pop(point.point_id, None)
        if old is not None:
            shard.arena.free(old[0])
        offset = shard.arena.alloc(size)
        write_mappoint_record(shard.arena.view(offset, size), point)
        shard.mp_index[point.point_id] = (offset, size)
        self._mp_shard[point.point_id] = shard.index
        shard.writes += 1
        return size

    def put_keyframe(self, kf: KeyFrame) -> int:
        shard = self.shards[self.shard_of_keyframe(kf)]
        with shard.lock.write():
            self._put_keyframe_locked(shard, kf)
        return shard.index

    def put_mappoint(self, point: MapPoint) -> int:
        shard = self.shards[self.shard_of_mappoint(point)]
        with shard.lock.write():
            self._put_mappoint_locked(shard, point)
        return shard.index

    def remove_keyframe(self, keyframe_id: int) -> None:
        shard_idx = self._kf_shard.get(keyframe_id)
        if shard_idx is None:
            return
        shard = self.shards[shard_idx]
        with shard.lock.write():
            entry = shard.kf_index.pop(keyframe_id, None)
            if entry is not None:
                shard.arena.free(entry[0])
            self._kf_shard.pop(keyframe_id, None)

    def remove_mappoint(self, point_id: int) -> None:
        shard_idx = self._mp_shard.get(point_id)
        if shard_idx is None:
            return
        shard = self.shards[shard_idx]
        with shard.lock.write():
            entry = shard.mp_index.pop(point_id, None)
            if entry is not None:
                shard.arena.free(entry[0])
            self._mp_shard.pop(point_id, None)

    # -------------------------------------------------------------- reads
    def get_keyframe(self, keyframe_id: int) -> Optional[KeyFrame]:
        shard_idx = self._kf_shard.get(keyframe_id)
        if shard_idx is None:
            return None
        shard = self.shards[shard_idx]
        with shard.lock.read():
            entry = shard.kf_index.get(keyframe_id)
            if entry is None:
                return None
            shard.reads += 1
            return read_keyframe_record(shard.arena.view(*entry))

    def get_mappoint(self, point_id: int) -> Optional[MapPoint]:
        shard_idx = self._mp_shard.get(point_id)
        if shard_idx is None:
            return None
        shard = self.shards[shard_idx]
        with shard.lock.read():
            entry = shard.mp_index.get(point_id)
            if entry is None:
                return None
            shard.reads += 1
            return read_mappoint_record(shard.arena.view(*entry))

    def keyframe_ids(self) -> List[int]:
        return sorted(self._kf_shard)

    def mappoint_ids(self) -> List[int]:
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
        atomically with respect to other multi-shard writers — this is
        the same locking discipline an Alg.-2 merge uses.  ``trace``
        joins the publish (and its nested lock wait) to a frame's
        lifecycle trace.
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
        """Rewrite a shard's live records into a fresh arena.

        Caller holds the shard's write lock.  Live records pack
        contiguously from offset 0, which coalesces every fragmentation
        hole the first-fit free list accumulated into one tail block.
        Returns the growth of the largest contiguous free span.
        """
        before = shard.arena.largest_free()
        fresh = Arena(bytearray(shard.arena.capacity))
        for index in (shard.kf_index, shard.mp_index):
            for entity_id, (offset, size) in list(index.items()):
                new_offset = fresh.alloc(size)
                fresh.view(new_offset, size)[:] = shard.arena.view(offset, size)
                index[entity_id] = (new_offset, size)
        shard.arena = fresh
        return max(0, fresh.largest_free() - before)

    def compact(self, shard_indices: Optional[Sequence[int]] = None) -> int:
        """Defragment shards under the ordered write transaction.

        Returns the contiguous bytes reclaimed across all compacted
        shards and bumps the ``sharedmem.compactions`` /
        ``sharedmem.reclaimed_bytes`` counters.
        """
        indices = (list(range(self.n_shards)) if shard_indices is None
                   else list(shard_indices))
        reclaimed = 0
        with self.write_transaction(indices) as ordered:
            for idx in ordered:
                reclaimed += self._compact_locked(self.shards[idx])
        if _metrics.enabled:
            _compactions_total.inc()
            _reclaimed_bytes.inc(reclaimed)
        return reclaimed

    def maybe_compact(self, utilization: float = 0.6) -> int:
        """Compact every shard whose arena crossed ``utilization``.

        The occupancy probe is lock-free (a racy hint is fine — the
        compaction itself runs under the write transaction); returns 0
        when no shard is due.
        """
        due = [
            shard.index
            for shard in self.shards
            if shard.arena.stats().utilization >= utilization
        ]
        if not due:
            return 0
        return self.compact(due)

    # ------------------------------------------------------------- stats
    def stats(self) -> StoreStats:
        """Counts and arena occupancy summed over every shard."""
        capacity = allocated = n_blocks = peak = 0
        writes = reads = 0
        n_kf = n_mp = 0
        for shard in self.shards:
            with shard.lock.read():
                arena = shard.arena.stats()
                capacity += arena.capacity
                allocated += arena.allocated
                n_blocks += arena.n_blocks
                peak += arena.peak_allocated
                writes += shard.writes
                reads += shard.reads
                n_kf += len(shard.kf_index)
                n_mp += len(shard.mp_index)
        return StoreStats(
            n_keyframes=n_kf,
            n_mappoints=n_mp,
            arena=ArenaStats(capacity=capacity, allocated=allocated,
                             n_blocks=n_blocks, peak_allocated=peak),
            writes=writes,
            reads=reads,
        )

    def shard_stats(self) -> List[Dict[str, float]]:
        """Per-shard occupancy and lock-wait totals (for load reports)."""
        rows = []
        for shard in self.shards:
            with shard.lock.read():
                arena = shard.arena.stats()
                rows.append({
                    "shard": shard.index,
                    "n_keyframes": len(shard.kf_index),
                    "n_mappoints": len(shard.mp_index),
                    "allocated": arena.allocated,
                    "writes": shard.writes,
                    "reads": shard.reads,
                    "read_wait_ns": shard.lock.read_wait_ns,
                    "write_wait_ns": shard.lock.write_wait_ns,
                })
        return rows
