"""The map store over both byte backings: compaction on full, log stats,
the packed map's bounds, and a stateful check against a plain-dict model.

Every test runs once per backing: ``heap`` (the constructor, a private
anonymous mapping) and ``shm`` (a named OS shared-memory segment, skipped
where the host has none).
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.sharedmem import ArenaError, ShardedMapStore, ShmShardedMapStore
from repro.sharedmem import sharding, shm_store
from repro.slam.mappoint import MapPoint
from tests.test_shm_multiproc import make_keyframe, make_mappoint, shm_required

BACKINGS = ["heap", pytest.param("shm", marks=shm_required)]


def make_store(backing, n_shards=1, slab_bytes=64 * 1024, region_size=8.0):
    if backing == "heap":
        return ShardedMapStore(n_shards=n_shards,
                               capacity=n_shards * slab_bytes,
                               region_size=region_size)
    return ShmShardedMapStore.create(
        n_shards=n_shards, pack_capacity=16, shard_slab_bytes=slab_bytes,
        region_size=region_size, lock_timeout_s=30.0,
    )


@pytest.fixture(params=BACKINGS)
def backing(request):
    return request.param


def test_one_class_under_both_names():
    assert sharding.ShardedMapStore is shm_store.ShmShardedMapStore


def test_heap_backing_cannot_be_attached():
    with pytest.raises(ValueError):
        make_store("heap").handle()


class TestCompactionOnFull:
    def test_single_live_point_survives_many_updates(self, backing):
        store = make_store(backing)
        try:
            point = make_mappoint(7, (1.0, 2.0, 3.0))
            for i in range(20_000):
                point.position = np.array([float(i), 2.0, 3.0])
                store.put_mappoint(point)
            stats = store.stats()
            assert stats.n_mappoints == 1
            assert stats.arena.allocated <= stats.arena.capacity
            assert store.get_mappoint(7).position[0] == 19_999.0
        finally:
            store.close()
            store.unlink()

    def test_raises_only_when_live_records_fill_the_shard(self, backing):
        store = make_store(backing, slab_bytes=1024)
        try:
            placed = []
            with pytest.raises(ArenaError):
                for pid in range(1024):
                    store.put_mappoint(make_mappoint(pid, (0.0, 0.0, 0.0)))
                    placed.append(pid)
            assert store.mappoint_ids() == placed
            # Tombstones are dead records: compaction on the next full
            # append reclaims them and the put lands.
            for pid in placed[:2]:
                store.remove_mappoint(pid)
            store.put_mappoint(make_mappoint(5000, (0.0, 0.0, 0.0)))
            assert store.mappoint_ids() == placed[2:] + [5000]
        finally:
            store.close()
            store.unlink()


    def test_readers_see_whole_records_while_appends_compact(self, backing):
        def probe(pid, version):
            return MapPoint(point_id=pid,
                            position=np.array([pid, version, pid + version],
                                              dtype=np.float64),
                            descriptor=np.full(32, pid, dtype=np.uint8))

        def whole(point):
            x, v, s = point.position
            return (s == x + v and x == point.point_id
                    and bool(np.all(point.descriptor == point.point_id)))

        # 16 live points fill a quarter of the 8 KB log, so every few
        # rounds of updates compacts it under the readers.
        store = make_store(backing, slab_bytes=8 * 1024)
        ids = list(range(16))
        store.publish_map([], [probe(pid, 0) for pid in ids])
        stop = threading.Event()
        bad, reads = [], [0] * 3

        def reader(slot):
            rng = np.random.default_rng(slot)
            while not stop.is_set():
                point = store.get_mappoint(int(rng.choice(ids)))
                reads[slot] += 1
                if point is None or not whole(point):
                    bad.append(point)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=reader, args=(slot,), daemon=True)
                   for slot in range(3)]
        try:
            for thread in threads:
                thread.start()
            for version in range(1, 100):
                for pid in ids:
                    store.put_mappoint(probe(pid, version))
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
            sys.setswitchinterval(interval)
        try:
            assert not any(thread.is_alive() for thread in threads)
            assert bad == [] and all(reads)
            assert [store.get_mappoint(pid).position[1] for pid in ids] == [99.0] * 16
        finally:
            store.close()
            store.unlink()


class TestStats:
    def test_stats_count_appended_records(self, backing):
        store = make_store(backing)
        try:
            kf = make_keyframe(1, (0.5, 0.5, 0.5))
            store.put_keyframe(kf)
            first = store.stats().arena
            assert first.n_blocks == 1
            assert first.allocated > 0 and first.allocated % 8 == 0
            assert 0 < first.utilization < 1
            # An update appends a second version; compaction drops the
            # superseded one and returns the log to one record.
            store.put_keyframe(kf)
            assert store.stats().arena.n_blocks == 2
            assert store.stats().arena.allocated == 2 * first.allocated
            store.compact()
            assert store.stats().arena == first
        finally:
            store.close()
            store.unlink()

    @pytest.mark.parametrize("backing", BACKINGS)
    @given(sizes=st.lists(st.integers(1, 5), min_size=1, max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_property_remove_all_and_compact_restores_capacity(self, backing,
                                                               sizes):
        # ``sizes[i]`` is how many versions of point ``i`` are appended.
        store = make_store(backing)
        try:
            capacity = store.stats().arena.capacity
            for pid, versions in enumerate(sizes):
                for _ in range(versions):
                    store.put_mappoint(make_mappoint(pid, (0.0, 0.0, 0.0)))
            filled = store.stats().arena.allocated
            for pid in range(len(sizes)):
                store.remove_mappoint(pid)
            store.compact()
            stats = store.stats().arena
            assert (stats.allocated, stats.n_blocks) == (0, 0)
            assert stats.capacity == capacity
            # The whole log is free again: the same appends land where
            # they did in the fresh store.
            for pid, versions in enumerate(sizes):
                for _ in range(versions):
                    store.put_mappoint(make_mappoint(pid, (0.0, 0.0, 0.0)))
            assert store.stats().arena.allocated == filled
        finally:
            store.close()
            store.unlink()


class TestPackBounds:
    def test_set_positions_rejects_rows_outside_appended_range(self, backing):
        store = make_store(backing)
        try:
            pack = store.pack
            pack.append(np.zeros((2, 3)), np.zeros((2, 32)), [10, 11])
            for rows in ([-1], [2], [0, -2]):
                with pytest.raises(IndexError):
                    pack.set_positions(rows, np.ones((len(rows), 3)))
            assert not pack.positions[pack.capacity - 1].any()
            pack.set_positions([1], [[4.0, 5.0, 6.0]])
            assert pack.snapshot()[0].tolist() == [[0, 0, 0], [4, 5, 6]]
        finally:
            store.close()
            store.unlink()


# ------------------------------------------------------ stateful model check
_FAR = (1000.0, -1000.0, 1000.0)
_coords = st.tuples(*[st.floats(-3.0, 3.0, allow_nan=False)] * 3)
_kf_ids = st.integers(0, 4)
_mp_ids = st.integers(0, 9)


class StoreMachine(RuleBasedStateMachine):
    """Random puts, updates, removes, publishes and compactions on a
    three-shard store with 6 KB slabs (small enough that appends fill
    shards and compact them in place), mirrored in plain dicts."""

    def __init__(self, backing):
        super().__init__()
        self.store = make_store(backing, n_shards=3, slab_bytes=6 * 1024,
                                region_size=1.0)
        self.keyframes = {}   # id -> camera center
        self.points = {}      # id -> position
        self.kf_home = {}     # id -> shard it was created in
        self.mp_home = {}

    def teardown(self):
        self.store.close()
        self.store.unlink()

    @staticmethod
    def _place(homes, entity_id, shard):
        assert homes.setdefault(entity_id, shard) == shard

    @rule(kf_id=_kf_ids, center=_coords)
    def put_keyframe(self, kf_id, center):
        shard = self.store.put_keyframe(make_keyframe(kf_id, center))
        self._place(self.kf_home, kf_id, shard)
        self.keyframes[kf_id] = center

    @rule(pid=_mp_ids, position=_coords, times=st.integers(1, 60))
    def put_mappoint(self, pid, position, times):
        # A burst of updates (bundle adjustment) appends a version each.
        point = make_mappoint(pid, position)
        for _ in range(times):
            shard = self.store.put_mappoint(point)
            self._place(self.mp_home, pid, shard)
        self.points[pid] = position

    @rule(kf_id=_kf_ids)
    def remove_keyframe(self, kf_id):
        self.store.remove_keyframe(kf_id)
        self.keyframes.pop(kf_id, None)
        self.kf_home.pop(kf_id, None)

    @rule(pid=_mp_ids)
    def remove_mappoint(self, pid):
        self.store.remove_mappoint(pid)
        self.points.pop(pid, None)
        self.mp_home.pop(pid, None)

    @rule(keyframes=st.dictionaries(_kf_ids, _coords, max_size=3),
          points=st.dictionaries(_mp_ids, _coords, max_size=6))
    def publish(self, keyframes, points):
        kfs = [make_keyframe(i, c) for i, c in keyframes.items()]
        pts = [make_mappoint(i, p) for i, p in points.items()]
        self.store.publish_map(kfs, pts)
        for kf in kfs:
            self._place(self.kf_home, kf.keyframe_id,
                        self.store.shard_of_keyframe(kf))
        for point in pts:
            self._place(self.mp_home, point.point_id,
                        self.store.shard_of_mappoint(point))
        self.keyframes.update(keyframes)
        self.points.update(points)

    @rule()
    def compact(self):
        self.store.compact()

    @invariant()
    def contents_match_model(self):
        assert self.store.keyframe_ids() == sorted(self.keyframes)
        assert self.store.mappoint_ids() == sorted(self.points)
        for kf_id, center in self.keyframes.items():
            kf = self.store.get_keyframe(kf_id)
            assert np.array_equal(kf.camera_center(), center)
            assert np.array_equal(kf.descriptors,
                                  make_keyframe(kf_id, center).descriptors)
        for pid, position in self.points.items():
            assert np.array_equal(self.store.get_mappoint(pid).position,
                                  position)

    @invariant()
    def routing_is_sticky(self):
        for kf_id, home in self.kf_home.items():
            assert self.store.shard_of_keyframe(
                make_keyframe(kf_id, _FAR)) == home
        for pid, home in self.mp_home.items():
            assert self.store.shard_of_mappoint(
                make_mappoint(pid, _FAR)) == home

    @invariant()
    def stats_match_model(self):
        stats = self.store.stats()
        assert stats.n_keyframes == len(self.keyframes)
        assert stats.n_mappoints == len(self.points)
        assert 0 <= stats.arena.allocated <= stats.arena.capacity


def test_store_matches_dict_model(backing):
    run_state_machine_as_test(
        lambda: StoreMachine(backing),
        settings=settings(max_examples=25, stateful_step_count=30,
                          deadline=None),
    )
