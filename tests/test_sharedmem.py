"""Tests for the RW lock, records and map store."""

import threading
import time

import numpy as np
import pytest

from repro.sharedmem import (
    RWLock,
    ShardedMapStore,
    SharedMemoryRegion,
    keyframe_record_size,
    mappoint_record_size,
    read_keyframe_record,
    read_mappoint_record,
    write_keyframe_record,
    write_mappoint_record,
)
from tests.test_net_serialization_transport import make_map


class TestRWLock:
    def test_concurrent_readers(self):
        lock = RWLock()
        assert lock.acquire_read()
        assert lock.acquire_read()
        assert lock.active_readers == 2
        lock.release_read()
        lock.release_read()

    def test_writer_excludes_readers(self):
        lock = RWLock()
        with lock.write():
            assert not lock.acquire_read(timeout=0.05)

    def test_reader_blocks_writer(self):
        lock = RWLock()
        with lock.read():
            assert not lock.acquire_write(timeout=0.05)

    def test_writer_preference(self):
        lock = RWLock()
        results = []
        lock.acquire_read()

        def writer():
            with lock.write():
                results.append("w")

        t = threading.Thread(target=writer)
        t.start()
        time.sleep(0.05)
        # Writer is waiting: new readers must block behind it.
        assert not lock.acquire_read(timeout=0.05)
        lock.release_read()
        t.join(timeout=1)
        assert results == ["w"]

    def test_release_without_acquire_raises(self):
        lock = RWLock()
        with pytest.raises(RuntimeError):
            lock.release_read()
        with pytest.raises(RuntimeError):
            lock.release_write()

    def test_threaded_counter_consistency(self):
        lock = RWLock()
        counter = {"v": 0}

        def writer():
            for _ in range(100):
                with lock.write():
                    v = counter["v"]
                    counter["v"] = v + 1

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter["v"] == 400
        assert lock.write_acquisitions == 400


class TestRecords:
    def _kf(self):
        slam_map = make_map(n_keyframes=1, n_points_per_kf=8, seed=3)
        return next(iter(slam_map.keyframes.values()))

    def _mp(self):
        slam_map = make_map(n_keyframes=1, n_points_per_kf=8, seed=4)
        return next(iter(slam_map.mappoints.values()))

    def test_keyframe_roundtrip(self):
        kf = self._kf()
        size = keyframe_record_size(len(kf), len(kf.bow_vector))
        buf = memoryview(bytearray(size))
        written = write_keyframe_record(buf, kf)
        assert written <= size
        restored = read_keyframe_record(buf)
        assert restored.keyframe_id == kf.keyframe_id
        assert np.allclose(restored.uv, kf.uv, atol=1e-4)
        assert np.array_equal(restored.descriptors, kf.descriptors)
        assert np.array_equal(restored.point_ids, kf.point_ids)
        assert restored.pose_cw.almost_equal(kf.pose_cw, 1e-9, 1e-9)
        assert restored.bow_vector == kf.bow_vector

    def test_mappoint_roundtrip(self):
        point = self._mp()
        size = mappoint_record_size(len(point.observations))
        buf = memoryview(bytearray(size))
        write_mappoint_record(buf, point)
        restored = read_mappoint_record(buf)
        assert restored.point_id == point.point_id
        assert np.allclose(restored.position, point.position)
        assert restored.observations == point.observations

    def test_record_size_formula_is_exact_enough(self):
        kf = self._kf()
        size = keyframe_record_size(len(kf), len(kf.bow_vector))
        buf = memoryview(bytearray(size))
        assert write_keyframe_record(buf, kf) == size


class TestSharedMapStore:
    def _store(self):
        return ShardedMapStore(n_shards=1, capacity=4 * 1024 * 1024)

    def test_put_get_keyframe(self):
        store = self._store()
        slam_map = make_map(seed=5)
        kf = next(iter(slam_map.keyframes.values()))
        store.put_keyframe(kf)
        restored = store.get_keyframe(kf.keyframe_id)
        assert restored is not None
        assert np.array_equal(restored.descriptors, kf.descriptors)

    def test_get_missing_returns_none(self):
        store = self._store()
        assert store.get_keyframe(42) is None
        assert store.get_mappoint(42) is None

    def test_update_in_place(self):
        store = self._store()
        slam_map = make_map(seed=6)
        point = next(iter(slam_map.mappoints.values()))
        store.put_mappoint(point)
        point.position = np.array([9.0, 9.0, 9.0])
        store.put_mappoint(point)
        assert np.allclose(store.get_mappoint(point.point_id).position, 9.0)
        assert len(store.mappoint_ids()) == 1

    def test_publish_map_counts(self):
        store = self._store()
        slam_map = make_map(n_keyframes=4, seed=7)
        written = store.publish_map(
            slam_map.keyframes.values(), slam_map.mappoints.values()
        )
        assert written > 0
        stats = store.stats()
        assert stats.n_keyframes == 4
        assert stats.n_mappoints == slam_map.n_mappoints

    def test_remove(self):
        store = self._store()
        slam_map = make_map(seed=8)
        kf = next(iter(slam_map.keyframes.values()))
        store.put_keyframe(kf)
        store.remove_keyframe(kf.keyframe_id)
        assert store.get_keyframe(kf.keyframe_id) is None
        # The record and its tombstone stay in the log until compaction
        # drops both.
        assert store.stats().arena.allocated > 0
        store.compact()
        assert store.stats().arena.allocated == 0

    def test_iter_keyframes_sorted(self):
        store = self._store()
        slam_map = make_map(n_keyframes=5, seed=9)
        store.publish_map(slam_map.keyframes.values(), [])
        ids = [kf.keyframe_id for kf in store.iter_keyframes()]
        assert ids == sorted(ids)


class TestSharedMemoryRegion:
    def test_create_write_attach_read(self):
        with SharedMemoryRegion(size=4096) as region:
            region.buffer[:5] = b"hello"
            # Attach a second handle by name (same process, same semantics).
            other = SharedMemoryRegion(name=region.name, create=False)
            assert bytes(other.buffer[:5]) == b"hello"
            other.close()

    def test_invalid_create_args(self):
        with pytest.raises(ValueError):
            SharedMemoryRegion(size=0, create=True)
        with pytest.raises(ValueError):
            SharedMemoryRegion(create=False)
