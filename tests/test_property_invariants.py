"""Cross-module property-based tests (hypothesis).

These pin down the invariants the system's correctness rests on, with
randomized inputs: group laws, round-trips, conservation through the
shared-memory and serialization paths, and geometric consistency of the
merge machinery.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import SE3, Sim3, so3, umeyama
from repro.net import deserialize_map, serialize_map
from repro.sharedmem import ShardedMapStore
from tests.test_net_serialization_transport import make_map

seeds = st.integers(min_value=0, max_value=10_000)
small = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
vec3 = st.lists(small, min_size=3, max_size=3).map(np.array)


class TestGroupLaws:
    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_se3_associativity(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (
            SE3(so3.random_rotation(rng), rng.normal(size=3)) for _ in range(3)
        )
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert lhs.almost_equal(rhs, 1e-9, 1e-9)

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_sim3_associativity(self, seed):
        rng = np.random.default_rng(seed)
        sims = [
            Sim3(so3.random_rotation(rng), rng.normal(size=3),
                 float(rng.uniform(0.5, 2.0)))
            for _ in range(3)
        ]
        p = rng.normal(size=3)
        lhs = ((sims[0] * sims[1]) * sims[2]).apply(p)
        rhs = (sims[0] * (sims[1] * sims[2])).apply(p)
        assert np.allclose(lhs, rhs, atol=1e-9)

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_sim3_transform_pose_projection_invariance(self, seed):
        """The defining property of the merge pose correction: a world
        point and its transform land on the same image ray."""
        rng = np.random.default_rng(seed)
        s = Sim3(so3.random_rotation(rng), rng.normal(size=3),
                 float(rng.uniform(0.3, 3.0)))
        pose = SE3(so3.random_rotation(rng), rng.normal(size=3))
        point = rng.normal(size=3) * 3.0
        before = pose.apply(point)
        after = s.transform_pose(pose).apply(s.apply(point))
        if np.linalg.norm(before) < 1e-6:
            return
        cos = np.dot(before, after) / (
            np.linalg.norm(before) * np.linalg.norm(after)
        )
        assert cos > 1.0 - 1e-9


class TestRoundTrips:
    @given(seeds, st.integers(min_value=1, max_value=6))
    @settings(max_examples=10, deadline=None)
    def test_map_serialization_preserves_everything(self, seed, n_kf):
        original = make_map(n_keyframes=n_kf, n_points_per_kf=8, seed=seed)
        restored = deserialize_map(serialize_map(original))
        assert restored.n_keyframes == original.n_keyframes
        assert restored.n_mappoints == original.n_mappoints
        for kf_id, kf in original.keyframes.items():
            rkf = restored.keyframes[kf_id]
            assert np.array_equal(rkf.point_ids, kf.point_ids)
            assert rkf.timestamp == kf.timestamp

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_shared_store_roundtrip_random_maps(self, seed):
        slam_map = make_map(n_keyframes=3, n_points_per_kf=10, seed=seed)
        store = ShardedMapStore(n_shards=1, capacity=8 * 1024 * 1024)
        store.publish_map(slam_map.keyframes.values(),
                          slam_map.mappoints.values())
        for kf_id, kf in slam_map.keyframes.items():
            restored = store.get_keyframe(kf_id)
            assert restored is not None
            assert np.array_equal(restored.descriptors, kf.descriptors)
        for pid, point in slam_map.mappoints.items():
            restored = store.get_mappoint(pid)
            assert np.allclose(restored.position, point.position)

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_store_update_conserves_entity_count(self, seed):
        slam_map = make_map(n_keyframes=2, n_points_per_kf=6, seed=seed)
        store = ShardedMapStore(n_shards=1, capacity=8 * 1024 * 1024)
        # Publishing twice (an update) must not duplicate entities.
        store.publish_map(slam_map.keyframes.values(),
                          slam_map.mappoints.values())
        store.publish_map(slam_map.keyframes.values(),
                          slam_map.mappoints.values())
        stats = store.stats()
        assert stats.n_keyframes == slam_map.n_keyframes
        assert stats.n_mappoints == slam_map.n_mappoints


class TestAlignmentProperties:
    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_umeyama_is_exact_inverse(self, seed):
        """Aligning B->A then A->B composes to identity."""
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(15, 3)) * 2.0
        s = Sim3(so3.random_rotation(rng), rng.normal(size=3),
                 float(rng.uniform(0.5, 2.0)))
        moved = s.apply(pts)
        forward = umeyama(pts, moved)
        backward = umeyama(moved, pts)
        roundtrip = backward.apply(forward.apply(pts))
        assert np.allclose(roundtrip, pts, atol=1e-8)

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_ate_invariant_under_rigid_motion_of_estimate(self, seed):
        """Aligned ATE must not depend on the estimate's frame."""
        from repro.geometry import Trajectory
        from repro.metrics import absolute_trajectory_error

        rng = np.random.default_rng(seed)
        n = 30
        times = np.arange(n) * 0.1
        gt_pos = np.cumsum(rng.normal(size=(n, 3)) * 0.1, axis=0)
        est_pos = gt_pos + rng.normal(scale=0.02, size=(n, 3))
        gt = Trajectory.from_arrays(times, gt_pos)
        est = Trajectory.from_arrays(times, est_pos)
        moved = est.transformed(
            SE3(so3.random_rotation(rng), rng.normal(size=3) * 5)
        )
        a = absolute_trajectory_error(est, gt).rmse
        b = absolute_trajectory_error(moved, gt).rmse
        assert a == pytest.approx(b, rel=1e-6)


class TestSimulationDeterminism:
    def test_sessions_are_reproducible(self):
        """Same scenario, same seeds -> bitwise-identical results."""
        from repro.core import ClientScenario, SlamShareConfig, SlamShareSession
        from repro.datasets import euroc_dataset

        def run():
            ds = euroc_dataset("MH04", duration=5.0, rate=10.0)
            session = SlamShareSession(
                [ClientScenario(0, ds)],
                SlamShareConfig(camera_fps=10.0, render_video_frames=False),
            )
            result = session.run()
            return result.server.client_trajectory(0).positions

        assert np.array_equal(run(), run())

    @given(seeds)
    @settings(max_examples=5, deadline=None)
    def test_links_deterministic_per_seed(self, seed):
        from repro.net import Link, SimClock

        def deliveries():
            clock = SimClock()
            link = Link(clock, bandwidth_bps=1e6, loss_rate=0.3, seed=seed)
            arrived = []
            for i in range(50):
                link.send(1000, lambda i=i: arrived.append(i))
            clock.run()
            return arrived

        assert deliveries() == deliveries()
