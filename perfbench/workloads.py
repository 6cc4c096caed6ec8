"""The benchmark's workloads: scenario + config builders and their contracts.

Every workload is a multi-client :class:`repro.core.SlamShareSession`.
Each client releases camera frames on the SimClock at 10 fps whether or
not the server keeps up (an open loop in simulated time); in wall time a
session is a batch job over a fixed number of frames.

The seed drives the generated sensor inputs: each client's IMU noise
stream (``ClientScenario.imu_seed``).  Feature-oracle noise is pinned to
the per-client seeds the repo's other benchmarks use, because the final
SLAM accuracy is chaotic in it (the pooled ATE of ``kitti3_lossy`` moved
by ~25% across oracle seeds, by ~1e-5 across IMU seeds), and an
accuracy metric that swings with the seed cannot gate a change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

RATE_HZ = 10.0


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], Tuple[list, object]]
    store_class: str            # the store the config selects
    merged_clients: Tuple[int, ...]
    # Layers that must record calls > 0 (and those that must record
    # none) in a traced run, so an import change cannot silently zero a
    # wrapper.
    live_layers: Tuple[str, ...]
    dead_layers: Tuple[str, ...]
    # Counters that must be non-zero / zero on this workload.
    live_counts: Tuple[str, ...] = ()
    dead_counts: Tuple[str, ...] = ()


def _imu_seeds(seed: int, n_clients: int) -> List[int]:
    state = np.random.SeedSequence([seed, 0x5EED]).generate_state(n_clients)
    return [int(s) for s in state]


# Same per-client oracle seeds as benchmarks/bench_wallclock.py.
_ORACLE_SEEDS = (7, 9, 21, 33)


def _euroc4(seed: int, render: bool, duration: float):
    from repro.core import ClientScenario, SlamShareConfig
    from repro.datasets import euroc_dataset

    traces = ("MH04", "MH05", "MH04", "V202")
    imu = _imu_seeds(seed, len(traces))
    scenarios = [
        ClientScenario(
            cid, euroc_dataset(name, duration=duration, rate=RATE_HZ),
            start_time=float(cid), oracle_seed=_ORACLE_SEEDS[cid],
            imu_seed=imu[cid],
        )
        for cid, name in enumerate(traces)
    ]
    config = SlamShareConfig(camera_fps=RATE_HZ, render_video_frames=render)
    return scenarios, config


def build_euroc4_video(seed: int):
    return _euroc4(seed, render=True, duration=3.0)


def build_euroc4_merge(seed: int):
    return _euroc4(seed, render=False, duration=6.0)


def build_kitti3_lossy(seed: int):
    from repro.core import ClientScenario, SlamShareConfig
    from repro.core.config import ServingConfig
    from repro.core.offload import OffloadConfig
    from repro.datasets import kitti_dataset
    from repro.net.tc import ShapingProfile

    duration = 10.0
    # Small shm slabs and a low compaction threshold so that the map
    # budgets' evictions end in real shard-log compactions.
    lossy = ShapingProfile("15% loss", loss_rate=0.15)
    slow = ShapingProfile("300 ms delay, 15% loss", delay_s=0.300,
                          loss_rate=0.15)
    imu = _imu_seeds(seed, 3)
    arcs = (0.0, 60.0, 120.0)   # KITTI-05 split three ways (Fig. 10c)
    shaping = (lossy, lossy, slow)
    offline = (((4.0, 6.0),), (), ())
    scenarios = [
        ClientScenario(
            cid,
            kitti_dataset("KITTI-05", duration=duration, rate=RATE_HZ,
                          start_arclength=arcs[cid]),
            start_time=float(cid), oracle_seed=_ORACLE_SEEDS[cid],
            imu_seed=imu[cid], shaping=shaping[cid],
            offline_windows=offline[cid],
        )
        for cid in range(3)
    ]
    serving = ServingConfig(
        store_backend="shm",
        offload=OffloadConfig(policy="adaptive"),
        map_max_keyframes=24,
        map_max_points=2500,
        shm_slab_bytes=512 * 1024,
        store_compact_utilization=0.25,
    )
    config = SlamShareConfig(camera_fps=RATE_HZ, render_video_frames=False,
                             serving=serving)
    return scenarios, config


_ALWAYS = (
    "harness.imu_synth", "harness.oracle", "client.imu", "client.capture",
    "client.fuse", "net.send", "server.admission", "server.frame",
    "tracking.track", "mapping.insert_keyframe", "mapping.local_ba", "merge.attempt",
    "merge.bow", "merge.ransac", "merge.weld_ba", "store.publish",
    "gpu.submit",
)

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # The synthetic harness and the client codec dominate.
        Workload(
            "euroc4_video", build_euroc4_video, "ShardedMapStore", (0, 1, 2),
            live_layers=_ALWAYS + ("harness.render", "client.encode"),
            dead_layers=("store.remove", "store.compact"),
            dead_counts=("net.uplink_drops", "offload.handoffs"),
        ),
        # Tracking, local BA and map merging dominate; V202 never
        # overlaps the other clients, so its merge attempts fail.
        Workload(
            "euroc4_merge", build_euroc4_merge, "ShardedMapStore", (0, 1, 2),
            live_layers=_ALWAYS,
            dead_layers=("harness.render", "client.encode", "store.remove",
                         "store.compact"),
            dead_counts=("net.uplink_drops", "offload.handoffs"),
        ),
        # The serving paths: drops, retransmits, a handoff, on-device
        # tracking, store removes and compaction.  It bypasses the
        # harness render and most merge work.
        Workload(
            "kitti3_lossy", build_kitti3_lossy, "ShmShardedMapStore", (0, 1, 2),
            live_layers=_ALWAYS + ("store.remove", "store.compact"),
            dead_layers=("harness.render", "client.encode"),
            live_counts=("net.uplink_drops", "offload.handoffs",
                         "offload.local_frames", "store.reclaimed_bytes"),
        ),
    )
}
