"""Layer spans recorded from outside the program.

Each layer is one public function or method of the program.  The
benchmark wraps it *where its caller looks it up*: module-level
functions in the importing module's namespace (``render_frame``,
``synthesize_imu`` and ``preintegrate`` in ``repro.core.session``; the
merge helpers in ``repro.slam.merging``), methods on their class (the
store methods on the class the workload's config selects).  Nothing under ``src/`` is
edited; :func:`installed` restores every patched attribute on exit.

Spans live in memory: name, start, end, parent span and a frame id of
``(client_id, frame timestamp)``.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

from speed import SpeedProbe

_now = time.perf_counter

STORE = "<store>"

# (layer, owner, attribute).  ``owner`` is "module" or "module:Class";
# STORE stands for the workload's configured map-store class.
LAYER_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("harness.render", "repro.core.session", "render_frame"),
    ("harness.imu_synth", "repro.core.session", "synthesize_imu"),
    ("harness.oracle", "repro.vision.render:FeatureOracle", "observe"),
    ("client.imu", "repro.core.session", "preintegrate"),
    ("client.capture", "repro.core.client:SlamShareClient", "capture_frame"),
    ("client.encode", "repro.video.h264_like:H264LikeCodec", "encode"),
    ("client.fuse", "repro.core.client:SlamShareClient", "receive_server_pose"),
    ("net.send", "repro.net.transport:Endpoint", "send"),
    ("server.admission", "repro.core.server:SlamShareServer", "try_admit"),
    ("server.frame", "repro.core.server:SlamShareServer", "process_frame"),
    ("tracking.track", "repro.slam.tracking:Tracker", "track"),
    ("mapping.insert_keyframe", "repro.slam.local_mapping:LocalMapper",
     "insert_keyframe"),
    ("mapping.local_ba", "repro.slam.local_mapping:LocalMapper",
     "run_local_ba"),
    ("merge.attempt", "repro.slam.merging:MapMerger", "merge_maps"),
    ("merge.bow", "repro.slam.merging", "detect_common_region"),
    ("merge.ransac", "repro.slam.merging", "ransac_umeyama"),
    ("merge.weld_ba", "repro.slam.merging", "local_bundle_adjustment"),
    ("store.publish", STORE, "publish_map"),
    ("store.remove", STORE, "remove_keyframe"),
    ("store.remove", STORE, "remove_mappoint"),
    ("store.compact", STORE, "maybe_compact"),
    ("gpu.submit", "repro.gpu.scheduler:GpuScheduler", "submit"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in LAYER_TARGETS))

_STORE_MODULES = {
    "ShardedMapStore": "repro.sharedmem.sharding",
    "ShmShardedMapStore": "repro.sharedmem.shm_store",
}


def _resolve(owner: str, store_class: str):
    if owner == STORE:
        owner = f"{_STORE_MODULES[store_class]}:{store_class}"
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


class SpanRecorder:
    """In-memory spans with parent links and per-span self time."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.frames: List[Optional[Tuple[int, float]]] = []
        self.selfs: List[float] = []
        self._open: List[int] = []
        self._child: List[float] = []
        # Frame context for spans that do not carry one in their
        # arguments: set around each client capture.
        self.frame: Optional[Tuple[int, float]] = None

    def begin(self, name: str, frame=None) -> int:
        parent = self._open[-1] if self._open else -1
        if frame is None:
            frame = self.frames[parent] if parent >= 0 else self.frame
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(parent)
        self.frames.append(frame)
        self.ends.append(0.0)
        self.selfs.append(0.0)
        self._open.append(idx)
        self._child.append(0.0)
        self.starts.append(_now())
        return idx

    def end(self, idx: int) -> None:
        end = _now()
        self._open.pop()
        child = self._child.pop()
        duration = end - self.starts[idx]
        self.ends[idx] = end
        self.selfs[idx] = duration - child
        if self._child:
            self._child[-1] += duration

    def write_jsonl(self, path: str, origin: float) -> int:
        """Write every span as one JSON object per line (seconds from ``origin``)."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                frame = self.frames[i]
                fh.write(json.dumps({
                    "id": i,
                    "name": name,
                    "start_s": round(self.starts[i] - origin, 9),
                    "end_s": round(self.ends[i] - origin, 9),
                    "parent": self.parents[i] if self.parents[i] >= 0 else None,
                    "frame": list(frame) if frame is not None else None,
                }) + "\n")
        return len(self.names)


class LayerCounts:
    """Counts taken at the same boundaries as the spans."""

    def __init__(self) -> None:
        self.track_ok = 0
        self.merge_flags: List[bool] = []   # success of each merge attempt
        self.store_bytes = 0
        self.reclaimed_bytes = 0
        self.net_bytes_up = 0
        self.model_frame_ms: List[float] = []


def _span_wrapper(recorder: SpanRecorder, name: str, fn: Callable,
                  frame_of=None, after=None) -> Callable:
    begin, end = recorder.begin, recorder.end

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = begin(name, frame_of(args) if frame_of is not None else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            end(idx)
        if after is not None:
            after(args, result)
        return result

    return wrapper


@contextmanager
def _patched(patches):
    """Set ``(owner, attribute, value)`` triples; restore them on exit."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, value in patches:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


@contextmanager
def installed(recorder: SpanRecorder, counts: LayerCounts, store_class: str):
    """Wrap every layer of :data:`LAYER_TARGETS` for one traced session."""
    from repro.core.session import SlamShareSession

    # client capture -> (client_id, frame timestamp), so the client's
    # pose fusion (which only knows its frame number) joins the frame.
    frame_ts: Dict[Tuple[int, int], float] = {}

    def capture_context(fn):
        @functools.wraps(fn)
        def wrapper(self, state, frame_idx, dataset_ts):
            cid = state["scenario"].client_id
            frame_ts[(cid, state["frame_no"])] = dataset_ts
            recorder.frame = (cid, dataset_ts)
            try:
                return fn(self, state, frame_idx, dataset_ts)
            finally:
                recorder.frame = None
        return wrapper

    def after_track(args, result):
        counts.track_ok += bool(result.success)

    def after_frame(args, result):
        counts.model_frame_ms.append(result.latency.total)

    def after_merge(args, result):
        counts.merge_flags.append(bool(result.success))

    def after_publish(args, result):
        counts.store_bytes += int(result)

    def after_compact(args, result):
        counts.reclaimed_bytes += int(result)

    def after_send(args, message):
        if args[0].name.startswith("device-"):
            counts.net_bytes_up += message.wire_bytes

    frame_of = {
        "server.frame": lambda a: (a[1], a[2]),
        "client.fuse": lambda a: (a[0].client_id,
                                  frame_ts.get((a[0].client_id, a[1]))),
    }
    after = {
        "tracking.track": after_track,
        "server.frame": after_frame,
        "merge.attempt": after_merge,
        "store.publish": after_publish,
        "store.compact": after_compact,
        "net.send": after_send,
    }
    patches = [(SlamShareSession, "_process_frame",
                capture_context(SlamShareSession._process_frame))]
    for layer, owner, attr in LAYER_TARGETS:
        target = _resolve(owner, store_class)
        patches.append((target, attr, _span_wrapper(
            recorder, layer, target.__dict__[attr],
            frame_of.get(layer), after.get(layer),
        )))
    with _patched(patches):
        yield


def _timer(fn: Callable, sink: List[Tuple[float, float]]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append((start, _now() - start))

    return wrapper


@contextmanager
def e2e_timers(frames: List[Tuple[float, float]], merges: List[Tuple[float, float]]):
    """The untraced run's only wrappers: ``(start, wall)`` of process_frame
    and merge_maps calls."""
    from repro.core.server import SlamShareServer
    from repro.slam.merging import MapMerger

    with _patched([
        (SlamShareServer, "process_frame",
         _timer(SlamShareServer.process_frame, frames)),
        (MapMerger, "merge_maps", _timer(MapMerger.merge_maps, merges)),
    ]):
        yield


@contextmanager
def speed_probes(probe: SpeedProbe):
    """Sample the host speed right before every process_frame call.

    Installed outermost, so the probe runs outside any span or timer.
    """
    from repro.core.server import SlamShareServer

    fn = SlamShareServer.process_frame

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        probe.sample()
        return fn(*args, **kwargs)

    with _patched([(SlamShareServer, "process_frame", wrapper)]):
        yield


def layer_table(recorder: SpanRecorder) -> Dict[str, Dict[str, object]]:
    """Per-layer calls, self seconds and inclusive span durations."""
    table: Dict[str, Dict[str, object]] = {
        name: {"calls": 0, "self_s": 0.0, "durations": []} for name in LAYERS
    }
    for i, name in enumerate(recorder.names):
        row = table[name]
        row["calls"] += 1
        row["self_s"] += recorder.selfs[i]
        row["durations"].append(recorder.ends[i] - recorder.starts[i])
    return table
