"""One benchmark process: set-up timing, or timed sessions of one workload.

``run.py`` starts this file as a child process, one at a time, so that
set-up is measured in a fresh interpreter (the first-use vocabulary
build is paid) and the peak RSS is that of a single workload process.

    python3 perfbench/session_run.py setup --workload W --seed N --out F
    python3 perfbench/session_run.py run --workload W --seed N \
        --seconds S --trace 0|1 --out F [--spans PATH]

``run`` repeats whole sessions back to back while the next one is
expected to end within ``--seconds`` (counted from the child's start;
at least two sessions).  In every session the host-speed probe of
``speed.py`` runs before each ``process_frame`` call.  With
``--trace 0`` every session is untraced and only
``SlamShareServer.process_frame`` and ``MapMerger.merge_maps`` are
timed.  With ``--trace 1`` untraced and traced sessions alternate: the
untraced walls give the tracing overhead, the traced ones the per-layer
spans.  Every session's deterministic outputs must equal the first's.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import sys
import time

import numpy as np

from layers import (
    LAYERS,
    LayerCounts,
    SpanRecorder,
    e2e_timers,
    installed,
    layer_table,
    speed_probes,
)
from speed import SpeedProbe
from workloads import WORKLOADS

_now = time.perf_counter
_STARTED = _now()
SHM_DIR = "/dev/shm"
WARM_UP_FRAMES = 5
SETUP_PROBES = 40


def shm_entries() -> set:
    return set(os.listdir(SHM_DIR)) if os.path.isdir(SHM_DIR) else set()


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def _pose_digest(result) -> str:
    """sha256 over every client's per-frame server and display poses."""
    h = hashlib.sha256()
    for cid in sorted(result.outcomes):
        for traj in (result.server.client_trajectory(cid),
                     result.outcomes[cid].display_trajectory()):
            h.update(np.ascontiguousarray(traj.timestamps, dtype=np.float64).tobytes())
            if len(traj):
                h.update(np.ascontiguousarray(traj.positions, dtype=np.float64).tobytes())
                h.update(np.ascontiguousarray(traj.orientations, dtype=np.float64).tobytes())
    for event in result.merges:
        h.update(np.asarray(
            [event.session_time, event.client_id, event.merge_ms,
             event.n_fused_points], dtype=np.float64).tobytes())
        h.update(np.ascontiguousarray(event.transform.matrix(), dtype=np.float64).tobytes())
    return h.hexdigest()


def _pooled_merged_ate(result) -> float:
    """ATE of all merged clients' server trajectories under one Sim3."""
    from repro.geometry import umeyama
    from repro.metrics.ate import associate

    est_rows, gt_rows = [], []
    for cid in result.server.merged_clients():
        est, gt, _ = associate(result.server.client_trajectory(cid),
                               result.outcomes[cid].scenario.dataset.ground_truth)
        est_rows.append(est)
        gt_rows.append(gt)
    est, gt = np.vstack(est_rows), np.vstack(gt_rows)
    transform = umeyama(est, gt, with_scale=True)
    residual = np.linalg.norm(gt - transform.apply(est), axis=1)
    return float(np.sqrt((residual ** 2).mean()))


def session_outputs(session, result) -> dict:
    """The session's deterministic outputs (no wall times)."""
    outcomes = result.outcomes.values()
    captured = sum(o.frames_captured for o in outcomes)
    offline = sum(o.frames_offline for o in outcomes)
    posed = sum(len(o.pose_rtts_ms) for o in outcomes)
    rtts = [r for o in outcomes for r in o.pose_rtts_ms]
    # Wire bytes of every uploaded frame message (dropped ones included).
    frames_up = [m for device_ep, _ in session._endpoints.values()
                 for m in device_ep.sent if m.msg_type == "frame"]
    retransmits = sum(ep.retransmits for pair in session._endpoints.values()
                      for ep in pair)
    return {
        "frames_captured": captured,
        "frames_online": captured - offline,
        "frames_processed": sum(o.frames_processed for o in outcomes),
        "frames_lost": sum(o.frames_lost for o in outcomes),
        "frames_posed": posed,
        "frames_failed": captured - offline - posed,
        "uplink_frames": len(frames_up),
        "uplink_bytes": sum(m.wire_bytes for m in frames_up),
        "uplink_drops": sum(o.uplink_drops for o in outcomes),
        "pose_drops": sum(o.pose_drops for o in outcomes),
        "retransmits": retransmits,
        "shed": result.server.frames_shed,
        "handoffs": sum(o.handoffs for o in outcomes),
        "local_frames": sum(o.frames_local for o in outcomes),
        "merges": len(result.merges),
        "merge_model_ms": [e.merge_ms for e in result.merges],
        "clients_merged": sorted(result.server.merged_clients()),
        "map_ate_m": _pooled_merged_ate(result),
        "client_ate_max_m": max(result.client_ate(cid).rmse
                                for cid in result.outcomes),
        "sim_pose_rtt_p95_ms": _percentile(rtts, 95),
        "pose_digest": _pose_digest(result),
    }


def run_session(workload, seed: int, traced: bool):
    """Build the workload's session, run it once, close it."""
    from repro.core import SlamShareSession

    # The previous session's cyclic garbage is freed here, untimed, not
    # inside this session's run() (and not counted in its peak RSS).
    gc.collect()
    scenarios, config = workload.build(seed)
    shm_before = shm_entries()
    probe = SpeedProbe()
    record = {"traced": traced, "probe": probe}
    with SlamShareSession(scenarios, config) as session:
        if traced:
            recorder, counts = SpanRecorder(), LayerCounts()
            context = installed(recorder, counts, workload.store_class)
            record.update(recorder=recorder, counts=counts)
        else:
            frames, merges = [], []
            context = e2e_timers(frames, merges)
            record.update(frames=frames, merges=merges)
        with context, speed_probes(probe):
            start = _now()
            result = session.run()
            end = _now()
        record.update(origin=start, wall_s=end - start,
                      rescaled_wall_s=probe.rescale_span(start, end),
                      outputs=session_outputs(session, result))
    leaked = sorted(shm_entries() - shm_before)
    if leaked:
        raise RuntimeError(f"shared-memory segments outlived the session: {leaked}")
    return record


def e2e_metrics(records) -> tuple:
    """End-to-end metrics, pooled over the run's untraced sessions.

    Timings are at reference host speed (see speed.py): per-call walls
    are rescaled by the speed probed around each call, session walls by
    the speed probed through the session.
    """
    untraced = [r for r in records if not r["traced"]]
    out = untraced[0]["outputs"]
    frame_s = [d for r in untraced for d in r["probe"].rescale_events(r["frames"])]
    merge_s = [d for r in untraced for d in r["probe"].rescale_events(r["merges"])]
    metrics = {
        "throughput_fps": (out["frames_processed"] * len(untraced)
                           / sum(r["rescaled_wall_s"] for r in untraced)),
        "server_frame_p50_ms": _percentile(frame_s, 50) * 1e3,
        "server_frame_p95_ms": _percentile(frame_s, 95) * 1e3,
        "merge_attempt_mean_ms": statistics.fmean(merge_s) * 1e3,
        "frames_posed_frac": out["frames_posed"] / out["frames_online"],
        "clients_merged": len(out["clients_merged"]),
        "map_ate_m": out["map_ate_m"],
        "client_ate_max_m": out["client_ate_max_m"],
        "sim_pose_rtt_p95_ms": out["sim_pose_rtt_p95_ms"],
        "uplink_bytes_per_frame": out["uplink_bytes"] / out["uplink_frames"],
    }
    return metrics, {"frame_samples": len(untraced[0]["frames"]),
                     "merge_attempts": len(untraced[0]["merges"]),
                     "session_walls_s": [r["wall_s"] for r in untraced],
                     "rescaled_walls_s": [r["rescaled_wall_s"] for r in untraced]}


def layer_metrics(records) -> tuple:
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    tables = [layer_table(r["recorder"]) for r in traced]
    first, out = tables[0], traced[0]["outputs"]
    metrics = {}
    for name in LAYERS:
        durations = [d * 1e3 for t in tables for d in t[name]["durations"]]
        metrics[f"{name}.calls"] = first[name]["calls"]
        metrics[f"{name}.self_s"] = statistics.median(t[name]["self_s"] for t in tables)
        metrics[f"{name}.p50_ms"] = _percentile(durations, 50)
        metrics[f"{name}.p95_ms"] = _percentile(durations, 95)
    # The speed probes run inside run() but outside every span.
    walls = [r["wall_s"] - r["probe"].total_s for r in traced]
    covered = [sum(t[n]["self_s"] for n in LAYERS) for t in tables]
    metrics["session.other.self_s"] = statistics.median(
        w - c for w, c in zip(walls, covered))
    metrics["trace.coverage"] = statistics.median(
        c / w for w, c in zip(walls, covered))
    metrics["trace.overhead_frac"] = (
        statistics.median(r["rescaled_wall_s"] for r in traced)
        / statistics.median(r["rescaled_wall_s"] for r in untraced) - 1.0)

    counts = traced[0]["counts"]
    attempts = first["merge.attempt"]["calls"]
    metrics["tracking.success_frac"] = (
        counts.track_ok / max(first["tracking.track"]["calls"], 1))
    metrics["mapping.keyframes"] = first["mapping.insert_keyframe"]["calls"]
    metrics["merge.ok"] = sum(counts.merge_flags)
    metrics["merge.ok_frac"] = metrics["merge.ok"] / max(attempts, 1)
    metrics["merge.ransac_per_attempt"] = (
        first["merge.ransac"]["calls"] / max(attempts, 1))
    metrics["store.bytes"] = counts.store_bytes
    metrics["store.reclaimed_bytes"] = counts.reclaimed_bytes
    metrics["net.bytes_up"] = counts.net_bytes_up
    metrics["net.uplink_drops"] = out["uplink_drops"]
    metrics["net.pose_drops"] = out["pose_drops"]
    metrics["net.retransmits"] = out["retransmits"]
    metrics["server.shed"] = out["shed"]
    metrics["offload.handoffs"] = out["handoffs"]
    metrics["offload.local_frames"] = out["local_frames"]

    # Model beside measured: the SimClock's calibrated figures next to
    # the wall times of the same calls, and their ratio.
    model_frame = [ms for r in traced for ms in r["counts"].model_frame_ms]
    metrics["tracking.model_p50_ms"] = _percentile(model_frame, 50)
    metrics["tracking.drift"] = (metrics["tracking.track.p50_ms"]
                                 / max(metrics["tracking.model_p50_ms"], 1e-12))
    model_merge = [ms for r in traced for ms in r["outputs"]["merge_model_ms"]]
    ok_walls = [d * 1e3 for t, r in zip(tables, traced)
                for d, ok in zip(t["merge.attempt"]["durations"],
                                 r["counts"].merge_flags) if ok]
    metrics["merge.model_ms"] = statistics.fmean(model_merge) if model_merge else 0.0
    metrics["merge.drift"] = (statistics.fmean(ok_walls) / metrics["merge.model_ms"]
                              if ok_walls and model_merge else 0.0)
    ranking = sorted(
        ((name, first[name]["calls"], metrics[f"{name}.self_s"]) for name in LAYERS),
        key=lambda row: -row[2])
    ranking.append(("session.other", 0, metrics["session.other.self_s"]))
    wall = statistics.median(walls)
    return metrics, {"ranking": [[n, c, s, s / wall] for n, c, s in ranking],
                     "traced_sessions": len(traced),
                     "untraced_sessions": len(untraced)}


def first_mismatch(records):
    """Name the first output on which a session differs from the first."""
    reference = records[0]["outputs"]
    for i, r in enumerate(records[1:], start=1):
        for key, value in reference.items():
            if r["outputs"][key] != value:
                kind = "traced" if r["traced"] else "untraced"
                return f"session {i} ({kind}) differs in {key}"
    return None


def cmd_setup(args) -> dict:
    from repro.core import SlamShareSession

    workload = WORKLOADS[args.workload]
    probe = SpeedProbe()
    probe.sample_n(SETUP_PROBES)
    start = _now()
    scenarios, config = workload.build(args.seed)
    with SlamShareSession(scenarios, config):
        setup_s = _now() - start
    probe.sample_n(SETUP_PROBES)
    return {"setup_s": setup_s * probe.factor(), "setup_wall_s": setup_s}


def warm_up(workload, seed: int) -> None:
    """Run the workload's first frames once, untimed, to finish lazy set-up."""
    from repro.core import SlamShareSession

    scenarios, config = workload.build(seed)
    for scenario in scenarios:
        scenario.n_frames = WARM_UP_FRAMES
    with SlamShareSession(scenarios, config) as session:
        session.run()


def cmd_run(args) -> dict:
    workload = WORKLOADS[args.workload]
    warm_up(workload, args.seed)
    records = []
    while True:
        traced = bool(args.trace) and len(records) % 2 == 1
        records.append(run_session(workload, args.seed, traced))
        # Stop before a session that would end past --seconds.
        if (len(records) >= 2
                and _now() - _STARTED + records[-1]["wall_s"] > args.seconds):
            break
    report = {"outputs": records[0]["outputs"],
              "mismatch": first_mismatch(records)}
    if args.trace:
        report["metrics"], report["info"] = layer_metrics(records)
        if args.spans:
            last = [r for r in records if r["traced"]][-1]
            report["info"]["spans"] = last["recorder"].write_jsonl(
                args.spans, last["origin"])
    else:
        report["metrics"], report["info"] = e2e_metrics(records)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    report = cmd_setup(args) if args.mode == "setup" else cmd_run(args)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
