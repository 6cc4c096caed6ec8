"""Layer-attributed wall-clock benchmark of SLAM-Share sessions.

    python3 perfbench/run.py --workload euroc4_merge --seed 1 --seconds 20 --trace 0

Run from the repository root.  One workload runs per invocation, in
child processes started one at a time (no worker threads or processes,
one BLAS thread): ``session_run.py setup`` five times for the set-up
time, then ``session_run.py run`` for the measured sessions, all within
``--seconds`` (at least two sessions).  The metrics and their units are
declared in ``BENCHMARK.json``.  Times are wall times rescaled to a
reference host speed by a probe run beside them (``speed.py``); the raw
walls are printed too.


* ``--trace 0`` prints the ``end_to_end`` metrics of untraced sessions,
  in which only ``process_frame`` and ``merge_maps`` are timed;
* ``--trace 1`` alternates untraced and traced sessions and prints the
  ``per_layer`` metrics, a table ranking layers by self time, and writes
  the last traced session's spans to ``perfbench/out/`` as JSONL.

The last line of standard output is one JSON object with ``correct``,
``attempted`` (frames tracked), ``failed`` (frames whose tracking
failed) and ``metrics``.  ``correct`` is false, and the exit code 1,
when a session's outputs differ from another session's (traced or not)
or from ``reference.json``, when a layer wrapper records no calls on a
workload meant to exercise it, when layer spans cover under 95% of the
session wall, or when a shared-memory segment outlives the run.

``--write-reference`` records the run's outputs for its seed in
``reference.json`` instead of checking them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
MIN_COVERAGE = 0.95

sys.path.insert(0, str(HERE))
from session_run import shm_entries  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv, deadline: float, log_path: Path) -> float:
    """Run one ``session_run.py`` process to completion; return its peak RSS (MB)."""
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "session_run.py"), *argv],
            cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                raise BenchError(f"{argv[0]} child exceeded the time limit")
            time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log_path.read_text(encoding="utf-8").splitlines()[-15:]
        raise BenchError(f"{argv[0]} child exited {proc.returncode}:\n"
                         + "\n".join(tail))
    return usage.ru_maxrss / 1024.0   # Linux reports KiB


def reference_problems(workload, seed: int, outputs: dict) -> list:
    problems = []
    if outputs["clients_merged"] != list(workload.merged_clients):
        problems.append(f"merged clients {outputs['clients_merged']} != "
                        f"{list(workload.merged_clients)}")
    seeds = json.loads(REFERENCE.read_text())[workload.name]
    entry = seeds.get(str(seed))
    if entry is not None:
        problems += [f"{key} = {outputs[key]!r}, reference {value!r}"
                     for key, value in entry.items() if outputs[key] != value]
        return problems
    # A seed without a recorded reference: hold it to the envelope of
    # the recorded ones.  Frame schedules do not depend on the seed.
    known = list(seeds.values())
    for key in ("frames_captured", "frames_online"):
        if outputs[key] != known[0][key]:
            problems.append(f"{key} = {outputs[key]} != {known[0][key]}")
    for key in ("map_ate_m", "client_ate_max_m"):
        cap = 1.5 * max(e[key] for e in known)
        if outputs[key] > cap:
            problems.append(f"{key} = {outputs[key]:.4f} above {cap:.4f}")
    floor = min(e["frames_posed"] / e["frames_online"] for e in known) - 0.05
    if outputs["frames_posed"] / outputs["frames_online"] < floor:
        problems.append(f"posed fraction below {floor:.3f}")
    return problems


def layer_problems(workload, metrics: dict) -> list:
    problems = [f"layer {n} recorded no calls" for n in workload.live_layers
                if metrics[f"{n}.calls"] == 0]
    problems += [f"layer {n} recorded calls" for n in workload.dead_layers
                 if metrics[f"{n}.calls"] != 0]
    problems += [f"{n} is zero" for n in workload.live_counts if metrics[n] == 0]
    problems += [f"{n} is non-zero" for n in workload.dead_counts if metrics[n] != 0]
    if metrics["trace.coverage"] < MIN_COVERAGE:
        problems.append(f"layer spans cover {metrics['trace.coverage']:.1%} "
                        f"of session wall (< {MIN_COVERAGE:.0%})")
    return problems


def write_reference(workload, seed: int, outputs: dict) -> None:
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    data.setdefault(workload.name, {})[str(seed)] = outputs
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"benchmark: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in contract[section]}
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = OUT / f"{stem}.json"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--out", str(result_path)]
    shm_before = shm_entries()

    started = time.monotonic()
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                run_child(["setup", *common], deadline, OUT / f"{stem}.log")
                setups.append(json.loads(result_path.read_text()))
        # The set-up processes count against --seconds.
        remaining = args.seconds - (time.monotonic() - started)
        run_argv = ["run", *common, "--seconds", f"{remaining:.3f}",
                    "--trace", str(args.trace)]
        if args.trace:
            run_argv += ["--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")]
        peak_rss_mb = run_child(run_argv, deadline, OUT / f"{stem}.log")
        report = json.loads(result_path.read_text())
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = report["metrics"]
    info = report["info"]
    outputs = report["outputs"]
    problems = []
    if report["mismatch"]:
        problems.append(report["mismatch"])
    leaked = sorted(shm_entries() - shm_before)
    if leaked:
        problems.append(f"shared-memory segments outlived the run: {leaked}")
    if args.write_reference:
        write_reference(workload, args.seed, outputs)
        print(f"recorded reference outputs for {args.workload} seed {args.seed}")
    else:
        problems += reference_problems(workload, args.seed, outputs)

    if args.trace:
        problems += layer_problems(workload, metrics)
        print(f"{args.workload}: layers ranked by self time "
              f"({info['traced_sessions']} traced, "
              f"{info['untraced_sessions']} untraced sessions; "
              f"{info.get('spans', 0)} spans written to {OUT.name}/)")
        for name, calls, self_s, share in info["ranking"]:
            print(f"  {name:<26} {calls:>7} calls {self_s:>9.4f} s  {share:6.1%}")
        print(f"  tracking.track p50 {metrics['tracking.track.p50_ms']:.2f} ms "
              f"measured vs {metrics['tracking.model_p50_ms']:.2f} ms model "
              f"(drift {metrics['tracking.drift']:.2f}); successful merge "
              f"{metrics['merge.model_ms'] * metrics['merge.drift']:.1f} ms "
              f"measured vs {metrics['merge.model_ms']:.1f} ms model "
              f"(drift {metrics['merge.drift']:.2f})")
        print(f"  spans cover {metrics['trace.coverage']:.1%} of session wall; "
              f"tracing overhead {metrics['trace.overhead_frac']:+.1%}")
        sessions = info["traced_sessions"] + info["untraced_sessions"]
    else:
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        metrics["peak_rss_mb"] = peak_rss_mb
        walls = " ".join(f"{w:.2f}" for w in info["session_walls_s"])
        rescaled = " ".join(f"{w:.2f}" for w in info["rescaled_walls_s"])
        setup_walls = " ".join(f"{s['setup_wall_s']:.3f}" for s in setups)
        print(f"{args.workload} seed {args.seed}: sessions of {walls} s wall "
              f"({rescaled} s at reference speed), "
              f"{info['frame_samples']} process_frame calls and "
              f"{info['merge_attempts']} merge attempts per session; "
              f"set-up walls {setup_walls} s")
        for name in [n for n in units if n in metrics]:
            tag = "  (SimClock model)" if name.startswith("sim_") else ""
            print(f"  {name:<24} {metrics[name]:>14.6g} {units[name]}{tag}")
        sessions = len(info["session_walls_s"])
    if set(metrics) != set(units):
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(units))}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    print(json.dumps({
        "correct": not problems,
        "attempted": outputs["frames_processed"] * sessions,
        "failed": outputs["frames_lost"] * sessions,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
