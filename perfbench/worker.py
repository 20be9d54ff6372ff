"""One benchmark run of one workload, in a fresh interpreter.

Started by ``run.py``; not meant to be run by hand.  Prints ``READY``
plus the input-generation seconds once the workload is set up, then
(unless ``--setup-only``) one JSON line with the run's results.

Every run is a fresh interpreter on purpose: the program's process-wide
memos (DES key schedules and decrypted blobs in ``crypto.modes``, the
GF(256) plans in ``codec.matrix``, the Reed-Solomon decode matrices)
start cold, as they do for a real campaign.  Repeating one episode in
a warm process would let the decrypt memo hide most of shared_folder's
DES cost.  Episodes within a run use distinct seeds, so content memos
do not carry from one episode to the next.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_program():
    """Import ``repro`` from this checkout's ``src``, never elsewhere."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import repro

    where = os.path.realpath(repro.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"repro imported from {where}, not {SRC}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _e2e(episodes, rates, peak_rss_mb):
    """``(metrics, details)`` of the reported episodes (tracing off).

    ``rates`` are the ops per host second of every timed episode; their
    median resists the bursts a shared host adds to single episodes.
    """
    from stats import median, tail

    latency = [x for e in episodes for x in e.op_latency]
    visibility = [x for e in episodes for x in e.visibility]
    attempts = sum(e.attempts for e in episodes)
    failed = sum(e.failed_attempts for e in episodes)
    op_seconds = sum(e.op_seconds for e in episodes)
    written = sum(e.written_bytes for e in episodes)
    op_q, op_tail = tail(latency)
    vis_q, vis_tail = tail(visibility)
    metrics = {
        "ops_per_s": median(rates),
        "peak_rss_mb": peak_rss_mb,
        "ops_ok_frac": 1.0 - failed / attempts,
        "sim_op_p50_s": median(latency),
        "sim_op_tail_s": op_tail,
        "sim_visibility_p50_s": median(visibility),
        "sim_visibility_tail_s": vis_tail,
        "sim_goodput_mbps":
            sum(e.op_bytes for e in episodes) * 8 / 1e6 / op_seconds,
        "wire_bytes_per_user_byte":
            sum(e.wire_bytes for e in episodes) / written,
    }
    details = {
        "sim_op_tail_percentile": op_q,
        "sim_op_samples": len(latency),
        "sim_visibility_tail_percentile": vis_q,
        "sim_visibility_samples": len(visibility),
        "ops_failed_frac": failed / attempts,
    }
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="write the traced spans here")
    args = parser.parse_args(argv)

    _import_program()
    from stats import calibrate, fingerprint
    from layertrace import Tracer
    from workloads import WORKLOADS, episode_seed

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    state, input_s = workload.prepare(episode_seed(args.seed, 0))
    print(f"READY {input_s!r}", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        # Traced pass: the reported episodes only, with every layer
        # boundary wrapped.  It runs in its own interpreter so memos
        # start as cold as in the untraced pass it is compared with.
        tracer = Tracer().install()
        episodes, walls = [], []
        try:
            for index in range(workload.episodes):
                if state is None:
                    state, _ = workload.prepare(
                        episode_seed(args.seed, index))
                started = time.perf_counter()
                episodes.append(workload.run(state))
                walls.append(time.perf_counter() - started)
                state = None
                tracer.end_episode()
        finally:
            tracer.uninstall()
        metrics, details = {}, {}
        layers = tracer.layer_metrics(
            sum(walls), sum(e.commits for e in episodes))
        for episode in episodes:
            for key, value in episode.layers.items():
                if key.endswith("_max"):
                    layers[key] = max(layers.get(key, 0), value)
                else:
                    layers[key] = layers.get(key, 0) + value
        if args.spans:
            tracer.write_spans(args.spans)
    else:
        # Untraced pass: at least `workload.episodes` episodes and at
        # least `--seconds` of host time.  Only the first
        # `workload.episodes` feed the simulated metrics and the peak
        # RSS, so those measure a fixed amount of work.
        episodes, walls = [], []
        while True:
            if state is None:
                state, _ = workload.prepare(
                    episode_seed(args.seed, len(walls)))
            started = time.perf_counter()
            episodes.append(workload.run(state))
            walls.append(time.perf_counter() - started)
            state = None
            if len(walls) == workload.episodes:
                peak_rss_mb = _peak_rss_mb()
            if (len(walls) >= workload.episodes
                    and sum(walls) >= args.seconds):
                break
        metrics, details = _e2e(
            episodes[:workload.episodes],
            [e.ops / wall for e, wall in zip(episodes, walls)],
            peak_rss_mb)
        layers = {}
    problems = [f"episode {i}: {p}" for i, e in enumerate(episodes)
                for p in e.problems]
    signatures = [e.signature() for e in episodes]
    if len(set(signatures)) < len(signatures):
        problems.append("episodes with different seeds gave one result")

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "correct": not problems,
        "problems": problems,
        "attempted": sum(e.attempts for e in episodes),
        "failed": sum(e.attempts for e in episodes if e.problems),
        "episodes": len(episodes),
        "episode_walls_s": walls,
        "signatures": signatures,
        "metrics": metrics,
        "layers": layers,
        "details": details,
        "fingerprint": fingerprint(),
        "calibration_s": calibrate(),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
