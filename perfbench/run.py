"""End-to-end sync benchmark: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch_sync --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` measures the per-layer metrics in a separate traced pass.
Metric names, units and directions come from ``BENCHMARK.json``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result
(fingerprint, tail percentiles, sample counts, per-episode walls) goes
to ``perfbench/out/``.

This launcher imports nothing from the program.  Each pass runs in a
fresh interpreter (``worker.py``), one process and one thread at a
time, and the launcher waits for each before starting the next.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from stats import median  # noqa: E402  (stdlib only)

OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
#: Extra set-up measurements per untraced run (the worker's own set-up
#: is one more); setup_s is their median.
SETUP_PROBES = 2
#: Hard limit for any one child, seconds.
CHILD_TIMEOUT = 150.0


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchError(f"{path} is missing")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise BenchError(f"no program source under {ROOT}/src")
    with open(path) as spec:
        return json.load(spec)


def run_child(argv, deadline: float):
    """Run one worker; returns ``(seconds to READY, input s, last line)``."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER] + argv, cwd=ROOT,
        stdout=subprocess.PIPE, text=True,
    )
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - started
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past its time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not first.startswith("READY "):
        raise BenchError(f"worker {argv} exited with {proc.returncode}")
    lines = [line for line in out.splitlines() if line.strip()]
    return ready, float(first.split()[1]), lines[-1] if lines else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end sync benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        result = measure(spec, args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, stem + ".json"), "w") as out:
        json.dump(result, out, indent=1, sort_keys=True)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    for metric in declared:
        value = result["metrics"][metric["name"]]["value"]
        print(f"{metric['name']:<36} {value:>16.6g} {metric['unit']:<10}"
              f" {metric['better']} is better")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


def measure(spec: dict, args) -> dict:
    deadline = time.perf_counter() + CHILD_TIMEOUT
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            ready, input_s, _ = run_child(common + ["--setup-only"],
                                          deadline)
            setups.append(ready - input_s)
    # With tracing, the untraced pass only needs the K episodes the
    # traced pass repeats, so it runs no longer than that.
    seconds = ["--seconds", "0"] if args.trace else []
    ready, input_s, line = run_child(common + seconds, deadline)
    setups.append(ready - input_s)
    untraced = json.loads(line)
    result = dict(untraced)
    problems = list(untraced["problems"])
    if args.trace:
        spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}"
                                  ".jsonl")
        os.makedirs(OUT, exist_ok=True)
        _, _, line = run_child(common + ["--trace", "1", "--spans", spans],
                               deadline)
        traced = json.loads(line)
        problems += traced["problems"]
        count = len(traced["signatures"])
        if traced["signatures"] != untraced["signatures"][:count]:
            problems.append("tracing changed the simulated results")
        values = dict(traced["layers"])
        values["bench.trace_overhead_frac"] = (
            sum(traced["episode_walls_s"])
            / sum(untraced["episode_walls_s"][:count]) - 1.0)
        result["traced"] = traced
        declared = spec["per_layer"]
    else:
        values = dict(untraced["metrics"])
        values["setup_s"] = median(setups)
        result["setup_samples_s"] = setups
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    result["metrics"] = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
    }
    result["problems"] = problems
    result["correct"] = not problems
    return result


if __name__ == "__main__":
    sys.exit(main())
