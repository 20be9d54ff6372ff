"""Compare two sets of benchmark results, or refuse to.

Usage::

    python3 perfbench/compare.py --base A.json [A2.json ...] \\
        --change B.json [B2.json ...]

Each file is a full result that ``run.py`` wrote to ``perfbench/out/``.
All files must come from one workload and one trace mode.  Results
whose host fingerprints differ (CPU model, core count, Python, numpy,
scipy, whether ``scipy.signal`` imports) or whose calibration kernels
differ by more than a quarter are not compared: the script says why and
exits with status 2 instead of giving a verdict.  Otherwise it prints,
per metric, both medians, their ratio and whether the change is worse
than the parent by more than the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from stats import median  # noqa: E402

#: Largest calibration ratio between two comparable hosts.
CALIBRATION_TOLERANCE = 1.25


def load(paths):
    results = []
    for path in paths:
        with open(path) as handle:
            results.append(json.load(handle))
    return results


def refusal(results) -> str:
    """Why these results cannot be compared, or ``""`` if they can."""
    first = results[0]
    for other in results[1:]:
        for key in ("workload", "trace"):
            if other[key] != first[key]:
                return f"{key} differs: {first[key]!r} vs {other[key]!r}"
        if other["fingerprint"] != first["fingerprint"]:
            return (f"host fingerprints differ: {first['fingerprint']} vs "
                    f"{other['fingerprint']}")
    calibrations = [r["calibration_s"] for r in results]
    if max(calibrations) > CALIBRATION_TOLERANCE * min(calibrations):
        return f"calibration kernels differ: {calibrations}"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, change = load(args.base), load(args.change)
    reason = refusal(base + change)
    if reason:
        print(f"refused: {reason}")
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = spec["per_layer" if base[0]["trace"] else "end_to_end"]
    worse = 0
    for metric in declared:
        name = metric["name"]
        a = median([r["metrics"][name]["value"] for r in base])
        b = median([r["metrics"][name]["value"] for r in change])
        ratio = b / a if a else float("nan")
        verdict = ""
        bound = metric.get("bound")
        if bound is not None and a:
            loss = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            verdict = "WORSE" if loss > bound else "ok"
            worse += verdict == "WORSE"
        print(f"{name:<36} {a:>14.6g} {b:>14.6g} {ratio:>8.3f} "
              f"{metric['unit']:<10} {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
