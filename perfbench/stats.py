"""Summary statistics, host fingerprint and calibration kernel."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import sys
import time
from typing import Dict, Sequence, Tuple

#: Percentiles tried for a tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """Samples ranked above the nearest-rank percentile ``q`` of ``n``."""
    return n - max(1, math.ceil(q / 100.0 * n))


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(q, value)``: the highest percentile with enough samples beyond.

    Tries :data:`TAIL_PERCENTILES` in order and takes the first with at
    least :data:`TAIL_MIN_BEYOND` samples ranked above it.  With too few
    samples for any of them, returns ``(100.0, max)``.
    """
    n = len(values)
    for q in TAIL_PERCENTILES:
        if beyond(n, q) >= TAIL_MIN_BEYOND:
            return q, percentile(values, q)
    return 100.0, max(values)


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def calibrate(repeats: int = 3) -> float:
    """Seconds for a fixed CPU kernel (best of ``repeats``).

    A pure-Python integer loop plus SHA-1 over 8 MiB: the two kinds of
    work the program's hot layers do (interpreted loops, C over bytes).
    Two results whose calibration differs by more than a quarter come
    from hosts that cannot be compared.
    """
    block = bytes(range(256)) * 4096
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        digest = hashlib.sha1()
        for _ in range(8):
            digest.update(block)
        best = min(best, time.perf_counter() - start)
    return best


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint() -> Dict[str, object]:
    """The host and toolchain facts two comparable results must share.

    Call after importing :mod:`repro`: whether ``scipy.signal`` got
    imported is what selects the bandwidth model's ``lfilter`` path.
    """
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "scipy_signal": "scipy.signal" in sys.modules,
    }
