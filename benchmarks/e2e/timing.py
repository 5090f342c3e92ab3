"""Shared statistics for benchmark reports.

Every statistic a report prints goes through :func:`summarize`, so all
reports state the same things about a sample: its median, quartiles,
inter-quartile range and size.  Quartiles are Python's
``statistics.quantiles(values, n=4)`` (the exclusive method), the
definition the benchmark's spread check uses.  :func:`environment` records
what the numbers were measured on.
"""

from __future__ import annotations

import gc
import os
import platform
import statistics
from typing import Dict, Iterable

#: How the harness treats the collector; recorded in every report.
GC_POLICY = "gc.collect() before each pass; collector left on during it"


def summarize(values: Iterable[float]) -> Dict[str, object]:
    """Median, quartiles, IQR and n of ``values`` (kept, sorted, in full)."""
    ordered = sorted(float(value) for value in values)
    if not ordered:
        raise ValueError("cannot summarize an empty sample")
    median = statistics.median(ordered)
    if len(ordered) > 1:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "n": len(ordered), "values": ordered}


def relative_spread(summary: Dict[str, object]) -> float:
    """IQR as a share of the median (0 for a zero median)."""
    median = float(summary["median"])
    return float(summary["iqr"]) / abs(median) if median else 0.0


def environment() -> Dict[str, object]:
    """CPU count, interpreter and GC policy of the measuring process."""
    return {"nproc": os.cpu_count(),
            "python": f"{platform.python_implementation()} "
                      f"{platform.python_version()}",
            "gc": {"policy": GC_POLICY, "enabled": gc.isenabled(),
                   "thresholds": list(gc.get_threshold())}}
