"""Summaries of timing samples: median plus the guarded tail percentile."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

# A tail percentile is reported only where at least this many samples
# lie beyond it.
TAIL_BEYOND = 10


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile, ``q`` in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> float:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond
    it, in steps of 0.1 and capped at 99.9; 0 when there is none."""
    if count <= TAIL_BEYOND:
        return 0.0
    return min(99.9, math.floor(1000.0 * (1.0 - TAIL_BEYOND / count)) / 10.0)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """``n``, ``p50`` and, where it exists, ``tail_pct`` and ``tail``."""
    summary: Dict[str, float] = {"n": len(values)}
    if not values:
        return summary
    summary["p50"] = statistics.median(values)
    pct = tail_percentile(len(values))
    if pct >= 50.0:
        summary["tail_pct"] = pct
        summary["tail"] = quantile(values, pct / 100.0)
    return summary


def fmt(summary: Dict[str, float], unit: str, scale: float = 1.0) -> str:
    """``p50 1.23 ms, p98.4 4.56 ms (n=640)`` for a human-readable line."""
    if summary["n"] == 0:
        return "no samples"
    text = f"p50 {summary['p50'] * scale:.4g} {unit}"
    if "tail" in summary:
        text += f", p{summary['tail_pct']:g} {summary['tail'] * scale:.4g} {unit}"
    return text + f" (n={summary['n']})"
