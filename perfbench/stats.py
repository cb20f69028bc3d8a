"""Exact percentiles from raw samples.

The server's ``LatencyHistogram`` buckets are ~21% wide, wider than the
bounds this benchmark gates on, so every end-to-end percentile here is
computed from the raw samples.  A tail is reported at the highest
percentile (capped at p99) that still has at least ``MIN_BEYOND``
samples above it, together with the sample count.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10
#: Highest tail percentile ever reported.
TAIL_CAP = 0.99


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q <= 1``) of ``samples``."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must be in (0, 1], got {q}")
    ordered = sorted(samples)
    # The epsilon keeps q = k / n from rounding up to rank k + 1.
    rank = math.ceil(q * len(ordered) - 1e-9)
    return float(ordered[max(rank, 1) - 1])


def tail_quantile(count: int) -> float:
    """Highest quantile <= ``TAIL_CAP`` with ``MIN_BEYOND`` samples above it.

    With ``count`` samples the nearest-rank quantile ``q`` leaves
    ``count - ceil(q * count)`` samples beyond it; ``q = 1 - MIN_BEYOND /
    count`` leaves exactly ``MIN_BEYOND``.  Below ``2 * MIN_BEYOND``
    samples that quantile would fall under the median, which is then
    reported as the tail.
    """
    return min(TAIL_CAP, max(0.5, 1.0 - MIN_BEYOND / max(count, 1)))


def summarize(samples: Sequence[float]) -> dict:
    """``{"n", "p50", "tail_q", "tail"}`` of ``samples`` (exact)."""
    n = len(samples)
    if n == 0:
        return {"n": 0, "p50": float("nan"), "tail_q": float("nan"),
                "tail": float("nan")}
    q = tail_quantile(n)
    return {"n": n, "p50": percentile(samples, 0.5), "tail_q": q,
            "tail": percentile(samples, q)}
