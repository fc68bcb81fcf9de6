"""Pure helpers behind the benchmark's numbers (no I/O, no server).

* :func:`tail_percentile` / :func:`latency_summary` — a timing is
  reported as its median plus the highest percentile that still has at
  least ten samples beyond it.  Failed requests count as infinitely
  slow, so they miss every latency limit.
* :func:`open_loop_latency` — open-loop timing: a request is timed from
  the moment it was *due*, not from when the generator got round to
  sending it.
* :func:`step_passes` / :func:`max_passing_rate` — the rate-step logic
  behind ``search_max_rps``.
* :func:`self_times` — a span's duration minus the part of it that its
  child spans cover.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

#: Percentiles considered for the tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """Highest percentile of :data:`TAIL_PERCENTILES` with at least
    :data:`MIN_BEYOND` of ``n`` samples beyond it; ``None`` when even
    the median is not supported."""
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            return p
    return None


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``values`` (need not be sorted)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_summary(latencies_s: Sequence[float]) -> dict[str, float | int | None]:
    """Median and supported tail of a latency sample, in milliseconds.

    ``math.inf`` entries (failed requests) stay in the sample, so they
    push the tail up instead of silently vanishing.
    """
    n = len(latencies_s)
    p_tail = tail_percentile(n)
    if n == 0:
        return {"n": 0, "p50_ms": None, "tail_pct": None, "tail_ms": None}
    return {
        "n": n,
        "p50_ms": percentile(latencies_s, 50.0) * 1000.0,
        "tail_pct": p_tail,
        "tail_ms": None if p_tail is None else percentile(latencies_s, p_tail) * 1000.0,
    }


def open_loop_latency(due: float, end: float, ok: bool) -> float:
    """Latency of one open-loop request: completion minus due time
    (``math.inf`` for a failed request)."""
    return end - due if ok else math.inf


def step_passes(
    latencies_s: Sequence[float],
    send_delays_s: Sequence[float],
    limit_s: float,
) -> bool:
    """Does one rate step meet its latency limit without a growing
    backlog?

    ``latencies_s`` are open-loop latencies (``inf`` = failed), in
    arrival order; ``send_delays_s`` are, per request, how long after
    its due time it was sent.  The step passes when its supported tail
    percentile is within ``limit_s`` and the median send delay of the
    last quarter of arrivals exceeds that of the first quarter by no
    more than a quarter of the limit — a queue that keeps growing fails
    even while its tail is still short.
    """
    p = tail_percentile(len(latencies_s))
    if p is None or percentile(latencies_s, p) > limit_s:
        return False
    quarter = max(1, len(send_delays_s) // 4)
    first = percentile(send_delays_s[:quarter], 50.0)
    last = percentile(send_delays_s[-quarter:], 50.0)
    return last - first <= limit_s / 4.0


def max_passing_rate(steps: Iterable[tuple[float, bool]]) -> float:
    """Highest step rate that passed (0.0 when none did)."""
    return max((rate for rate, ok in steps if ok), default=0.0)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
#: A recorded span: ``(span_id, parent_id, request_id, name, start, end)``.
#: ``parent_id`` is 0 for a root span.
Span = tuple[int, int, int, str, float, float]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time per span id: duration minus the union of its direct
    children's intervals (clipped to the span), so overlapping siblings
    are not subtracted twice."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = {}
    for _sid, parent, _rid, _name, start, end in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - _covered(children.get(sid, []), start, end)
        for sid, _parent, _rid, _name, start, end in spans
    }
