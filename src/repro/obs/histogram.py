"""Log2-bucket latency histograms for the perf-counter file.

A flat counter can say *how many* remote accesses happened; the
paper-style claims ("a protection-domain crossing costs a handful of
cycles, not a kernel trap") need *distributions*.  :class:`Histogram`
records values into power-of-two buckets — bucket ``k`` holds values
whose ``bit_length()`` is ``k``, i.e. ``[2**(k-1), 2**k)``, with bucket
0 holding exactly 0 — which makes ``add`` a few integer operations on
the simulator's per-load path, and p50/p95 answerable at snapshot time
without keeping samples.

Percentiles are *sum-interpolated*: each bucket tracks the sum of its
samples alongside the count, and a percentile is linearly interpolated
inside its covering bucket over the tightest uniform range consistent
with that bucket's mean.  A single-sample bucket reports the sample
exactly; a full bucket errs by at most half the bucket width — versus
the naive bucket upper bound, which overstates by up to 2x near bucket
edges.  Memory stays constant (two ints per bucket).

Histograms register with :class:`~repro.machine.counters.PerfCounters`
as pull sources (``hist.<name>.*``), so every counter snapshot carries
the distributions and :func:`~repro.machine.counters.merge_snapshots`
sums them across nodes bucket by bucket (``sum<K>`` keys sum just like
``bucket<K>`` counts, so interpolation survives the merge).
"""

from __future__ import annotations

#: bucket count: bucket 0 holds zeros, buckets 1..63 hold bit_length
#: 1..63, bucket 64 is the overflow bucket for anything wider.
_OVERFLOW = 64
BUCKETS = _OVERFLOW + 1


def _interpolate(index: int, count: int, total: int, rank: float,
                 maximum: int) -> float:
    """The estimated value at 1-based ``rank`` within bucket ``index``
    holding ``count`` samples that sum to ``total``.

    The samples are modelled as uniformly spread over the tightest
    subrange ``[a, b]`` of the bucket whose midpoint matches the bucket
    mean — so a constant-valued bucket stays centred on its value and a
    single-sample bucket is reported exactly.  When the recorded sums
    are the legacy upper-bound reconstruction (``count * hi``), the
    range degenerates to the upper bound and the old behaviour falls
    out unchanged.
    """
    if index == 0:
        return 0.0
    if count == 1:
        return float(total)
    lo = 1 << (index - 1)
    if index == _OVERFLOW:
        hi = maximum if maximum > lo else lo
    else:
        hi = (1 << index) - 1
    mean = total / count
    a = max(lo, 2.0 * mean - hi)
    b = min(hi, 2.0 * mean - lo)
    if b < a:  # inconsistent sums (bad merge input): fall back to mean
        a = b = mean
    rank = min(max(rank, 0.5), float(count))
    return a + (b - a) * (rank - 0.5) / count


class Histogram:
    """Fixed-size log2 histogram of non-negative integer values."""

    __slots__ = ("name", "count", "total", "max", "_buckets", "_sums")

    def __init__(self, name: str):
        self.name = name
        self.reset()

    def reset(self) -> None:
        self.count = 0
        self.total = 0
        self.max = 0
        self._buckets = [0] * BUCKETS
        self._sums = [0] * BUCKETS

    def add(self, value: int) -> None:
        """Record one value.  Negative values clamp to 0 (they cannot
        occur for latencies; the clamp keeps a bad caller observable in
        bucket 0 instead of raising on a hot path)."""
        if value < 0:
            value = 0
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        index = value.bit_length()
        if index >= _OVERFLOW:
            index = _OVERFLOW
        self._buckets[index] += 1
        self._sums[index] += value

    # -- queries --------------------------------------------------------

    def percentile(self, fraction: float) -> int:
        """The sum-interpolated value covering ``fraction`` of the
        recorded values (clamped by the true max); 0 when empty."""
        if self.count == 0:
            return 0
        need = fraction * self.count
        seen = 0
        for index, bucket in enumerate(self._buckets):
            if not bucket:
                continue
            if seen + bucket >= need:
                value = _interpolate(index, bucket, self._sums[index],
                                     need - seen, self.max)
                return min(round(value), self.max)
            seen += bucket
        return self.max

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def buckets(self) -> list[tuple[int, int]]:
        """Non-empty buckets as ``(upper_bound, count)`` pairs (the
        overflow bucket reports the true max as its bound)."""
        out = []
        for index, bucket in enumerate(self._buckets):
            if not bucket:
                continue
            if index == 0:
                upper = 0
            elif index == _OVERFLOW:
                upper = self.max
            else:
                upper = (1 << index) - 1
            out.append((upper, bucket))
        return out

    def as_counters(self) -> dict[str, int | float]:
        """This histogram's view for
        :class:`~repro.machine.counters.PerfCounters` — summary
        statistics plus the non-empty buckets (``bucket<K>`` = count of
        values with ``bit_length() == K``, ``sum<K>`` = their sum)."""
        out: dict[str, int | float] = {
            "count": self.count,
            "total": self.total,
            "mean": round(self.mean, 6),
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "p999": self.percentile(0.999),
            "max": self.max,
        }
        for index, bucket in enumerate(self._buckets):
            if bucket:
                out[f"bucket{index}"] = bucket
                out[f"sum{index}"] = self._sums[index]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Histogram({self.name!r}, count={self.count}, "
                f"p50={self.percentile(0.5)}, max={self.max})")


def histogram_window(end: dict, start: dict, prefix: str) -> dict:
    """The slice of an accumulating histogram between two counter
    snapshots: the ``bucket<K>``/``sum<K>``/``count``/``total`` keys
    under ``<prefix>.`` differenced, the rest (``max`` and the derived
    statistics) kept from ``end`` — ``max`` is an upper bound for the
    window, exact when the window saw the overall max."""
    out = {}
    for key, value in end.items():
        if not key.startswith(prefix + "."):
            continue
        stat = key[len(prefix) + 1:]
        if stat.startswith(("bucket", "sum")) or stat in ("count", "total"):
            out[key] = value - start.get(key, 0)
        else:
            out[key] = value
    return out


def percentile_from_snapshot(snapshot: dict, prefix: str,
                             fraction: float) -> int:
    """A percentile recomputed from the ``bucket<K>``/``sum<K>`` counts
    under ``<prefix>.`` in a counter snapshot.

    Percentiles in *merged* multicomputer snapshots are per-node sums
    and therefore meaningless; bucket counts and sums, by contrast, sum
    correctly across nodes — so a machine-wide percentile must come
    from the merged buckets, which is exactly what this computes (the
    service load driver's latency report uses it).  Interpolation
    matches :meth:`Histogram.percentile`; snapshots predating the
    ``sum<K>`` keys fall back to the bucket upper bound.  Clamped by
    the summed ``max`` (a per-node sum, so a loose bound; single-node
    snapshots reproduce the histogram's own percentile exactly)."""
    buckets: dict[int, int] = {}
    sums: dict[int, int] = {}
    bucket_prefix = f"{prefix}.bucket"
    sum_prefix = f"{prefix}.sum"
    for key, value in snapshot.items():
        if key.startswith(bucket_prefix):
            buckets[int(key[len(bucket_prefix):])] = value
        elif key.startswith(sum_prefix):
            sums[int(key[len(sum_prefix):])] = value
    count = sum(buckets.values())
    if not count:
        return 0
    maximum = int(snapshot.get(f"{prefix}.max", 0))
    need = fraction * count
    seen = 0
    for index in sorted(buckets):
        bucket = buckets[index]
        if not bucket:
            continue
        if seen + bucket >= need:
            if index == 0:
                return 0
            # legacy snapshots carry no sums: reconstruct the old
            # upper-bound behaviour (mean pinned to the bucket top)
            upper = maximum if index == _OVERFLOW else (1 << index) - 1
            total = sums.get(index, bucket * upper)
            value = _interpolate(index, bucket, total, need - seen,
                                 maximum)
            value = round(value)
            return min(value, maximum) if maximum else value
        seen += bucket
    return maximum
