"""Windowed time-series telemetry: the counters, on a time axis.

A counter snapshot is a single integral — it says nothing about *when*
the misses happened or whether throughput sagged mid-run.
:class:`TimeseriesSampler` turns the per-node
:class:`~repro.machine.counters.PerfCounters` files into per-window
deltas: the driver polls it at its drain points, and whenever the
clock has crossed the next window boundary the sampler snapshots every
node's counters, diffs them against the previous boundary, and records
one row (throughput, hit rates, in-flight depth, per-window latency
percentiles from the windowed ``bucket<K>``/``sum<K>`` histogram
deltas).

Unlike ``Simulation.trace()`` this works on the **sharded engine**:
counters are pulled per node over RPC (the worker ``counters`` verb)
and merged with
:func:`~repro.machine.counters.merge_snapshots` — sampling happens at
the driver's deterministic drain points, which land on the same cycles
on both engines, so the emitted series is byte-identical lockstep vs
``workers=N``.  Windows close at the first poll at-or-past the
boundary, so a row can span more than ``window`` cycles (the ``start``
/``end`` columns make that exact); sampling reads counters only — it
never changes machine state, and the trace-overhead benchmark holds it
to bit-identical cycles.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.machine.counters import merge_snapshots
from repro.obs.histogram import histogram_window, percentile_from_snapshot

#: the CSV column order (also the row-dict key order)
COLUMNS = ("window", "start", "end", "cycles", "completed",
           "throughput_rpk", "inflight", "cache_hit_rate",
           "tlb_hit_rate", "remote_reads", "p50", "p99")

#: the histogram each window's latency percentiles come from
_LATENCY = "hist.request_latency"


def _rate(hits: int, misses: int) -> float:
    total = hits + misses
    return round(hits / total, 6) if total else 0.0


class TimeseriesSampler:
    """Per-window counter deltas for one run (build via
    ``Simulation.timeseries(window)``, poll from the driver loop, call
    :meth:`finish` when the run ends)."""

    def __init__(self, sim, window: int):
        if window <= 0:
            raise ValueError("window must be positive")
        self.sim = sim
        self.window = int(window)
        self.rows: list[dict] = []
        self._last_cycle = sim.now
        self._last = merge_snapshots(sim.counters_per_node())
        self._boundary = self._last_cycle + self.window
        self._finished = False

    # -- sampling --------------------------------------------------------

    def poll(self, now: int | None = None, *, inflight: int = 0) -> None:
        """Close a window if ``now`` has reached the next boundary.
        Call from deterministic points (the driver's reap loop) —
        sampling cycles must match across engines for the series to."""
        if self._finished:
            return
        if now is None:
            now = self.sim.now
        if now >= self._boundary and now > self._last_cycle:
            self._close(now, inflight)

    def finish(self, *, inflight: int = 0) -> list[dict]:
        """Close the final partial window (if the clock moved since the
        last boundary) and freeze the series.  Idempotent."""
        if not self._finished:
            now = self.sim.now
            if now > self._last_cycle:
                self._close(now, inflight)
            self._finished = True
        return self.rows

    def _close(self, now: int, inflight: int) -> None:
        snap = merge_snapshots(self.sim.counters_per_node())
        last = self._last

        def delta(key: str) -> int:
            return int(snap.get(key, 0)) - int(last.get(key, 0))

        window_hist = histogram_window(snap, last, _LATENCY)
        cycles = now - self._last_cycle
        completed = delta(f"{_LATENCY}.count")
        row = {
            "window": len(self.rows),
            "start": self._last_cycle,
            "end": now,
            "cycles": cycles,
            "completed": completed,
            "throughput_rpk": round(1000.0 * completed / cycles, 6)
            if cycles else 0.0,
            "inflight": inflight,
            "cache_hit_rate": _rate(delta("cache.hits"),
                                    delta("cache.misses")),
            "tlb_hit_rate": _rate(delta("tlb.hits"), delta("tlb.misses")),
            "remote_reads": delta("router.remote_reads"),
            "p50": percentile_from_snapshot(window_hist, _LATENCY, 0.50),
            "p99": percentile_from_snapshot(window_hist, _LATENCY, 0.99),
        }
        self.rows.append(row)
        self._last = snap
        self._last_cycle = now
        # boundaries stay on the original grid; a long idle gap closes
        # as one wide row and the next boundary lands after `now`
        while self._boundary <= now:
            self._boundary += self.window

    # -- serialization ---------------------------------------------------

    def as_dict(self) -> dict:
        return {"window_cycles": self.window, "windows": list(self.rows)}

    def write_json(self, path) -> "Path":
        path = Path(path)
        path.write_text(json.dumps(self.as_dict(), indent=2,
                                   sort_keys=True) + "\n",
                        encoding="utf-8")
        return path

    def to_csv(self) -> str:
        lines = [",".join(COLUMNS)]
        for row in self.rows:
            lines.append(",".join(str(row[c]) for c in COLUMNS))
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> "Path":
        path = Path(path)
        path.write_text(self.to_csv(), encoding="utf-8")
        return path
