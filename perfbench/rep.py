"""One repetition of one workload, in a fresh process.

``run.py`` starts this script once per repetition and reads the JSON
object it prints as its last line.  A repetition builds the machine,
drives the workload, checks every output, and reports host times,
simulated statistics and counter-derived layer figures.

Modes:

* ``plain`` -- no instrumentation; the timed runs use only these;
* ``spans`` -- records a span around every call into the program
  (setup stages, each ``Simulation`` verb the drive makes, the
  warm-start capture) and reads the per-layer counters;
* ``profile`` -- runs setup and drive under cProfile and folds the
  profile into layers (``layers.py``).

Usage: ``python3 perfbench/rep.py --workload W --seed N --mode M
--t0 T [--sharded] [--tiny]``, where ``T`` is the parent's
``time.monotonic()`` just before it started this process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

T_ENTRY = time.monotonic()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import cProfile  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402

import workloads  # noqa: E402
from layers import Fold  # noqa: E402

#: Simulation verbs the benchmark counts and times during a drive
VERBS = ("run", "step", "advance_idle", "spawn", "spawn_request",
         "retire_finished", "record_sample", "emit", "snapshot",
         "counters_per_node", "migrate", "capture_state", "sync_back")

MAX_CYCLES = 50_000_000


class Spans:
    """Spans kept in memory: name, start, end (microseconds since the
    process started) and the span that caused it."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.records: list[dict] = []
        self._stack: list[int] = []
        #: verb -> host seconds of each call made while counting
        self.calls: dict[str, list[float]] = {}
        self.counting = False

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.records)
        record = {"id": index,
                  "parent": self._stack[-1] if self._stack else None,
                  "name": name, "start_us": _now_us(), "end_us": None}
        self.records.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            record["end_us"] = _now_us()

    def wrap(self, obj, names, prefix: str) -> None:
        """Route each named method of ``obj`` through a span."""
        if not self.enabled:
            return
        for name in names:
            method = getattr(obj, name, None)
            if callable(method):
                setattr(obj, name, self._wrapped(prefix + name, method))

    def _wrapped(self, name: str, method):
        def call(*args, **kwargs):
            t0 = time.perf_counter()
            with self.span(name):
                result = method(*args, **kwargs)
            if self.counting:
                self.calls.setdefault(name, []).append(
                    time.perf_counter() - t0)
            return result
        return call


def _now_us() -> float:
    return (time.monotonic() - T_ENTRY) * 1e6


def _vm_hwm_kb(pid: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children() -> list[str]:
    pids = []
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children") as f:
                pids.extend(f.read().split())
        except OSError:
            pass
    return pids


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children
    (the sharded engine's workers), in MiB.  Pages a forked worker
    still shares with its parent count in both."""
    kb = _vm_hwm_kb("self") + sum(_vm_hwm_kb(p) for p in _children())
    return kb / 1024.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile(sorted_values: list, fraction: float):
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0
    rank = max(1, -(-len(sorted_values) * fraction // 1))
    return sorted_values[int(rank) - 1]


def counter_delta(after: dict, before: dict) -> dict:
    """Counters accumulated between two snapshots (maxima kept from
    ``after``, which bound the window)."""
    return {key: (value if key.endswith(".max")
                  else value - before.get(key, 0))
            for key, value in after.items()
            if isinstance(value, (int, float))}


def counter_layers(d: dict) -> dict:
    """Per-layer figures read from a counter delta."""
    from repro.obs.histogram import percentile_from_snapshot

    clusters = sum(1 for key in d if key.startswith("cluster")
                   and key.endswith(".issued"))
    issued = sum(v for k, v in d.items()
                 if k.startswith("cluster") and k.endswith(".issued"))
    return {
        "chip.fetch_hit_rate": ratio(d.get("fetch.hits", 0),
                                     d.get("fetch.hits", 0)
                                     + d.get("fetch.misses", 0)),
        "chip.faults": d.get("chip.faults", 0),
        "cluster.occupancy": ratio(issued,
                                   clusters * d.get("chip.cycles", 0)),
        "cluster.switch_stalls": sum(
            v for k, v in d.items()
            if k.startswith("cluster") and k.endswith(".switch_stalls")),
        "core.check_memo_hit_rate": ratio(
            d.get("mem.check_memo_hits", 0),
            d.get("mem.check_memo_hits", 0)
            + d.get("mem.check_memo_misses", 0)),
        "mem.cache_hit_rate": ratio(d.get("cache.hits", 0),
                                    d.get("cache.hits", 0)
                                    + d.get("cache.misses", 0)),
        "mem.tlb_hit_rate": ratio(d.get("tlb.hits", 0),
                                  d.get("tlb.hits", 0)
                                  + d.get("tlb.misses", 0)),
        "mem.xlate_memo_hit_rate": ratio(
            d.get("cache.xlate_memo_hits", 0),
            d.get("cache.xlate_memo_hits", 0)
            + d.get("cache.xlate_memo_misses", 0)),
        "network.remote_accesses": d.get("router.remote_reads", 0)
        + d.get("router.remote_writes", 0),
        "network.remote_latency_p99_cycles": percentile_from_snapshot(
            d, "hist.remote_latency", 0.99),
    }


def words_in_use(sim) -> int:
    return sum(chip.memory.words_in_use() for chip in sim.chips)


# -- kernels ---------------------------------------------------------------

def kernels_rep(cfg, seed: int, spans: Spans, out: dict) -> None:
    from repro.experiments.e5_multithreading import WORKER
    from repro.machine.chip import RunReason
    from repro.sim.api import Simulation

    sources = {"alu": workloads.ALU, "worker": WORKER,
               "stream": workloads.STREAM}
    stages = out["stages"]
    t = time.perf_counter()
    with spans.span("setup.build"):
        sim = Simulation(memory_bytes=workloads.MEMORY_BYTES)
        worker_data = sim.allocate(4096, eager=True)
        stream_data = sim.allocate(4096, eager=True)
    stages["build_s"] = time.perf_counter() - t
    t = time.perf_counter()
    with spans.span("setup.schedule"):
        jobs = workloads.kernel_jobs(cfg, seed)
    stages["schedule_s"] = time.perf_counter() - t
    t = time.perf_counter()
    with spans.span("setup.install"):
        entries = {}
        for job in jobs:
            key = (job.kind, job.iterations)
            if key not in entries:
                entries[key] = sim.load(
                    sources[job.kind].format(iterations=job.iterations))
    stages["install_s"] = time.perf_counter() - t
    regs_of = {"alu": lambda j: {3: j.init},
               "worker": lambda j: {1: worker_data.word, 4: j.init},
               "stream": lambda j: {1: stream_data.word, 6: j.init}}
    before = sim.snapshot()
    spans.wrap(sim, VERBS, "sim.")
    spans.counting = True

    out["setup_s"] = time.monotonic() - out["t0"]
    threads, results = [], []
    t = time.perf_counter()
    with spans.span("drive"):
        for job in jobs:
            thread = sim.spawn(entries[(job.kind, job.iterations)],
                               regs=regs_of[job.kind](job), stack_bytes=0)
            results.append(sim.run(MAX_CYCLES))
            sim.retire_finished([(0, thread.tid)])
            threads.append(thread)
    out["drive_s"] = time.perf_counter() - t
    spans.counting = False
    out["peak_rss_mb"] = peak_rss_mb()

    failed = 0
    stream_sums = [0, 0]
    for job, thread, result in zip(jobs, threads, results):
        expected = workloads.expected_registers(job, stream_sums)
        words = {r: thread.regs.read(r) for r in expected}
        if result.reason != RunReason.HALTED or any(
                words[r].tag or words[r].value != v
                for r, v in expected.items()):
            failed += 1
            if len(out["problems"]) < 5:
                out["problems"].append(
                    f"{job}: reason {result.reason}, registers "
                    f"{ {r: w.value for r, w in words.items()} } != "
                    f"{expected}")
    latencies = sorted(r.cycles for r in results)
    cycles = sum(latencies)
    bundles = sum(r.issued_bundles for r in results)
    out["attempted"] = len(jobs)
    out["failed"] = failed
    out["sim"] = {
        "requests": len(jobs), "completed": len(jobs) - failed,
        "cycles": cycles, "bundles": bundles,
        "latency_p50": percentile(latencies, 0.50),
        "latency_p99": percentile(latencies, 0.99),
        "latency_count": len(latencies),
    }
    if spans.enabled:
        d = counter_delta(sim.snapshot(), before)
        out["layer"] = counter_layers(d)
        out["layer"]["chip.superblock_coverage"] = ratio(
            sum(c.superblock_bundles for c in sim.chips), bundles)
        out["layer"]["mem.words_in_use"] = words_in_use(sim)


# -- the service -----------------------------------------------------------

def service_rep(cfg, seed: int, spans: Spans, out: dict) -> None:
    from repro.machine.network import MeshShape
    from repro.service import ServiceLoadDriver, install_tenants, open_loop
    from repro.sim.api import Simulation

    stages = out["stages"]
    t = time.perf_counter()
    with spans.span("setup.build"):
        if cfg.side:
            sim = Simulation.mesh(MeshShape(cfg.side, cfg.side, 1),
                                  page_bytes=workloads.PAGE_BYTES,
                                  memory_bytes=workloads.MEMORY_BYTES,
                                  workers=cfg.workers)
        else:
            sim = Simulation(page_bytes=workloads.PAGE_BYTES,
                             memory_bytes=workloads.MEMORY_BYTES)
    stages["build_s"] = time.perf_counter() - t
    try:
        t = time.perf_counter()
        with spans.span("setup.install"):
            roster = install_tenants(sim, cfg.tenants)
            driver = ServiceLoadDriver(sim, roster, ingress=cfg.ingress)
        stages["install_s"] = time.perf_counter() - t
        t = time.perf_counter()
        with spans.span("setup.schedule"):
            schedule = open_loop(requests=cfg.requests, tenants=cfg.tenants,
                                 mean_gap=cfg.mean_gap, seed=seed)
        stages["schedule_s"] = time.perf_counter() - t
        stages["start_s"] = 0.0
        if sim.engine is not None:
            out["words_at_capture"] = words_in_use(sim)
            import repro.persist.image as image
            spans.wrap(image, ("capture_multicomputer",), "persist.")
            t = time.perf_counter()
            with spans.span("setup.start"):
                sim.engine.start()
            stages["start_s"] = time.perf_counter() - t
        before = sim.snapshot()
        spans.wrap(sim, VERBS, "sim.")
        spans.counting = True

        out["setup_s"] = time.monotonic() - out["t0"]
        t = time.perf_counter()
        with spans.span("drive"):
            report = driver.run(schedule, max_cycles=MAX_CYCLES)
        out["drive_s"] = time.perf_counter() - t
        spans.counting = False
        out["peak_rss_mb"] = peak_rss_mb()

        d = counter_delta(sim.snapshot(), before)
        checks = {
            "undrained": report.requests - report.completed - report.errors,
            "faulted": report.errors,
            "wrong GETs": report.wrong_results,
            "enter round trips != completed": abs(
                d.get("hist.enter_roundtrip.count", 0) - report.completed),
        }
        out["problems"] += [f"{what}: {n}" for what, n in checks.items()
                            if n]
        out["attempted"] = report.requests
        out["failed"] = (report.requests - report.completed
                         + report.wrong_results)
        out["sim"] = {
            "requests": report.requests, "completed": report.completed,
            "cycles": report.cycles,
            "bundles": d.get("chip.issued_bundles", 0),
            "latency_p50": report.latency["p50"],
            "latency_p99": report.latency["p99"],
            "latency_count": report.latency["count"],
        }
        if spans.enabled:
            layer = counter_layers(d)
            if sim.engine is None:
                layer["chip.superblock_coverage"] = ratio(
                    sum(c.superblock_bundles for c in sim.chips),
                    out["sim"]["bundles"])
            else:
                # the chips run in the workers: their turbo totals are
                # not visible to the coordinator
                layer["chip.superblock_coverage"] = 0.0
                sim.sync_back()
            layer["mem.words_in_use"] = words_in_use(sim)
            out["layer"] = layer
    finally:
        sim.close()


# -- entry point -----------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--sharded", action="store_true",
                        help="run the workload's sharded-engine twin")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "spans", "profile"),
                        default="plain")
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    cfg = workloads.config(args.workload, args.sharded, args.tiny)
    spans = Spans(enabled=args.mode == "spans")
    out = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
           "sharded": args.sharded,
           "t0": T_ENTRY if args.t0 is None else args.t0,
           "stages": {}, "problems": []}
    profiler = cProfile.Profile() if args.mode == "profile" else None
    if profiler is not None:
        # forked engine workers must not inherit the profiler
        os.register_at_fork(after_in_child=profiler.disable)
    t = time.perf_counter()
    import repro  # noqa: F401  (import cost is part of set-up)
    out["stages"]["import_s"] = time.perf_counter() - t
    rep = kernels_rep if args.workload == "kernels" else service_rep
    with spans.span("process"), (profiler or nullcontext()):
        rep(cfg, args.seed, spans, out)
    if spans.enabled:
        runs = sorted(spans.calls.get("sim.run", []))
        calls = sum(len(v) for v in spans.calls.values())
        out["layer"].update({
            "sim.run_calls": len(runs),
            "sim.run_us_p50": percentile(runs, 0.50) * 1e6,
            "sim.run_us_p99": percentile(runs, 0.99) * 1e6,
            "service.sim_calls_per_request": ratio(
                calls, out["sim"]["completed"]),
            "persist.capture_s": sum(
                r["end_us"] - r["start_us"] for r in spans.records
                if r["name"] == "persist.capture_multicomputer") / 1e6,
        })
        out["spans"] = spans.records
    if profiler is not None:
        out["fold"] = fold_report(Fold(profiler))
    del out["t0"]
    print(json.dumps(out))
    return 0


def fold_report(fold: Fold) -> dict:
    conn = "multiprocessing" + os.sep + "connection.py"
    return {
        "layers": fold.layers,
        "total_s": fold.total,
        "messages": fold.calls(conn, "send") + fold.calls(conn, "recv"),
        "windows": fold.calls(os.sep.join(("repro", "machine",
                                           "parallel.py")), "_barrier"),
        "wait_s": fold.builtin_self(lambda name: name == "<built-in method "
                                    "posix.read>"),
        "pickle_s": fold.builtin_self(lambda name: "_pickle." in name),
        "repro_builtins_in_stdlib": fold.repro_builtins_in_stdlib(),
    }


if __name__ == "__main__":
    sys.exit(main())
