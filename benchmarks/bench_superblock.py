"""The superblock turbo benchmark: bulk straight-line dispatch must pay
for itself without touching the timing model.

Three single-thread workloads run with ``superblock`` on and off.  Every
bundle issues through its compiled node either way; off dispatches the
nodes one cycle at a time through ``MAPChip.step``, so the ratio prices
bulk dispatch and bulk accounting alone:

* ``alu`` — a pure integer loop (every slot compiled: the ceiling);
* ``worker`` — the E5 multithreading worker at one thread (two loads
  per iteration through the compiled memory closures; the acceptance
  workload);
* ``stream`` — a load/store/ALU mix like the data-stream benchmark.

Each pair must agree exactly on the simulated cycle count *and* on the
full performance-counter snapshot — superblocks batch the accounting
but never change it (the same contract the fuzzer's superblock axis
and ``tests/machine/test_superblock.py`` police).  The recorded metric
is the wall-clock speedup.  One on/off pair of ~50 ms runs is at the
mercy of host noise, so every pair runs in :data:`ROUNDS` interleaved
rounds in the same process and the speedup is the median of the
per-round ratios (each round's off wall over the same round's on
wall); reported cycles/s use per-side median walls.
``tools/run_benchmarks.py`` records the numbers.
"""

from __future__ import annotations

import statistics
import time

from repro.experiments.e5_multithreading import WORKER
from repro.machine.chip import RunReason
from repro.sim.api import Simulation

from benchmarks.conftest import emit

ITERATIONS = 4000
MAX_CYCLES = 5_000_000
ROUNDS = 5

ALU = """
    movi r2, {iterations}
loop:
    addi r3, r3, 7
    xor  r4, r3, r2
    add  r5, r4, r3
    subi r2, r2, 1
    bne  r2, loop
    halt
"""

STREAM = """
    movi r2, {iterations}
loop:
    ld   r3, r1, 0
    addi r3, r3, 1
    st   r3, r1, 8
    ld   r4, r1, 16
    st   r4, r1, 24
    subi r2, r2, 1
    bne  r2, loop
    halt
"""

WORKLOADS = ("alu", "worker", "stream")
_SOURCES = {"alu": ALU, "worker": WORKER, "stream": STREAM}


def _run(workload: str, superblock: bool,
         iterations: int) -> tuple[int, float, dict]:
    sim = Simulation(memory_bytes=4 * 1024 * 1024, superblock=superblock)
    source = _SOURCES[workload].format(iterations=iterations)
    regs = {}
    if workload != "alu":
        regs[1] = sim.allocate(4096, eager=True).word
    sim.spawn(source, regs=regs, stack_bytes=0)
    t0 = time.perf_counter()
    result = sim.run(MAX_CYCLES)
    wall = time.perf_counter() - t0
    assert result.reason == RunReason.HALTED, result.reason
    return result.cycles, wall, sim.snapshot()


def measure(iterations: int = ITERATIONS) -> dict:
    """Time every workload on and off in :data:`ROUNDS` interleaved
    rounds; cycles and counters must be bit-identical across each
    pair."""
    out: dict = {"workload": f"3 single-thread loops x {iterations} "
                             f"iterations, superblock on vs off"}
    cycles_equal = counters_equal = True
    walls = {(w, on): [] for w in WORKLOADS for on in (True, False)}
    for _ in range(ROUNDS):
        for workload in WORKLOADS:
            on_cycles, on_wall, on_counters = _run(workload, True,
                                                   iterations)
            off_cycles, off_wall, off_counters = _run(workload, False,
                                                      iterations)
            cycles_equal &= on_cycles == off_cycles
            counters_equal &= on_counters == off_counters
            out[f"{workload}_cycles"] = on_cycles
            walls[workload, True].append(on_wall)
            walls[workload, False].append(off_wall)
    for workload in WORKLOADS:
        cycles = out[f"{workload}_cycles"]
        on, off = walls[workload, True], walls[workload, False]
        out[f"{workload}_on_cycles_per_s"] = cycles / statistics.median(on)
        out[f"{workload}_off_cycles_per_s"] = cycles / statistics.median(off)
        out[f"{workload}_speedup"] = statistics.median(
            off_wall / on_wall for on_wall, off_wall in zip(on, off))
    out["cycles_equal"] = cycles_equal
    out["counters_equal"] = counters_equal
    return out


def test_superblock_speedup(benchmark):
    r = benchmark.pedantic(measure, rounds=1, iterations=1)
    emit("superblock turbo — bulk dispatch vs per-cycle stepping", "\n".join([
        f"{'workload':<9} {'cycles':>9} {'on cyc/s':>12} {'off cyc/s':>12} "
        f"{'speedup':>8}",
        "-" * 55,
        *(f"{w:<9} {r[f'{w}_cycles']:>9} "
          f"{r[f'{w}_on_cycles_per_s']:>12,.0f} "
          f"{r[f'{w}_off_cycles_per_s']:>12,.0f} "
          f"{r[f'{w}_speedup']:>7.2f}x" for w in WORKLOADS),
        "",
        f"cycle counts {'identical' if r['cycles_equal'] else 'DIFFER'}, "
        f"counter snapshots "
        f"{'identical' if r['counters_equal'] else 'DIFFER'}",
    ]))
    assert r["cycles_equal"], "superblocks changed the timing model"
    assert r["counters_equal"], "superblocks changed the counters"
    # BENCH_pr14.json records the medians against per-cycle node issue
    # (worker ~2x, alu ~3x); the in-suite floor leaves headroom for
    # slow shared CI machines
    assert r["worker_speedup"] > 1.5, \
        f"superblock speedup collapsed: {r['worker_speedup']:.2f}x"
