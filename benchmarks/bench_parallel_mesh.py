"""Weak and strong scaling of the sharded mesh engine.

Drives the multi-tenant KV service on a 4x4 mesh under the lockstep
engine and under the sharded :class:`~repro.machine.parallel.WindowEngine`
with 2 and 4 OS worker processes, and reports:

* **strong scaling** — the same schedule at every worker count;
  ``strong_speedup_k = wall_1 / wall_k``;
* **weak scaling** — the schedule grows with the worker count
  (``k x`` requests on ``k`` workers); ``weak_efficiency_k =
  wall_1 / wall_k`` with perfect scaling at 1.0;
* **bit-equality** — the simulated cycle count, the completion counts
  and the full service report must be identical at every worker count
  (the sharded engine's contract).  ``cycles_equal`` failing is a
  correctness bug, never noise.

Wall-clock speedup is a property of the *host*: the window protocol
only overlaps node execution across cores, so ``cores`` rides along in
the result and speedups on a single-core host sit below 1x (the
coordinator still pays pickling + pipe traffic).  See docs/PERF.md §7
for measured figures and the >= 4-core requirement for the paper-style
1.8x at 4 workers.
"""

from __future__ import annotations

import os
import time

from repro.machine.network import MeshShape
from repro.service import ServiceLoadDriver, install_tenants, open_loop
from repro.sim.api import Simulation

from benchmarks.conftest import emit

REQUESTS = 400
TENANTS = 48
SIDE = 4
SEED = 0
MEAN_GAP = 8.0


def _drive(requests: int, tenants: int, side: int, workers: int,
           seed: int = SEED) -> dict:
    """One open-loop service run; returns simulated + wall metrics."""
    sim = Simulation.mesh(MeshShape(side, side, 1), page_bytes=512,
                          memory_bytes=4 * 1024 * 1024, workers=workers)
    try:
        roster = install_tenants(sim, tenants)
        driver = ServiceLoadDriver(sim, roster)
        schedule = open_loop(requests=requests, tenants=tenants,
                             mean_gap=MEAN_GAP, seed=seed)
        t0 = time.perf_counter()
        report = driver.run(schedule)
        wall = time.perf_counter() - t0
        return {"wall_s": wall, "cycles": report.cycles,
                "completed": report.completed, "errors": report.errors,
                "wrong_results": report.wrong_results,
                "report": report.as_dict()}
    finally:
        sim.close()


def measure(requests: int = REQUESTS, tenants: int = TENANTS,
            side: int = SIDE, workers_list: tuple = (1, 2, 4)) -> dict:
    """Strong + weak scaling sweep; every worker count must produce the
    identical simulated run."""
    strong = {w: _drive(requests, tenants, side, w) for w in workers_list}
    base = strong[workers_list[0]]
    out: dict = {
        "workload": f"{requests} requests over {tenants} tenants on a "
                    f"{side}x{side} mesh",
        "cores": os.cpu_count(),
        "cycles": base["cycles"],
        "completed": base["completed"],
        "clean": all(s["errors"] == 0 and s["wrong_results"] == 0
                     for s in strong.values()),
        "cycles_equal": all(s["cycles"] == base["cycles"]
                            for s in strong.values()),
        "reports_equal": all(s["report"] == base["report"]
                             for s in strong.values()),
        "wall_1": base["wall_s"],
    }
    for w in workers_list[1:]:
        out[f"wall_{w}"] = strong[w]["wall_s"]
        out[f"strong_speedup_{w}"] = base["wall_s"] / strong[w]["wall_s"]
    # weak scaling: k x the requests on k workers; the 1-worker strong
    # run is the weak baseline (same per-worker load)
    for w in workers_list[1:]:
        weak = _drive(requests * w, tenants, side, w)
        out[f"weak_wall_{w}"] = weak["wall_s"]
        out[f"weak_efficiency_{w}"] = base["wall_s"] / weak["wall_s"]
        out["clean"] = out["clean"] and weak["errors"] == 0 \
            and weak["wrong_results"] == 0 \
            and weak["completed"] == requests * w
    return out


def test_parallel_mesh_scaling(benchmark):
    r = benchmark.pedantic(
        lambda: measure(requests=120, tenants=24, side=2,
                        workers_list=(1, 2)),
        rounds=1, iterations=1)
    emit("parallel mesh — weak + strong scaling", "\n".join([
        r["workload"] + f"  ({r['cores']} host core(s))",
        f"wall 1w {r['wall_1']:.2f}s  2w {r['wall_2']:.2f}s  "
        f"strong speedup {r['strong_speedup_2']:.2f}x  "
        f"weak efficiency {r['weak_efficiency_2']:.2f}",
        f"simulated cycles {r['cycles']} — identical at every worker "
        f"count: {r['cycles_equal']}",
    ]))
    assert r["cycles_equal"], "worker count changed the simulated run"
    assert r["reports_equal"], "worker count changed the service report"
    assert r["clean"], "service errors or wrong results"
