"""The KV service on the sharded engine: open-loop traffic, verified
results and live migration must all behave exactly as under lockstep —
same reports, same counters, same latency distributions."""

from repro.machine.counters import architectural
from repro.service import ServiceLoadDriver, install_tenants, open_loop
from repro.sim.api import Simulation


def build(workers, nodes=4, tenants=24):
    sim = Simulation(nodes=nodes, memory_bytes=2 * 1024 * 1024,
                     page_bytes=512, arena_order=24, workers=workers)
    roster = install_tenants(sim, tenants)
    driver = ServiceLoadDriver(sim, roster)
    return sim, driver


class TestOpenLoopParity:
    def test_report_and_counters_match_lockstep(self):
        schedule = open_loop(requests=200, tenants=24, mean_gap=6.0, seed=0)
        serial_sim, serial = build(workers=1)
        report_a = serial.run(list(schedule))
        snap_a = serial_sim.snapshot()

        sharded_sim, sharded = build(workers=2)
        try:
            report_b = sharded.run(list(schedule))
            snap_b = sharded_sim.snapshot()
        finally:
            sharded_sim.close()

        assert report_b.completed == 200
        assert report_b.errors == 0 and report_b.wrong_results == 0
        assert report_b.as_dict() == report_a.as_dict()
        assert architectural(snap_b) == architectural(snap_a)

    def test_scatter_ingress_parity(self):
        # every request crosses the mesh to reach its tenant's gateway
        schedule = open_loop(requests=80, tenants=12, mean_gap=8.0, seed=7)
        reports = []
        for workers in (1, 2):
            sim = Simulation(nodes=4, memory_bytes=2 * 1024 * 1024,
                             page_bytes=512, arena_order=24,
                             workers=workers)
            roster = install_tenants(sim, 12)
            driver = ServiceLoadDriver(sim, roster, ingress="scatter")
            try:
                reports.append(driver.run(list(schedule)).as_dict())
            finally:
                sim.close()
        assert reports[0] == reports[1]
        assert reports[1]["errors"] == 0


class TestMigrationUnderShards:
    def test_hot_tenant_migrates_and_matches_lockstep(self):
        schedule = open_loop(requests=120, tenants=8, mean_gap=10.0, seed=2)
        reports = []
        for workers in (1, 2):
            sim, driver = build(workers=workers, tenants=8)
            try:
                report = driver.run(list(schedule), migrate_hot_after=40)
                reports.append(report.as_dict())
            finally:
                sim.close()
        assert reports[1]["completed"] == 120
        assert reports[1]["errors"] == 0
        assert reports[1]["migrations"], "the hot tenant never moved"
        # migration drains + reships worker state through the same
        # capture path on both engines, so even the migration cycle
        # and page counts must agree
        assert reports[1] == reports[0]
