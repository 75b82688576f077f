"""Integration tests: every experiment runs and reproduces the paper's
qualitative claims (shape-fidelity, per DESIGN.md §6)."""

import pytest

from repro.experiments import (
    e1_pointer_format,
    e2_lea_checks,
    e3_subsystem_call,
    e4_two_way,
    e5_multithreading,
    e6_tag_overhead,
    e7_fragmentation,
    e8_sharing,
    e9_context_switch,
    e10_segmentation,
    e11_captable,
    e12_sfi,
    e13_revocation_gc,
    e15_multinode,
)


class TestE1PointerFormat:
    def test_bit_budget_totals_64(self):
        assert sum(e1_pointer_format.bit_budget().values()) == 64

    def test_representative_pointers_roundtrip(self):
        rows = e1_pointer_format.format_table()
        assert len(rows) == len(e1_pointer_format.REPRESENTATIVE)
        for row in rows:
            assert row.segment_base % row.segment_size == 0

    def test_exhaustive_roundtrip(self):
        assert e1_pointer_format.exhaustive_roundtrip(512) == 512


class TestE2LeaChecks:
    def test_comparator_exact_at_every_length(self):
        for result in e2_lea_checks.sweep_all_lengths(256):
            assert result.exact
            assert result.accepted + result.faulted == result.attempts

    def test_array_walk_completes(self):
        assert e2_lea_checks.array_walk(1000) == 1000


class TestE3SubsystemCall:
    def test_enter_call_between_inline_and_trap(self):
        c = e3_subsystem_call.compare()
        assert c.inline < c.enter < c.trap

    def test_enter_overhead_is_a_handful_of_cycles(self):
        c = e3_subsystem_call.compare()
        assert c.enter_overhead <= 30  # "a few instructions", no kernel

    def test_speedup_over_trap(self):
        c = e3_subsystem_call.compare()
        assert c.speedup_vs_trap > 2.0


class TestE4TwoWay:
    def test_cost_grows_mildly_with_live_pointers(self):
        points = e4_two_way.sweep(6)
        assert points[-1].cycles > points[0].cycles
        marginal = e4_two_way.marginal_cost_per_pointer(points)
        assert 0 < marginal < 20  # one store + one load, no kernel


class TestE5Multithreading:
    @pytest.fixture(scope="class")
    def points(self):
        return e5_multithreading.sweep((1, 2, 4), iterations=100)

    def test_guarded_utilization_flat(self, points):
        util = e5_multithreading.utilization_by_config(points)["guarded"]
        assert util[4] >= util[1] - 0.02  # no interleaving penalty

    def test_conventional_collapses(self, points):
        util = e5_multithreading.utilization_by_config(points)
        assert util["conventional"][4] < util["guarded"][4] / 3

    def test_single_domain_unaffected(self, points):
        # with one thread there are no domain switches: all configs equal
        by_config = {p.config: p.cycles for p in points if p.threads == 1}
        assert len(set(by_config.values())) == 1

    def test_flush_config_is_worst(self, points):
        cycles = {(p.config, p.threads): p.cycles for p in points}
        assert cycles[("conventional+flush", 4)] >= cycles[("conventional", 4)]


class TestE6TagOverhead:
    def test_overhead_constant_across_sizes(self):
        rows = e6_tag_overhead.storage_overhead()
        assert len({r.overhead for r in rows}) == 1
        assert rows[0].overhead == pytest.approx(1 / 64)

    def test_close_to_paper_claim(self):
        check = e6_tag_overhead.paper_claim_check()
        assert check["measured"] == pytest.approx(check["closed_form"])
        assert abs(check["ratio_to_claim"] - 1) < 0.05

    def test_guarded_has_least_hardware(self):
        inv = {h.scheme: h for h in e6_tag_overhead.inventory()}
        g = inv["guarded-pointers"]
        assert g.lookaside_buffers == 0 and g.tables_in_memory == 0


class TestE7Fragmentation:
    def test_closed_form_matches(self):
        check = e7_fragmentation.closed_form_check()
        assert check["measured"] == pytest.approx(check["expected"], rel=0.01)

    def test_overhead_bounded_by_2(self):
        for row in e7_fragmentation.internal_fragmentation_table(2000):
            assert 1.0 <= row.overhead_factor <= 2.0

    def test_buddy_always_recovers(self):
        results = e7_fragmentation.external_fragmentation(
            order=14, steps=1000, seeds=(0, 1))
        for run in results["buddy"]:
            assert run.final_fragmentation == 0.0
        assert any(r.final_fragmentation > 0 for r in results["no-coalesce"])


class TestE8Sharing:
    def test_entries_ratio_is_pages(self):
        for row in e8_sharing.entries_grid():
            assert row.ratio == row.pages

    def test_synonym_misses_scale_with_processes(self):
        rows = e8_sharing.in_cache_sharing((1, 4), refs_per_process=1000)
        assert rows[1].miss_ratio > 3  # one synonym copy per process


class TestE9ContextSwitch:
    @pytest.fixture(scope="class")
    def results(self):
        return e9_context_switch.sweep(quanta=(1, 1000),
                                       refs_per_process=2000)

    def test_guarded_pays_zero_per_switch(self):
        table = e9_context_switch.switch_cost_table()
        assert table["guarded-pointers"] == 0
        assert table["paged-separate"] == max(table.values())

    def test_flush_scheme_collapses_at_fine_grain(self, results):
        fine = results[0]
        assert fine.relative("paged-separate") > 4

    def test_quantum_insensitivity_of_guarded(self, results):
        fine, coarse = results
        # guarded pointers do zero protection work per switch at any
        # quantum; what remains is cache capacity pressure from the
        # interleaved working sets, which is modest and shared by every
        # single-address-space scheme
        for qr in (fine, coarse):
            row = next(r for r in qr.rows if r.scheme == "guarded-pointers")
            assert row.metrics.switch_cycles == 0
        ratio = fine.cycles("guarded-pointers") / coarse.cycles("guarded-pointers")
        assert ratio < 1.5

    def test_every_scheme_at_least_guarded(self, results):
        for qr in results:
            for row in qr.rows:
                assert qr.relative(row.scheme) >= 0.99

    def test_workload_sweep_smoke(self):
        results = e9_context_switch.workload_sweep(processes=2,
                                                   refs_per_process=300)
        assert set(results) == set(e9_context_switch.WORKLOADS)
        for qr in results.values():
            row = next(r for r in qr.rows if r.scheme == "guarded-pointers")
            assert row.metrics.switch_cycles == 0


class TestE10Segmentation:
    def test_segmentation_always_slower(self):
        for row in e10_segmentation.latency_vs_segments((1, 64), refs=2000):
            assert row.slowdown > 1.0

    def test_descriptor_pressure_grows(self):
        rows = e10_segmentation.latency_vs_segments((1, 256), refs=2000)
        assert rows[-1].descriptor_miss_rate > rows[0].descriptor_miss_rate

    def test_rigidity_table_covers_paper_examples(self):
        systems = {r.system for r in e10_segmentation.rigidity_table()}
        assert {"Multics", "Intel 8086", "Intel 80386", "guarded pointers"} <= systems

    def test_flexibility_products_constant(self):
        for count, size in e10_segmentation.flexibility_demonstration():
            assert count * size == 1 << 54


class TestE11CapTable:
    def test_indirection_costs_show_past_cache(self):
        rows = e11_captable.latency_vs_objects((4, 256), refs=2000)
        assert rows[0].slowdown < rows[-1].slowdown
        assert rows[-1].slowdown > 1.2

    def test_guarded_never_slower(self):
        for row in e11_captable.latency_vs_objects((4, 64), refs=1000):
            assert row.slowdown >= 1.0

    def test_storage_comparison(self):
        storage = e11_captable.storage_comparison()
        assert set(storage) == {"guarded-pointer", "capability-table"}
        assert "1 tag bit" in storage["guarded-pointer"]


class TestE12SFI:
    def test_overhead_falls_with_static_safety(self):
        rows = [r for r in e12_sfi.overhead_sweep(refs=2000)
                if not r.check_reads]
        assert rows[0].overhead > rows[-1].overhead
        assert rows[0].overhead > 0.05

    def test_full_isolation_costs_more(self):
        rows = e12_sfi.overhead_sweep(safe_fractions=(0.0,), refs=2000)
        basic = next(r for r in rows if not r.check_reads)
        full = next(r for r in rows if r.check_reads)
        assert full.overhead > basic.overhead

    def test_qualitative_gap_recorded(self):
        gap = e12_sfi.qualitative_gap()
        assert "enforcement" in gap


class TestE13RevocationGC:
    def test_sweep_dwarfs_unmap(self):
        for row in e13_revocation_gc.revocation_costs((4096,)):
            assert row.sweep_to_unmap_ratio > 1000

    def test_sweep_finds_every_copy(self):
        for row in e13_revocation_gc.revocation_costs((4096,), holders=8):
            assert row.copies_overwritten == 8

    def test_gc_scan_scales_with_mapped_heap(self):
        rows = e13_revocation_gc.gc_scaling((8, 32))
        assert rows[1].words_scanned > rows[0].words_scanned
        assert rows[1].segments_freed == 16

    def test_relocation_unmap_bookkeeping(self):
        result = e13_revocation_gc.relocation_by_unmap()
        assert result["pages_unmapped"] == 16
        assert result["faults_on_first_use"] == 1


class TestE15Multinode:
    """Pinned by value: EXPERIMENTS.md's E15 tables are these numbers."""

    def test_latency_vs_distance(self):
        points = e15_multinode.latency_vs_distance()
        assert [p.hops for p in points] == [0, 1, 2, 3]
        assert [p.stall_cycles for p in points] == [30, 59, 69, 79]
        assert [p.messages for p in points] == [0, 2, 2, 2]

    def test_protection_stays_local(self):
        locality = e15_multinode.protection_stays_local(attempts=8)
        assert locality.denied_remote_stores == 8
        assert locality.network_messages == 0
        assert locality.remote_protection_state_bytes == 0
