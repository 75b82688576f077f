"""Integration tests for the ablation experiments."""

from repro.experiments import ablations


class TestA1Banking:
    def test_conflicts_fall_with_banks(self):
        points = ablations.bank_sweep(bank_counts=(1, 4), iterations=60)
        assert points[0].bank_conflicts > points[1].bank_conflicts
        assert points[0].cycles > points[1].cycles

    def test_four_banks_absorb_four_clusters(self):
        points = ablations.bank_sweep(bank_counts=(4,), iterations=60)
        assert points[0].bank_conflicts == 0


class TestA2TranslationPosition:
    def test_translate_first_probes_every_access(self):
        guarded, first = ablations.translation_position(refs=3000)
        assert first.tlb_probes == 3000
        assert guarded.tlb_probes < 3000

    def test_translate_first_slower(self):
        guarded, first = ablations.translation_position(refs=3000)
        assert first.cycles_per_access > guarded.cycles_per_access


class TestA3Sensitivity:
    def test_headline_robust_to_cost_halving_doubling(self):
        points = ablations.cost_sensitivity(refs_per_process=800)
        assert {p.variant for p in points} == {
            "default", "cheap-flushes", "dear-flushes",
            "cheap-walks", "dear-walks"}
        assert all(p.paged_over_guarded > 2 for p in points)

    def test_dearer_flushes_widen_the_gap(self):
        points = {p.variant: p.paged_over_guarded
                  for p in ablations.cost_sensitivity(refs_per_process=800)}
        assert points["dear-flushes"] > points["default"] > points["cheap-flushes"]


class TestA4RestrictEmulation:
    def test_gateway_works_but_costs_more(self):
        costs = ablations.restrict_hardware_vs_gateway()
        assert costs.hardware_cycles <= 5
        assert costs.gateway_cycles > 5 * costs.hardware_cycles


class TestA5Overcommit:
    def test_overcommit_pages_instead_of_failing(self):
        under, over = ablations.overcommit_sweep(ratios=(0.5, 2.0), frames=8)
        assert under.evictions == 0
        assert over.evictions > 0
        assert over.cycles > under.cycles
