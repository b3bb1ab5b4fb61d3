"""Seeded parameter sampling and safe-box enforcement."""

import pytest

from ellselberg import (
    BalancingMode,
    ConfigurationError,
    Nomes,
    SafeBox,
    SampleStats,
    sample_da_parameters,
    sample_parameters,
)

NM = Nomes(0.05, 0.12)


class TestSampleParameters:
    def test_deterministic(self):
        a = sample_parameters(BalancingMode.PQ, 1, NM, seed=7, count=4)
        b = sample_parameters(BalancingMode.PQ, 1, NM, seed=7, count=4)
        assert [ps.a for ps in a] == [ps.a for ps in b]

    def test_seed_changes_draw(self):
        a = sample_parameters(BalancingMode.PQ, 1, NM, seed=7, count=1)
        b = sample_parameters(BalancingMode.PQ, 1, NM, seed=8, count=1)
        assert a[0].a != b[0].a

    @pytest.mark.parametrize("mode", list(BalancingMode))
    @pytest.mark.parametrize("n", [1, 2])
    def test_balancing_holds(self, mode, n):
        # P and ONE at n=2 need a small p for the solved entry to clear the box
        nm = NM if n == 1 else Nomes(0.004, 0.12)
        box = None if n == 1 else SafeBox(a_min=0.5, a_max=0.7)
        for ps in sample_parameters(mode, n, nm, seed=3, count=3, box=box):
            prod = 1.0 + 0.0j
            for v in ps.a:
                prod *= v
            prod *= ps.t ** (2 * n - 2)
            target = {
                BalancingMode.PQ: nm.pq,
                BalancingMode.P: nm.p,
                BalancingMode.ONE: 1.0,
            }[mode]
            assert abs(prod - target) <= 1e-14 * max(abs(target), 1.0)

    def test_free_entries_inside_box(self):
        box = SafeBox(a_min=0.4, a_max=0.6, t_min=0.35, t_max=0.45)
        for ps in sample_parameters(BalancingMode.PQ, 2, NM, seed=11, count=5, box=box):
            for v in ps.a[:5]:
                assert 0.4 - 1e-12 <= abs(v) <= 0.6 + 1e-12
            assert 0.35 <= abs(ps.t) <= 0.45

    def test_fixed_t_passes_through(self):
        for ps in sample_parameters(BalancingMode.ONE, 1, NM, seed=2, count=3, t=0.5):
            assert ps.t == 0.5

    def test_solved_entry_clearance(self):
        box = SafeBox(solved_clearance=0.25)
        for ps in sample_parameters(BalancingMode.PQ, 1, NM, seed=5, count=8, box=box):
            assert abs(ps.a[5]) <= 0.75

    def test_one_mode_solved_entry_scaled_by_p(self):
        for ps in sample_parameters(BalancingMode.ONE, 1, NM, seed=5, count=8):
            assert abs(NM.p * ps.a[5]) <= 0.75

    def test_predicate_filter(self):
        pred = lambda ps: ps.a[5].real > 0
        stats = SampleStats()
        out = sample_parameters(
            BalancingMode.PQ, 1, NM, seed=9, count=4, predicate=pred, stats=stats
        )
        assert all(ps.a[5].real > 0 for ps in out)
        assert stats.reasons.get("scenario predicate", 0) > 0

    def test_stats_track_acceptance(self):
        stats = SampleStats()
        sample_parameters(BalancingMode.PQ, 1, NM, seed=1, count=6, stats=stats)
        assert stats.accepted == 6

    def test_infeasible_box_raises(self):
        box = SafeBox(max_rejections=50)
        with pytest.raises(ConfigurationError, match="rejections"):
            sample_parameters(
                BalancingMode.PQ, 1, NM, seed=1, count=1,
                box=box, predicate=lambda ps: False,
            )

    def test_nome_outside_box_raises(self):
        with pytest.raises(ConfigurationError, match="box bound"):
            sample_parameters(BalancingMode.PQ, 1, Nomes(0.3, 0.12), seed=1, count=1)


# one draw from each sampler in a given box
BOTH_SAMPLERS = pytest.mark.parametrize(
    "sample",
    [
        lambda box: sample_parameters(BalancingMode.PQ, 1, NM, seed=1, count=1, box=box),
        lambda box: sample_da_parameters(1, NM, seed=1, count=1, box=box),
    ],
    ids=["balanced", "dixon_anderson"],
)


@pytest.mark.parametrize(
    "bounds",
    [dict(a_min=0.0, a_max=0.0), dict(a_min=-0.1, a_max=0.5), dict(a_min=0.6, a_max=0.5)],
)
@BOTH_SAMPLERS
def test_both_samplers_refuse_a_box_without_free_moduli(sample, bounds):
    # the box is refused before any draw, so both samplers give the same error
    with pytest.raises(ConfigurationError, match="a_min"):
        sample(SafeBox(**bounds))


@BOTH_SAMPLERS
def test_both_samplers_reject_an_underflowing_free_product(sample):
    # 1e-70 is a valid a_min, but five such moduli multiply to 0.0
    with pytest.raises(ConfigurationError, match=r"\('degenerate free product', 51\)"):
        sample(SafeBox(a_min=1e-70, a_max=1e-70, max_rejections=50))


class TestSampleDaParameters:
    @pytest.mark.parametrize("n", [1, 2])
    def test_constraint_product(self, n):
        for a in sample_da_parameters(n, NM, seed=4, count=3):
            assert len(a) == 2 * n + 4
            prod = 1.0 + 0.0j
            for v in a:
                prod *= v
            assert abs(prod - NM.pq) <= 1e-13 * abs(NM.pq)

    def test_deterministic(self):
        a = sample_da_parameters(2, NM, seed=6, count=2)
        b = sample_da_parameters(2, NM, seed=6, count=2)
        assert a == b

    def test_solved_entry_clearance(self):
        for a in sample_da_parameters(1, NM, seed=12, count=6):
            assert abs(a[-1]) <= 0.75
