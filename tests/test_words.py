import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import exhaustive_count_oracle
from skewtherm import BasePoint, HypothesisConstants, TrigPotential
from skewtherm.words import (
    Word,
    bad_mass_ratio,
    count_I,
    good_branch_contraction,
    good_mask,
    is_good,
    word_from_index,
)


def constants(iota=0.5, eps=0.05, eps_phi=0.01):
    return HypothesisConstants(d=2, dhat=2, q=1, gamma=1.2, L=1.0, alpha=1.0,
                               eps_phi=eps_phi, iota=iota, eps=eps)


class TestWord:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Word(())

    def test_rejects_bad_letter(self):
        with pytest.raises(ValueError):
            Word((1, 3), d=2)

    def test_index_round_trip(self):
        w = word_from_index(0b101, 3)
        assert w.letters == (2, 1, 2)


class TestIsGood:
    def test_all_expanding_always_good(self):
        w = Word((2,) * 10)
        for m in (1, 2, 5):
            for iota in (0.1, 0.5, 0.9):
                assert is_good(w, m, iota, q=1)

    def test_all_neutral_pair_bad(self):
        # two neutral letters exceed iota * m = 1
        assert not is_good(Word((1, 1)), m=2, iota=0.5, q=1)

    def test_n2_enumeration(self):
        # spec-level enumeration of all four words
        good = [w for w in [(1, 1), (1, 2), (2, 1), (2, 2)]
                if is_good(Word(w), m=2, iota=0.5, q=1)]
        assert good == [(1, 2), (2, 1), (2, 2)]

    def test_window_anchored_at_end(self):
        # only the last jm letters matter for each j
        w = Word((1, 1, 1, 2, 2, 2))
        assert is_good(w, m=3, iota=0.5, q=1)  # last 3: none neutral; last 6: 3 <= 3
        w2 = Word((2, 2, 2, 1, 1, 1))
        assert not is_good(w2, m=3, iota=0.5, q=1)

    def test_mask_matches_scalar(self):
        n, m, iota = 8, 3, 0.6
        mask = good_mask(n, m, iota, q=1)
        for idx in range(1 << n):
            assert mask[idx] == is_good(word_from_index(idx, n), m, iota, 1)


class TestCountI:
    def test_iota_zero_limit_counts_everything(self):
        # at the iota -> 0 limit the threshold is zero neutral letters
        assert count_I(0.0, 8, q=1, d=2) == 2 ** 8
        # any strictly positive iota excludes the zero-neutral words
        assert count_I(1e-9, 8, q=1, d=2) == 2 ** 8 - 1

    def test_n2_half(self):
        assert count_I(0.5, 2, q=1, d=2) == 3

    def test_exhaustive_equals_binomial_n16(self):
        for iota in (0.3, 0.5, 0.9, 0.995):
            fast = count_I(iota, 16, q=1, d=2)
            slow = exhaustive_count_oracle(iota, 16, q=1, d=2)
            assert fast == slow

    def test_exhaustive_general_d(self):
        fast = count_I(0.5, 5, q=2, d=3)
        slow = exhaustive_count_oracle(0.5, 5, q=2, d=3)
        assert fast == slow

    @given(st.integers(1, 12), st.floats(0.05, 0.95))
    @settings(max_examples=25, deadline=None)
    def test_partition_totals(self, n, iota):
        # words with >= iota n neutral plus words with < iota n neutral
        # add up to d^n (complement consistency of the threshold)
        hits = count_I(iota, n, q=1, d=2)
        kmin = max(0, math.ceil(iota * n - 1e-9))
        misses = sum(math.comb(n, k) for k in range(0, kmin))
        assert hits + misses == 2 ** n

    def test_growth_rate_bound_near_one(self):
        # at iota close to 1 the exponential growth rate is below eps plus
        # slack (two-branch case, q = 1)
        iota, eps = 0.995, 0.05
        for n in (12, 16, 20):
            rate = math.log(count_I(iota, n, q=1, d=2)) / n
            assert rate <= math.log(1) + eps + 0.05


class TestGoodBadPartition:
    def test_partition(self):
        for n, m, iota in [(8, 2, 0.5), (10, 3, 0.7), (12, 4, 0.995)]:
            mask = good_mask(n, m, iota)
            assert mask.size == 2 ** n  # good + bad = all


class TestBadMassRatio:
    def test_vacuous_when_m_exceeds_n(self, family, zero_potential, rng):
        x = BasePoint.random(rng, 10)
        ratio = bad_mass_ratio(zero_potential, family, x, 0.5, n=6, m=8,
                               constants=constants())
        assert ratio == 0.0

    def test_zero_potential_counts(self, family, zero_potential, rng):
        # with phi = 0 all leaf weights are equal: ratio = #bad / #good
        x = BasePoint.random(rng, 12)
        n = m = 6
        iota = 0.5
        ratio = bad_mass_ratio(zero_potential, family, x, 0.3, n=n, m=m,
                               constants=constants(iota=iota))
        mask = good_mask(n, m, iota)
        expected = (2 ** n - mask.sum()) / mask.sum()
        assert ratio == pytest.approx(expected, rel=1e-12)

    def test_geometric_decay_in_m(self, family, rng):
        pot = TrigPotential(terms=((0, 1, 0.004),))
        consts = constants(iota=0.995, eps=0.05, eps_phi=0.04)
        x = BasePoint.random(rng, 20)
        ms = [2, 3, 4, 5, 6]
        ratios = [bad_mass_ratio(pot, family, x, 0.37, n=14, m=m,
                                 constants=consts) for m in ms]
        logs = np.log(ratios)
        slope = np.polyfit(ms, logs, 1)[0]
        base = math.exp(slope)
        assert base <= consts.theta + 0.1

    def test_good_set_never_empty_for_q1(self):
        # the all-expanding word has no neutral letters, so it is good for
        # any window parameters; the empty-good-set guard is defensive only
        for n, m, iota in [(6, 1, 0.01), (8, 2, 0.1), (10, 5, 0.5)]:
            mask = good_mask(n, m, iota)
            assert mask[(1 << n) - 1]


class TestGoodBranchContraction:
    def test_identical_points_degenerate(self, family, rng):
        x = BasePoint.random(rng, 16)
        fit = good_branch_contraction(family, x, x, 0.4, n=8, m=2,
                                      constants=constants(iota=0.995))
        assert fit.degenerate

    def test_decay_rate_positive(self, family, rng):
        x = BasePoint.random(rng, 20)
        x2 = x.add_dyadic(1, 16)
        consts = constants(iota=0.995)
        fit = good_branch_contraction(family, x, x2, 0.4, n=10, m=2,
                                      constants=consts)
        assert not fit.degenerate
        assert fit.c_emp > 0.0
        assert 2 * fit.c_emp >= 2 * consts.c  # far above the tiny analytic rate
        assert fit.q_emp > 0.0

    def test_domination_by_construction(self, family, rng):
        from skewtherm.base import circle_distance
        from skewtherm.fibers import preimage_tree
        x = BasePoint.random(rng, 20)
        x2 = x.add_dyadic(1, 14)
        consts = constants(iota=0.995)
        n, m = 8, 2
        fit = good_branch_contraction(family, x, x2, 0.4, n=n, m=m,
                                      constants=consts)
        t1, t2 = (preimage_tree(family, p, 0.4, n) for p in (x, x2))
        mask = good_mask(n, m, consts.iota)
        d_anchor = circle_distance(float(x.forward(n)), float(x2.forward(n)))
        idx = np.arange(1 << n)[mask]
        for k in range(n):
            d_base = circle_distance(float(x.forward(k)), float(x2.forward(k)))
            gaps = d_base + circle_distance(t1[k], t2[k])
            bound = fit.q_emp ** m * math.exp(-2 * fit.c_emp * (n - k)) * d_anchor
            assert np.all(gaps[idx >> k] <= bound * (1 + 1e-9))
