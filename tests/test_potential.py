import math

import numpy as np
import pytest

from skewtherm import (
    BasePoint,
    HypothesisConstants,
    TrigPotential,
    birkhoff_sum,
    check_condition_P,
    fiber_forward,
)


def constants_for(eps_phi, alpha=1.0):
    return HypothesisConstants(d=2, dhat=2, q=1, gamma=1.2, L=1.0,
                               alpha=alpha, eps_phi=eps_phi, iota=0.995,
                               eps=0.05)


class TestEval:
    def test_constant(self):
        pot = TrigPotential.constant_potential(0.7)
        assert pot(0.3, 0.9) == 0.7

    def test_cos_at_zero(self):
        pot = TrigPotential(terms=((0, 1, 0.01),))
        assert pot(0.0, 0.0) == pytest.approx(0.01)

    def test_cos_at_quarter(self):
        pot = TrigPotential(terms=((0, 1, 0.01),))
        assert pot(0.0, 0.25) == pytest.approx(0.0, abs=1e-17)

    def test_vectorized(self):
        pot = TrigPotential(terms=((1, 2, 0.5),), constant=1.0)
        ys = np.array([0.0, 0.25, 0.5])
        vals = pot(0.1, ys)
        for y, v in zip(ys, vals):
            assert v == pytest.approx(1.0 + 0.5 * math.cos(2 * math.pi * (0.1 + 2 * y)))

    def test_json_round_trip(self):
        pot = TrigPotential(terms=((0, 1, 0.004),), constant=0.3)
        assert TrigPotential.from_json(pot.to_json()) == pot


class TestBirkhoffSum:
    def test_constant_sums_to_nc(self, family, rng):
        pot = TrigPotential.constant_potential(0.3)
        x = BasePoint.random(rng, 20)
        assert birkhoff_sum(pot, family, x, 0.4, 7) == pytest.approx(2.1)

    def test_single_term_is_pointwise(self, family, small_potential, rng):
        x = BasePoint.random(rng, 8)
        assert birkhoff_sum(small_potential, family, x, 0.4, 1) == pytest.approx(
            small_potential(x, 0.4))

    def test_explicit_three_orbit(self, family):
        # orbit oracle evaluated by hand-rolled iteration
        pot = TrigPotential(terms=((0, 1, 0.01),))
        x = BasePoint.from_fraction(1, 3, 30)
        expected = 0.0
        y = 0.0
        for k in range(3):
            xk = x.forward(k)
            expected += 0.01 * math.cos(2 * math.pi * y)
            y = fiber_forward(family, xk, y)
        assert birkhoff_sum(pot, family, x, 0.0, 3) == pytest.approx(expected, abs=1e-14)

    def test_cocycle_identity(self, family, small_potential, rng):
        from skewtherm.fibers import fiber_forward as ff
        for _ in range(10):
            x = BasePoint.random(rng, 30)
            y = float(rng.uniform(0, 1))
            n, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            total = birkhoff_sum(small_potential, family, x, y, n + m)
            head = birkhoff_sum(small_potential, family, x, y, n)
            yn = y
            for k in range(n):
                yn = ff(family, x.forward(k), yn)
            tail = birkhoff_sum(small_potential, family, x.forward(n), yn, m)
            assert total == pytest.approx(head + tail, abs=1e-12)


class TestConditionP:
    def test_zero_potential_passes_all(self, zero_potential):
        for eps_phi in (0.01, 0.3, 0.6):
            rep = check_condition_P(zero_potential, constants_for(eps_phi))
            assert rep.all_ok

    def test_unit_amplitude_fails_range(self):
        pot = TrigPotential(terms=((0, 1, 1.0),))
        rep = check_condition_P(pot, constants_for(0.01))
        assert not rep.range_ok
        assert rep.sup_phi - rep.inf_phi > 1.0  # grid certainly sees most of the range

    def test_eps_phi_range_bound(self, zero_potential):
        assert check_condition_P(zero_potential, constants_for(0.6)).eps_phi_ok
        assert not check_condition_P(zero_potential, constants_for(0.7)).eps_phi_ok

    def test_default_small_potential_passes(self, small_potential):
        rep = check_condition_P(small_potential, constants_for(0.04))
        assert rep.all_ok, rep.to_json()

    def test_seminorm_estimate_monotone_in_grid(self, small_potential):
        # refining the grid can only reveal larger quotients
        rep_coarse = check_condition_P(small_potential, constants_for(0.04), grid=32)
        rep_fine = check_condition_P(small_potential, constants_for(0.04), grid=64)
        assert rep_fine.exp_seminorm >= rep_coarse.exp_seminorm - 1e-15

    def test_seminorm_close_to_analytic(self):
        # |e^phi|_1 for phi = a*cos(2 pi y) is max |d/dy e^phi| = 2 pi a e^...
        # at small a it is close to 2 pi a; the grid estimate is a lower bound
        a = 0.004
        pot = TrigPotential(terms=((0, 1, a),))
        rep = check_condition_P(pot, constants_for(0.04))
        analytic = 2 * math.pi * a  # leading order
        assert rep.exp_seminorm <= analytic * 1.02
        assert rep.exp_seminorm >= analytic * 0.9
