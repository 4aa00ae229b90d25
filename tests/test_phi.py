import math
import tracemalloc

import numpy as np
import pytest

from oracles import base_stencil_reference, phi_tolerance_loop, phi_two_cascades
from skewtherm import BasePoint, TrigPotential, phi
from skewtherm.measures import rpf_base_solve
from skewtherm.operators import base_preimage_points, base_stencil
from skewtherm.errors import (
    CapacityExhaustedError,
    DegenerateFitError,
    NoConvergenceError,
    NonpositiveFunctionError,
)
from skewtherm.phi import (
    PhiSequence,
    PhiTable,
    compute_phi,
    estimate_holder,
    fit_convergence_rate,
    phi_evaluator,
)

LOG2 = math.log(2.0)


class TestPhiN:
    def test_zero_potential_gives_log2(self, family, zero_potential, rng):
        for _ in range(5):
            x = BasePoint.random(rng, 12)
            for n in (0, 3, 7):
                value = PhiSequence(zero_potential, family, x).value(n)
                assert value == pytest.approx(LOG2, abs=1e-12)

    def test_constant_shift(self, family, rng):
        # replacing phi by phi + c shifts the value by exactly c
        c = 0.05
        pot = TrigPotential.constant_potential(c)
        x = BasePoint.random(rng, 12)
        value = PhiSequence(pot, family, x).value(5)
        assert value == pytest.approx(LOG2 + c, abs=1e-10)

    def test_shift_covariance_nonconstant(self, family, rng):
        base = TrigPotential(terms=((0, 1, 0.01),))
        shifted = TrigPotential(terms=((0, 1, 0.01),), constant=0.3)
        x = BasePoint.random(rng, 15)
        a = PhiSequence(base, family, x).value(10)
        b = PhiSequence(shifted, family, x).value(10)
        assert b - a == pytest.approx(0.3, abs=1e-10)

    def test_capacity_guard(self, family, small_potential, rng):
        x = BasePoint.random(rng, 5)
        with pytest.raises(CapacityExhaustedError):
            PhiSequence(small_potential, family, x).value(5)

    @pytest.mark.parametrize("anchor", ["delta", "uniform"])
    def test_lockstep_matches_independent_cascades(self, family, rng, anchor):
        pot = TrigPotential(terms=((0, 1, 0.02), (1, 1, 0.015)), constant=0.1)
        x = BasePoint.random(rng, 40)
        seq = PhiSequence(pot, family, x, anchor=anchor)
        for n in range(31):
            want = phi_two_cascades(pot, family, x, n, 512, anchor, 0.5)
            assert abs(seq.value(n) - want) <= 1e-14

    @pytest.mark.parametrize("anchor", ["delta", "uniform"])
    def test_array_cascades_keep_every_bit(self, family, anchor):
        # the cascades stepped as (values, log offset) arrays against fresh
        # GridFn cascades, on a random and a dyadic orbit
        pot = TrigPotential(terms=((0, 1, 0.02), (1, 1, 0.015)), constant=0.1)
        points = [BasePoint.random(np.random.default_rng(41), 40),
                  BasePoint.from_fraction(5, 64, 40)]
        for x in points:
            seq = PhiSequence(pot, family, x, anchor=anchor)
            seq.value(25)
            assert seq.values == [phi_two_cascades(pot, family, x, n, 512,
                                                   anchor, 0.5)
                                  for n in range(26)]

    def test_vanishing_cascade_raises(self, family, rng):
        # e^phi underflows to 0, so the first step leaves nothing to pair
        pot = TrigPotential.constant_potential(-800.0)
        with pytest.raises(NonpositiveFunctionError):
            PhiSequence(pot, family, BasePoint.random(rng, 12)).value(0)

    def test_dyadic_orbit_keeps_one_zero_stencil(self, family, stencil_builds):
        # 1/128 reaches the fixed point 0 after 7 steps: 7 stencils off
        # zero, then one L_0 stencil for the remaining 24 steps
        pot = TrigPotential(terms=((0, 1, 0.02), (1, 1, 0.015)), constant=0.1)
        x = BasePoint.from_fraction(1, 128, 96)
        seq = PhiSequence(pot, family, x)
        values = [seq.value(n) for n in range(31)]
        assert len(stencil_builds) == 8
        assert [p.num == 0 for p in stencil_builds] == [False] * 7 + [True]
        for n, value in enumerate(values):
            assert value == phi_two_cascades(pot, family, x, n, 512, "delta", 0.5)

    def test_random_orbit_builds_each_point_once(self, family, rng,
                                                 stencil_builds):
        pot = TrigPotential(terms=((0, 1, 0.02),))
        PhiSequence(pot, family, BasePoint.random(rng, 40)).value(30)
        assert len(stencil_builds) == 31

    def test_value_builds_the_missing_steps_as_one_block(self, family, rng,
                                                          monkeypatch):
        blocks = []
        original = phi.fiber_stencils

        def recording(pot, family, xs, n_nodes):
            blocks.append(len(xs))
            return original(pot, family, xs, n_nodes)

        monkeypatch.setattr(phi, "fiber_stencils", recording)
        pot = TrigPotential(terms=((0, 1, 0.02),))
        x = BasePoint.random(rng, 40)
        seq = PhiSequence(pot, family, x)
        values = [seq.value(9), seq.value(9), seq.value(30)]
        assert blocks == [10, 21]
        assert values[1:] == [phi_two_cascades(pot, family, x, n, 512,
                                               "delta", 0.5) for n in (9, 30)]

    def test_anchor_independence_rate(self, family, rng):
        pot = TrigPotential(terms=((0, 1, 0.01),))
        x = BasePoint.random(rng, 45)
        sd = PhiSequence(pot, family, x, anchor="delta")
        su = PhiSequence(pot, family, x, anchor="uniform")
        gaps = [abs(sd.value(n) - su.value(n)) for n in range(0, 30, 5)]
        # geometric decay of the anchor gap
        assert gaps[-1] < gaps[0] * 1e-6


class TestAnchorDuality:
    """<L^(n+1) 1, w> = <1, (L*)^(n+1) w> for the anchor's weights w: Phi_n
    from the two forward cascades is the log-mass of the anchor pulled back
    n + 1 steps over x."""

    @pytest.mark.parametrize("n_nodes", [16, 512])
    @pytest.mark.parametrize("anchor", ["delta", "uniform"])
    def test_cascades_match_the_pulled_anchor(self, family, rng, anchor,
                                              n_nodes):
        pot = TrigPotential(terms=((0, 1, 0.02), (1, 1, 0.015)), constant=0.1)
        points = [*(BasePoint.random(rng, 64) for _ in range(4)),
                  BasePoint.from_fraction(3, 128, 64),
                  BasePoint.from_fraction(0, 1, 64)]
        start = phi.anchor_weights(anchor, 0.5, n_nodes), 0.0
        for x in points:
            seq = PhiSequence(pot, family, x, n_nodes=n_nodes, anchor=anchor)
            store = phi._MeasureStore(pot, family, n_nodes, start)
            for n in (0, 1, 5, 12, 25, 40):
                ((_, log_mass),) = store.pull([x], n + 1)
                assert abs(seq.value(n) - log_mass) <= 1e-13


class TestComputePhi:
    def test_zero_potential(self, family, zero_potential, rng):
        x = BasePoint.random(rng, 20)
        value, n_used, bound = compute_phi(zero_potential, family, x, tol=1e-10)
        assert value == pytest.approx(LOG2, abs=1e-9)
        assert n_used <= 2
        assert bound <= 1e-10

    def test_constant_potential(self, family, rng):
        pot = TrigPotential.constant_potential(0.05)
        x = BasePoint.random(rng, 20)
        value, _, _ = compute_phi(pot, family, x, tol=1e-10)
        assert value == pytest.approx(LOG2 + 0.05, abs=1e-9)

    def test_matches_long_run(self, family, rng):
        pot = TrigPotential(terms=((0, 1, 0.01),))
        x = BasePoint.random(rng, 50)
        tol = 1e-8
        value, n_used, bound = compute_phi(pot, family, x, tol=tol)
        long_run = PhiSequence(pot, family, x).value(40)
        assert abs(value - long_run) <= 10 * tol

    def test_bound_honest(self, family, rng):
        pot = TrigPotential(terms=((0, 1, 0.01),))
        for _ in range(5):
            x = BasePoint.random(rng, 50)
            value, _, bound = compute_phi(pot, family, x, tol=1e-8)
            long_run = PhiSequence(pot, family, x).value(40)
            assert abs(value - long_run) <= max(bound, 1e-12) * 3

    def test_uses_table(self, family, rng, stencil_builds):
        # a point repeated in one evaluator is a table hit: the same value,
        # one entry and no stencil built for it
        pot = TrigPotential(terms=((0, 1, 0.01),))
        ev = phi_evaluator(pot, family, tol=1e-8)
        x = BasePoint.random(rng, 50)
        v1 = ev(x)
        assert len(ev.table) == 1
        builds = len(stencil_builds)
        assert builds > 0
        v2 = ev(x)
        assert len(ev.table) == 1
        assert len(stencil_builds) == builds
        assert v1 == v2 == compute_phi(pot, family, x, tol=1e-8)[0]

    def test_blocks_built_ahead_leave_phi_unchanged(self, family, rng,
                                                    monkeypatch,
                                                    stencil_builds):
        # 64 random points: stencils built in predicted blocks give the
        # values, depths and bounds of building one step at a time, and
        # the prediction overshoots the steps taken by little
        pot = TrigPotential(terms=((0, 1, 0.002), (1, 1, 0.0015)))
        points = [BasePoint.random(rng, 128) for _ in range(64)]
        blocked = [compute_phi(pot, family, x, tol=1e-10) for x in points]
        built = len(stencil_builds)
        del stencil_builds[:]
        monkeypatch.setattr(phi, "_block_steps", lambda incs, certified: 1)
        single = [compute_phi(pot, family, x, tol=1e-10) for x in points]
        assert blocked == single
        needed = sum(n_used + 1 for _, n_used, _ in single)
        assert len(stencil_builds) == needed
        assert needed <= built <= 1.2 * needed

    def test_capacity_cap_raises(self, family):
        # an odd numerator: the orbit reaches 0 only with no digits left,
        # so no exact value can stand in for the five cascade steps
        pot = TrigPotential(terms=((0, 1, 0.01),))
        x = BasePoint.from_fraction(0b110001, 64, 6)
        with pytest.raises(NoConvergenceError):
            compute_phi(pot, family, x, tol=1e-14)


class TestExactDyadicPhi:
    """Phi on dyadic orbits pulled back from known fiber measures, against
    the tolerance loop alone."""

    POT = TrigPotential(terms=((0, 1, 0.002), (1, 1, 0.0015)))

    @pytest.mark.parametrize("n_nodes", [512, 1024])
    def test_nu0_reaches_the_floor(self, family, n_nodes):
        # nu_0 is iterated to tol 1e-15: its residual, the bound of every
        # exact value, stays within 10 tol
        store = phi._MeasureStore(self.POT, family, n_nodes)
        assert store.knows(BasePoint.from_fraction(0, 1, 8))
        assert store.bound <= 1e-14
        weights, _ = store.start
        assert weights.min() > 0.0
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-14)

    def test_base_grid_matches_tolerance_loop(self, family):
        ev = phi_evaluator(self.POT, family, tol=1e-12)
        points = [x for fam in base_preimage_points(64, 96) for x in fam]
        for x in points:
            value = ev(x)
            entry = ev.table.entries[PhiTable.key(x, 512, "delta", 0.5)]
            assert entry.bound <= 1e-14
            want = phi_tolerance_loop(self.POT, family, x, 1e-13)[0]
            assert abs(value - want) <= 1e-13
        assert len(ev.table) == 128

    def test_one_value_at_two_capacities_shares_its_measures(
            self, family, stencil_builds):
        # the second call finds Phi stored beside the measure: no stencil
        ev = phi_evaluator(self.POT, family, tol=1e-12)
        first = ev(BasePoint.from_fraction(3, 128, 96))
        bound = ev.table.entries[PhiTable.key(
            BasePoint.from_fraction(3, 128, 96), 512, "delta", 0.5)].bound
        del stencil_builds[:]
        x = BasePoint.from_fraction(3, 128, 80)
        assert ev(x) == first
        assert stencil_builds == []
        entry = ev.table.entries[PhiTable.key(x, 512, "delta", 0.5)]
        assert (entry.value, entry.n_used, entry.bound) == (first, 0, bound)

    def test_random_points_take_the_tolerance_loop(self, family, rng,
                                                   stencil_builds):
        ev = phi_evaluator(self.POT, family, tol=1e-10)
        for _ in range(16):
            x = BasePoint.random(rng, 128)
            value, n_used, bound = phi_tolerance_loop(self.POT, family, x,
                                                      1e-10)
            assert ev(x) == value
            entry = ev.table.entries[PhiTable.key(x, 512, "delta", 0.5)]
            assert (entry.n_used, entry.bound) == (n_used, bound)
        assert not any(p.num == 0 for p in stencil_builds)

    def test_spent_capacity_is_not_the_fixed_point(self, family):
        # f^10 of a 10-digit point has num 0 but no digits left: the loop
        # runs out of capacity as before instead of pulling back nu_0
        x = BasePoint.from_bits("1011001101")
        with pytest.raises(NoConvergenceError):
            compute_phi(self.POT, family, x, tol=1e-12)

    def test_base_solve_builds_few_stencils(self, family, stencil_builds):
        # the tolerance loop alone builds about 900
        ev = phi_evaluator(self.POT, family, tol=1e-12)
        rpf_base_solve(ev, 64, capacity=96)
        assert len(stencil_builds) <= 256

    def test_base_solve_reuses_stored_phi(self, family, stencil_builds):
        # L_0 once (nu_0 and the pull-back over 0) and one pull-back stencil
        # per other preimage node: every orbit meets the store within the
        # first look-ahead block, so no forward step is taken, and a stored
        # point's Phi needs no stencil
        ev = phi_evaluator(self.POT, family, tol=1e-12)
        rpf_base_solve(ev, 64, capacity=96)
        assert len(stencil_builds) == 128

    def test_base_solve_asks_for_no_empty_block(self, family, monkeypatch):
        # a request holding only 0, or a pull with no missing entry, builds
        # nothing: the store does not call fiber_stencils for it, and the
        # 128 rows come in few requests
        blocks = []
        original = phi.fiber_stencils

        def recording(pot, family, xs, n_nodes):
            blocks.append(len(xs))
            return original(pot, family, xs, n_nodes)

        monkeypatch.setattr(phi, "fiber_stencils", recording)
        ev = phi_evaluator(self.POT, family, tol=1e-12)
        rpf_base_solve(ev, 64, capacity=96)
        assert sum(blocks) == 128
        assert 0 not in blocks
        # L_0, then one request per fill of 64 points; one per point
        # before the fills were blocked, 65 in all
        assert len(blocks) <= 3

    def test_exact_value_wins_over_an_early_increment(self, family):
        # under a constant potential the increments vanish from n = 1, but
        # the first look-ahead block already sees 3/128 reach 0 after 7
        # steps: Phi is the pulled-back log-mass, with n_used = 6 and the
        # residual of nu_0 as the bound
        pot = TrigPotential.constant_potential(0.3)
        x = BasePoint.from_fraction(3, 128, 96)
        value, n_used, bound = compute_phi(pot, family, x, tol=1e-12)
        store = phi._MeasureStore(pot, family, 512)
        assert store.knows(BasePoint.from_fraction(0, 1, 8))
        ((_, log_mass),) = store.pull([x], 7)
        assert (value, n_used, bound) == (log_mass, 6, store.bound)

    def test_tight_tolerance_shares_one_zero_stencil(self, family,
                                                     stencil_builds):
        # below the nu_0 residual the exact path never hits, so each dyadic
        # orbit takes the tolerance loop; its cascades step over 0 with the
        # evaluator's one L_0 stencil, which nu_0 was iterated on
        points = [BasePoint.from_fraction(i, 16, 96) for i in range(1, 16, 2)]
        wants = [phi_tolerance_loop(self.POT, family, x, 1e-15) for x in points]
        del stencil_builds[:]
        ev = phi_evaluator(self.POT, family, tol=1e-15)
        for x, want in zip(points, wants):
            assert ev(x) == want[0]
            entry = ev.table.entries[PhiTable.key(x, 512, "delta", 0.5)]
            assert (entry.n_used, entry.bound) == want[1:]
        assert sum(p.num == 0 for p in stencil_builds) == 1

    def test_phi_does_not_depend_on_evaluation_order(self, family):
        # every entry of the store is a function of (value, steps left), so
        # the 128 preimage nodes of a 64-node grid give the same Phi in node
        # order, in reverse order and with a fresh evaluator per node;
        # n_used records where each orbit met the store and may differ
        points = [x for fam in base_preimage_points(64, 96) for x in fam]
        ev = phi_evaluator(self.POT, family, tol=1e-12)
        natural = [ev(x) for x in points]
        ev = phi_evaluator(self.POT, family, tol=1e-12)
        reverse = [ev(x) for x in reversed(points)][::-1]
        fresh = [phi_evaluator(self.POT, family, tol=1e-12)(x) for x in points]
        assert natural == reverse == fresh


class TestBlockedTabulation:
    """A list of points evaluated in order, with the exact values' pulls
    registered and filled 64 points at a time, against the point-by-point
    tabulation (``base_stencil_reference`` calls the evaluator at one point
    after the other): the same table entries, in the same order, and the
    same stencil bits."""

    POT = TrigPotential(terms=((0, 1, 0.002), (1, 1, 0.0015)))

    def tabulate_both(self, family, n_x, tol, first=()):
        # both evaluators see the points of ``first`` before the grid: the
        # reference one at a time, the other as one list
        ref = phi_evaluator(self.POT, family, tol=tol)
        for x in first:
            ref(x)
        ref_stencil = base_stencil_reference(ref, n_x, 96)
        ev = phi_evaluator(self.POT, family, tol=tol)
        ev(list(first))
        stencil = base_stencil(ev, n_x, 96)
        assert list(ev.table.entries.items()) == list(ref.table.entries.items())
        assert np.array_equal(stencil.idx, ref_stencil.idx.T)
        assert np.array_equal(stencil.wgt, ref_stencil.wgt.T)
        return ev.table

    @pytest.mark.parametrize("n_x", [16, 64, 512])
    def test_empty_table(self, family, n_x):
        table = self.tabulate_both(family, n_x, 1e-12)
        assert len(table) == 2 * n_x
        assert max(e.bound for e in table.entries.values()) <= 1e-14

    @pytest.mark.parametrize("n_x", [16, 64, 512])
    def test_table_with_every_third_point(self, family, n_x):
        # every third grid point is evaluated first, so the grid finds its
        # entries in the table and their orbits in the store
        points = [x for fam in base_preimage_points(n_x, 96) for x in fam]
        table = self.tabulate_both(family, n_x, 1e-12, points[::3])
        assert len(table) == 2 * n_x

    def test_tolerance_below_the_nu0_bound(self, family):
        # certified 1e-15 is below nu_0's residual (about 7e-15): no exact
        # hit, every point takes the tolerance loop
        table = self.tabulate_both(family, 16, 1e-14)
        assert all(e.bound <= 1e-14 for e in table.entries.values())
        assert all(e.n_used > 4 for e in table.entries.values())

    def test_one_point_is_a_list_of_one(self, family):
        points = [x for fam in base_preimage_points(16, 96) for x in fam]
        ev = phi_evaluator(self.POT, family, tol=1e-12)
        one = phi_evaluator(self.POT, family, tol=1e-12)
        assert ev(points) == [one(x) for x in points]
        assert ev(points[5]) == ev(points[5:6])[0] == one(points[5])

    def test_a_failing_point_leaves_no_pending_entry(self, family):
        # Phi(0) is pending when the spent 10-digit point raises (its orbit
        # meets no registered key: every dyadic chain ends in 1/2, 0 has
        # none); the entry leaves the table
        ev = phi_evaluator(self.POT, family, tol=1e-12)
        x = BasePoint.from_fraction(0, 1, 96)
        with pytest.raises(NoConvergenceError):
            ev([x, BasePoint.from_bits("1011001101")])
        assert len(ev.table) == 0
        assert ev(x) == phi_evaluator(self.POT, family, tol=1e-12)(x)

    def test_base_solve_memory(self, family):
        # a fill holds the stencils of one 64-point block: 12.4 MB at 512
        # base nodes, where one pull of every point read 41 MB
        ev = phi_evaluator(self.POT, family, tol=1e-12)
        tracemalloc.start()
        try:
            rpf_base_solve(ev, 512, capacity=96)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6


class TestRegisterAndFill:
    """``_MeasureStore.pull`` is a register and a fill: registering several
    requests, then filling once, stores what pulling each gives."""

    POT = TrigPotential(terms=((0, 1, 0.002), (1, 1, 0.0015)))

    def test_registered_requests_fill_as_pulls(self, family):
        # 3/128 and 67/128 merge after one step, 5/128 and 69/128 too, and
        # every chain meets 1/4 or 1/2; (67/128, 9) overlaps (67/128, 7)
        # at no key, (3/64, 6) is the chain of 3/128 one step on
        frac = BasePoint.from_fraction
        requests = [([frac(3, 128, 96), frac(67, 128, 96)], 7),
                    ([frac(5, 128, 96), frac(1, 4, 96)], 7),
                    ([frac(69, 128, 96), frac(67, 128, 96)], 9),
                    ([frac(3, 64, 96)], 6), ([frac(1, 2, 96)], 3)]
        start = phi.anchor_weights("delta", 0.5, 64), 0.0
        pulled = phi._MeasureStore(self.POT, family, 64, start)
        wants = [pulled.pull(xs, k) for xs, k in requests]
        store = phi._MeasureStore(self.POT, family, 64, start)
        for xs, k in requests:
            store.register(xs, k)
        store.fill()
        assert store._entries.keys() == pulled._entries.keys()
        for key, (w, log_mass) in pulled._entries.items():
            got_w, got_log_mass = store._entries[key]
            assert np.array_equal(got_w, w) and got_log_mass == log_mass
        for (xs, k), want in zip(requests, wants):
            for (w, log_mass), (got_w, got_log_mass) in zip(want,
                                                           store.pull(xs, k)):
                assert np.array_equal(got_w, w) and got_log_mass == log_mass

    def test_a_registered_key_counts_as_known(self, family, stencil_builds):
        store = phi._MeasureStore(self.POT, family, 64)
        assert store.knows(BasePoint.from_fraction(0, 1, 8))
        x = BasePoint.from_fraction(3, 128, 96)
        assert not store.knows(x)
        del stencil_builds[:]
        store.register([x], 7)
        assert all(store.knows(x.forward(j)) for j in range(8))
        assert stencil_builds == []
        store.fill()
        assert len(stencil_builds) == 7  # x, ..., f^6(x)
        assert all(store.knows(x.forward(j)) for j in range(8))


class TestConvergenceFit:
    def test_zero_potential_degenerate(self, family, zero_potential, rng):
        x = BasePoint.random(rng, 30)
        with pytest.raises(DegenerateFitError):
            fit_convergence_rate(zero_potential, family, x, n_max=20)

    def test_default_config_fit(self, family, rng):
        pot = TrigPotential(terms=((0, 1, 0.01),))
        x = BasePoint.random(rng, 40)
        fit = fit_convergence_rate(pot, family, x, n_max=30)
        assert 0.0 < fit.tau_emp < 1.0
        assert fit.r_squared >= 0.98
        assert fit.c1_emp > 0.0

    def test_needs_enough_depth(self, family, small_potential, rng):
        x = BasePoint.random(rng, 40)
        with pytest.raises(ValueError):
            fit_convergence_rate(small_potential, family, x, n_max=10)


class TestPhiEvaluator:
    def test_closure_shares_table(self, family, rng):
        pot = TrigPotential(terms=((0, 1, 0.01),))
        ev = phi_evaluator(pot, family, tol=1e-8)
        x = BasePoint.random(rng, 50)
        ev(x)
        assert len(ev.table) == 1


class TestHolderEstimate:
    def test_zero_potential_degenerate(self, family, zero_potential, rng):
        est = estimate_holder(phi_evaluator(zero_potential, family, tol=1e-10),
                              scales=(2 ** -4, 2 ** -6), pairs_per_scale=3,
                              rng=rng)
        assert est.degenerate

    def test_small_potential_positive_exponent(self, family, rng):
        pot = TrigPotential(terms=((0, 1, 0.01),))
        est = estimate_holder(phi_evaluator(pot, family, tol=1e-10),
                              scales=(2 ** -4, 2 ** -6, 2 ** -8),
                              pairs_per_scale=6, rng=rng)
        assert not est.degenerate
        assert est.exponent_emp > 0.0
        # medians shrink monotonically as the separation shrinks
        assert est.medians[0] > est.medians[1] > est.medians[2]

    def test_rejects_non_dyadic(self, family, small_potential, rng):
        with pytest.raises(ValueError):
            estimate_holder(phi_evaluator(small_potential, family),
                            scales=(0.3,), pairs_per_scale=3, rng=rng)

    def test_rejects_out_of_range(self, family, small_potential, rng):
        with pytest.raises(ValueError):
            estimate_holder(phi_evaluator(small_potential, family),
                            scales=(2 ** -2,), pairs_per_scale=3, rng=rng)
