import math

import numpy as np
import pytest

from skewtherm import (
    BasePoint,
    HypothesisConstants,
    HypothesisViolatedError,
    MpFamily,
    branch_boundary,
    estimate_constants,
    fiber_forward,
    fiber_inverse_branches,
    preimage_tree,
)
from skewtherm.errors import CapacityExhaustedError, NoConvergenceError
from skewtherm.fibers import (
    _LATTICE,
    _SCALAR_POWERS,
    _grid_preimage_tables,
    _lattice_start,
    _PreimageTables,
    _split_points,
    branch_boundary_for_exponent,
    grid_preimages,
    inverse_branches_for_exponent,
)

from oracles import (
    branch_boundary_bisect,
    branch_boundary_scalar,
    chord_tables,
    exponent_scalar,
    inverse_branches_bisect,
    inverse_branches_scalar,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # root of c + c^2 = 1


def family_with_p(p):
    # p1 = 0 makes the exponent x-independent
    return MpFamily(p0=p, p1=0.0)


class TestForwardMap:
    def test_neutral_fixed_point(self, family, rng):
        for _ in range(10):
            x = BasePoint.random(rng, 16)
            assert fiber_forward(family, x, 0.0) == 0.0

    def test_p1_midpoint(self):
        fam = family_with_p(1.0)
        assert fiber_forward(fam, 0.0, 0.5) == pytest.approx(0.75)

    def test_wraps_past_one(self):
        fam = family_with_p(1.0)
        # 0.7 + 0.49 = 1.19 -> 0.19
        assert fiber_forward(fam, 0.0, 0.7) == pytest.approx(0.19)

    def test_derivative_exceeds_one_off_zero(self, family, rng):
        # g' = 1 + (p+1) y^p > 1 for y > 0
        for _ in range(50):
            x = float(rng.uniform(0, 1))
            y = float(rng.uniform(1e-6, 1))
            p = family.exponent(x)
            assert 1.0 + (p + 1.0) * y ** p > 1.0


class TestExponent:
    """p(x) of a float array, elementwise, against p(x) of one point."""

    @pytest.mark.parametrize("xs", [
        np.random.default_rng(31).uniform(0.0, 1.0, 5000),
        np.arange(1024) / 1024,
        np.arange(1, 4096, 2) / 8192,
    ], ids=["random", "grid", "half-grid"])
    def test_array_equals_one_point_at_a_time(self, family, xs):
        ps = family.exponent(xs)
        assert ps.tolist() == [family.exponent(x) for x in xs.tolist()]
        assert ps.tolist() == [exponent_scalar(family, x) for x in xs.tolist()]

    def test_zero_is_p0_exactly(self, family):
        assert family.p0 in _SCALAR_POWERS
        assert family.exponent(np.zeros(3)).tolist() == [family.p0] * 3
        zero = BasePoint.from_fraction(0, 1, 8)
        assert family.exponent(0.0) == family.exponent(zero) == family.p0

    def test_grid_preimages_take_points_floats_or_an_array(self, family, rng):
        points = [BasePoint.random(rng, 16) for _ in range(70)]
        points += [BasePoint.from_fraction(0, 1, 16), points[3]]
        floats = [float(x) for x in points]
        want = grid_preimages(family, points, 32)
        before = _grid_preimage_tables.cache_info()
        for xs in (floats, np.array(floats)):
            for got, ys in zip(grid_preimages(family, xs, 32), want):
                assert np.array_equal(got, ys)
        # the same exponents: x = 0's lattice exponent p0 and the repeat of
        # points[3] are hits, each of the other 70 points a miss again
        info = _grid_preimage_tables.cache_info()
        assert info.hits - before.hits == 2 * 2
        assert info.misses - before.misses == 2 * 70


class TestBranchBoundary:
    def test_golden_ratio_for_p1(self):
        assert branch_boundary(family_with_p(1.0), 0.0) == pytest.approx(
            GOLDEN, abs=1e-12)

    def test_monotone_in_p(self):
        # bisection oracle: c(p) increases toward 1
        assert branch_boundary_for_exponent(8.0) > branch_boundary_for_exponent(1.0)

    def test_defining_equation(self, family, rng):
        for _ in range(10):
            x = float(rng.uniform(0, 1))
            c = branch_boundary(family, x)
            p = family.exponent(x)
            assert c + c ** (p + 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_boundary_maps_to_zero(self):
        fam = family_with_p(1.0)
        c = branch_boundary(fam, 0.0)
        assert fiber_forward(fam, 0.0, c) == pytest.approx(0.0, abs=1e-11)


class TestInverseBranches:
    def test_p1_t0_closed_form(self):
        y1, y2 = fiber_inverse_branches(family_with_p(1.0), 0.0, 0.0)
        assert y1 == pytest.approx(0.0, abs=1e-12)
        assert y2 == pytest.approx(GOLDEN, abs=1e-12)

    def test_p1_t075_quadratic_formula(self):
        y1, y2 = fiber_inverse_branches(family_with_p(1.0), 0.0, 0.75)
        assert y1 == pytest.approx(0.5, abs=1e-12)
        assert y2 == pytest.approx((-1.0 + math.sqrt(8.0)) / 2.0, abs=1e-12)

    def test_inverse_property(self, family, rng):
        for _ in range(30):
            x = BasePoint.random(rng, 4)
            t = float(rng.uniform(0, 1))
            for y in fiber_inverse_branches(family, x, t):
                assert fiber_forward(family, x, y) == pytest.approx(
                    t, abs=10 * 1e-13)

    def test_branches_ordered(self, family, rng):
        for _ in range(30):
            x = float(rng.uniform(0, 1))
            t = float(rng.uniform(0, 1))
            y1, y2 = fiber_inverse_branches(family, x, t)
            c = branch_boundary(family, x)
            assert y1 < c <= y2 + 1e-12 or (t < 1e-12 and y2 == pytest.approx(c))

    def test_vectorized_matches_scalar(self, family):
        t = np.linspace(0, 0.99, 7)
        y1v, y2v = fiber_inverse_branches(family, 0.3, t)
        for i, tv in enumerate(t):
            y1s, y2s = fiber_inverse_branches(family, 0.3, float(tv))
            assert y1v[i] == pytest.approx(y1s, abs=1e-14)
            assert y2v[i] == pytest.approx(y2s, abs=1e-14)


# exponents from the near-linear p -> 0 limit to a steep p = 50, plus seeded
# draws from the default family's range [p0, p0 + p1] = [0.5, 1]
SWEEP_P = [1e-6, 0.05, 0.5, 1.0, 8.0, 50.0] + [
    float(p) for p in np.random.default_rng(4471).uniform(0.5, 1.0, size=20)]


class TestNewtonAgainstBisection:
    """The Newton preimage solve against the bisection solver it replaced."""

    @pytest.mark.parametrize("p", SWEEP_P)
    def test_grid_branches_match_oracle(self, p):
        for n in (16, 512, 1024):
            t = np.arange(n) / n
            y1, y2 = inverse_branches_for_exponent(p, t)
            o1, o2 = inverse_branches_bisect(p, t)
            np.testing.assert_allclose(y1, o1, rtol=0, atol=1e-15)
            np.testing.assert_allclose(y2, o2, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("p", SWEEP_P)
    def test_scalar_t_and_split_point_match_oracle(self, p, rng):
        assert branch_boundary_for_exponent(p) == pytest.approx(
            branch_boundary_bisect(p), abs=1e-15)
        for t in rng.uniform(0.0, 1.0, size=5):
            y1, y2 = inverse_branches_for_exponent(p, float(t))
            o1, o2 = inverse_branches_bisect(p, float(t))
            assert y1 == pytest.approx(o1[0], abs=1e-15)
            assert y2 == pytest.approx(o2[0], abs=1e-15)

    def test_array_p_matches_oracle(self, family, rng):
        p = rng.uniform(family.p0, family.p0 + family.p1, size=4096)
        t = rng.uniform(0.0, 1.0, size=4096)
        y1, y2 = inverse_branches_for_exponent(p, t)
        o1, o2 = inverse_branches_bisect(p, t)
        np.testing.assert_allclose(y1, o1, rtol=0, atol=1e-15)
        np.testing.assert_allclose(y2, o2, rtol=0, atol=1e-15)
        c = branch_boundary_for_exponent(p)
        assert np.all(c + c ** (p + 1.0) >= 1.0)

    @pytest.mark.parametrize("p", SWEEP_P)
    def test_split_point_maps_right_of_one(self, p):
        # c + c^(p+1) >= 1 in floating point, and no expanding preimage
        # falls left of c except the wrap point, stored as exactly 0
        c = branch_boundary_for_exponent(p)
        assert c + c ** (p + 1.0) >= 1.0
        for n in (16, 512, 1024):
            _, y2 = inverse_branches_for_exponent(p, np.arange(n) / n)
            assert np.all((y2 >= c) | (y2 == 0.0))

    @pytest.mark.parametrize("p", [1e-6, 200.0])
    def test_edge_targets_converge_without_float_fault(self, p):
        # 2^-1074 is the smallest subnormal: its ulp is the target itself
        t = np.array([0.0, 2.0 ** -1074, 2.0 ** -52, 1.0 - 2.0 ** -53])
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            ys = inverse_branches_for_exponent(p, t)
            ys += tuple(y for tv in t for y in inverse_branches_for_exponent(p, float(tv)))
        assert all(np.all(np.asarray(y) >= 0.0) for y in ys)

    def test_iteration_cap_raises(self, monkeypatch):
        # a solve that has not converged by the cap raises, never loops on
        monkeypatch.setattr("skewtherm.fibers._NEWTON_CAP", 1)
        with pytest.raises(NoConvergenceError):
            inverse_branches_for_exponent(0.7, np.arange(16) / 16)

    def test_cached_table_holds_two_rows(self):
        # a kept (lattice) table keeps exactly 2n doubles alive, counted at
        # the arrays that own the memory of y1 and y2
        n = 512
        owners = {}
        for y in _grid_preimage_tables.rows([40 / 64], n)[0]:
            while y.base is not None:
                y = y.base
            owners[id(y)] = y.nbytes
        assert sum(owners.values()) == 2 * n * 8


class TestStackedPreimageSolve:
    """Preimage tables solved many exponents to a stack, against the solve
    of one exponent at a time that they replaced."""

    def test_split_points_match_scalar_solve(self, family):
        # 5000 exponents, each its own row: every split point equals the 0-d
        # solve bit for bit and keeps c + c^(p+1) >= 1 in scalar arithmetic
        rng = np.random.default_rng(5000)
        ps = rng.uniform(family.p0, family.p0 + family.p1, size=5000)
        cs = _split_points(ps[:, None])[:, 0]
        for p, c in zip(ps.tolist(), cs.tolist()):
            assert c == branch_boundary_scalar(p)
            assert c + c ** (p + 1.0) >= 1.0
        for p in ps[:50].tolist():
            assert branch_boundary_for_exponent(p) == branch_boundary_scalar(p)

    def test_stacked_rows_equal_single_exponent_solves(self, family):
        # exponents numpy raises to by sqrt or square sit among the others;
        # each table of the stack equals the one its exponent gets alone,
        # and a chord-started (lattice) one the one-exponent chord solve
        rng = np.random.default_rng(77)
        ps = [*rng.uniform(family.p0, family.p0 + family.p1, size=150), 0.5,
              1.0, 2.0, 0.75]
        t = np.arange(512) / 512
        tables = _PreimageTables().rows(ps, 512)
        for p, table in zip(ps, tables):
            (alone,) = _PreimageTables().rows([p], 512)
            assert np.array_equal(table, alone)
        for p, table in zip(ps[150:], tables[150:]):
            assert np.array_equal(table, np.stack(inverse_branches_scalar(p, t)))
            assert np.array_equal(table,
                                  np.stack(inverse_branches_for_exponent(p, t)))

    def test_repeats_in_a_block_count_as_hits(self):
        cache = _PreimageTables()
        tables = cache.rows([0.6, 0.7, 0.6, 0.6], 16)
        assert tables[0] is tables[2] is tables[3]
        info = cache.cache_info()
        assert (info.hits, info.misses) == (2, 2)
        # off the lattice, an exponent is solved again on the next request
        cache.rows([0.7], 16)
        assert cache.cache_info() == (2, 3)


# lattice exponents k / 64 from 2 / 64 (the first with positive neighbours)
# past the default family's range, and the sweep's steep ones
LATTICE_P = [k / 64 for k in range(2, 70)] + [8.0, 50.0]


class TestLatticeStarts:
    """Tables started from the cubic through their lattice neighbours'
    tables, against the chord-started solve they replaced (the oracle
    ``chord_tables``) and against bisection."""

    @pytest.mark.parametrize("p", SWEEP_P)
    def test_tables_match_bisection_and_chord_solve(self, p):
        for n in (16, 512, 1024):
            (table,) = _PreimageTables().rows([p], n)
            np.testing.assert_allclose(
                table, np.stack(inverse_branches_bisect(p, np.arange(n) / n)),
                rtol=0, atol=1e-15)
            (chord,) = chord_tables([p], n)
            assert np.all(np.abs(table - chord) <= 2 * np.spacing(chord))

    def test_lattice_exponents_equal_chord_solve(self):
        for n in (16, 512):
            tables = _PreimageTables().rows(LATTICE_P, n)
            for table, chord in zip(tables, chord_tables(LATTICE_P, n)):
                assert np.array_equal(table, chord)

    def test_start_needs_positive_lattice_neighbours(self):
        assert _lattice_start(1e-6) is None
        assert _lattice_start(1.4 / 64) is None  # neighbour 0 / 64
        assert all(_lattice_start(p) is None for p in LATTICE_P)
        nodes, weights = _lattice_start(0.6)
        assert nodes == (37 / 64, 38 / 64, 39 / 64, 40 / 64)
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-15)

    def test_table_independent_of_cache_stack_and_order(self, family):
        rng = np.random.default_rng(2024)
        ps = [*rng.uniform(family.p0, family.p0 + family.p1, size=40),
              0.5, 2.0, 0.75, 1e-6, 0.05, 37.3]
        alone = [_PreimageTables().rows([p], 512)[0] for p in ps]
        warm = _PreimageTables()
        warm.rows(LATTICE_P, 512)
        order = rng.permutation(len(ps))
        for cache, block in ((_PreimageTables(), ps), (warm, ps),
                             (warm, ps),
                             (_PreimageTables(), [ps[i] for i in order])):
            for p, table in zip(block, cache.rows(block, 512)):
                assert np.array_equal(table, alone[ps.index(p)])

    def test_store_holds_the_lattice_tables_of_the_starts(self, family):
        # 600 exponents off the lattice at 512 nodes: only the lattice
        # tables their starts came from stay, each owning its 2n doubles
        n = 512
        ps = np.random.default_rng(600).uniform(
            family.p0, family.p0 + family.p1, size=600)
        assert not any((p * _LATTICE).is_integer() for p in ps)
        used = {q for p in ps for q in _lattice_start(p)[0]}
        assert len(used) == 35
        cache = _PreimageTables()
        cache.rows(ps, n)
        assert set(cache._tables) == {(q, n) for q in used}
        tables = list(cache._tables.values())
        assert sum(table.nbytes for table in tables) == 35 * 2 * n * 8
        for table in tables:
            assert table.flags.owndata and not table.flags.writeable
            assert table.shape == (2, n)
        assert cache.cache_info() == (0, 600)
        cache.cache_clear()
        assert cache._tables == {} and cache.cache_info() == (0, 0)

    def test_lattice_exponent_is_a_hit_after_off_lattice_requests(self, family):
        cache = _PreimageTables()
        rng = np.random.default_rng(9)
        (first,) = cache.rows([40 / 64], 16)
        assert cache.cache_info() == (0, 1)
        for size in (1, 7, 64):
            cache.rows(rng.uniform(family.p0, family.p0 + family.p1, size), 16)
            (table,) = cache.rows([40 / 64], 16)
            assert table is first
        assert cache.cache_info() == (3, 1 + 1 + 7 + 64)
        # a lattice neighbour solved for a start is a hit when asked for
        cache.rows([0.6], 16)
        hits = cache.cache_info().hits
        cache.rows([37 / 64], 16)
        assert cache.cache_info().hits == hits + 1

    def test_off_lattice_exponent_is_a_miss_on_every_request(self):
        cache = _PreimageTables()
        want = cache.rows([0.6], 16)[0]
        for k in range(1, 4):
            (table,) = cache.rows([0.6], 16)
            assert np.array_equal(table, want) and not table.flags.writeable
            assert cache.cache_info() == (0, 1 + k)
        assert (0.6, 16) not in cache._tables

    def test_lattice_starts_converge_in_three_steps(self, family, monkeypatch):
        cache = _PreimageTables()
        cache.rows(LATTICE_P, 512)
        monkeypatch.setattr("skewtherm.fibers._NEWTON_CAP", 3)
        ps = np.random.default_rng(3).uniform(family.p0, family.p0 + family.p1,
                                              size=2000)
        assert len(cache.rows(ps, 512)) == 2000
        assert cache.cache_info().misses == len(LATTICE_P) + 2000

    @pytest.mark.parametrize("p", SWEEP_P)
    def test_expanding_branch_stays_right_of_split_point(self, p):
        # off the wrap point 0, branch 2 starts at the split point the solve
        # reads off at t = 0: it keeps c + c^(p+1) >= 1 and is within an ulp
        # of branch_boundary_for_exponent's, and every other node lies
        # right of both
        c = branch_boundary_for_exponent(p)
        for n in (16, 512, 1024):
            (table,) = _PreimageTables().rows([p], n)
            y2 = table[1]
            assert y2[0] + y2[0] ** (p + 1.0) >= 1.0
            assert abs(y2[0] - c) <= np.spacing(c)
            assert np.all((y2 >= y2[0]) | (y2 == 0.0))
            assert np.all((y2[1:] >= c) | (y2[1:] == 0.0))

    def test_no_float_fault(self):
        with np.errstate(all="raise"):
            for n in (16, 512, 1024):
                _PreimageTables().rows(SWEEP_P + LATTICE_P, n)


class TestPreimageTrees:
    def test_trees_coincide_for_equal_points(self, family, rng):
        x = BasePoint.random(rng, 8)
        t1, t2 = (preimage_tree(family, x, 0.3, 2) for _ in range(2))
        for a, b in zip(t1, t2):
            np.testing.assert_array_equal(a, b)

    def test_leaf_count(self, family, rng):
        x = BasePoint.random(rng, 8)
        levels = preimage_tree(family, x, 0.25, 3)
        assert [len(lv) for lv in levels] == [8, 4, 2, 1]

    def test_leaves_are_preimages(self, family, rng):
        n = 4
        x = BasePoint.random(rng, 8)
        y = 0.37
        levels = preimage_tree(family, x, y, n)
        for leaf in levels[0]:
            cur = leaf
            for k in range(n):
                cur = fiber_forward(family, x.forward(k), cur)
            assert cur == pytest.approx(y, abs=1e-9)

    def test_level_consistency(self, family, rng):
        # levels[k][idx >> k] is the k-step forward image of leaf idx
        n = 5
        x = BasePoint.random(rng, 8)
        levels = preimage_tree(family, x, 0.61, n)
        for idx in range(2 ** n):
            cur = levels[0][idx]
            for k in range(1, n + 1):
                cur = fiber_forward(family, x.forward(k - 1), cur)
                assert cur == pytest.approx(levels[k][idx >> k], abs=1e-9)

    def test_expanding_word_contracts(self, family, rng):
        # the all-expanding word (2,2,...,2) is the last index; paired leaves
        # should be closer than the anchor separation scaled by the sampled
        # gamma, up to root-finding slack
        n = 6
        x = BasePoint.random(rng, 12)
        x2 = x.add_dyadic(1, 12)
        consts = estimate_constants(family, 1.0, 0.04, 0.995, 0.05, 2000,
                                    rng=np.random.default_rng(7))
        t1, t2 = (preimage_tree(family, p, 0.5, n) for p in (x, x2))
        from skewtherm import circle_distance
        d_base = circle_distance(float(x.forward(n)), float(x2.forward(n)))
        idx = 2 ** n - 1
        leaf_gap = abs(t1[0][idx] - t2[0][idx])
        assert leaf_gap <= consts.gamma ** (-n) * d_base + n * 1e-13 * 10

    def test_capacity_guard(self, family, rng):
        x = BasePoint.random(rng, 3)
        with pytest.raises(CapacityExhaustedError):
            preimage_tree(family, x, 0.5, 5)

    def test_one_step_pairing_lemma_bounds(self, family, rng):
        # paired one-step preimages: branch 2 contracts by the sampled
        # expansion factor, branch 1 by at most the neutral bound
        from skewtherm import circle_distance
        consts = estimate_constants(family, 1.0, 0.04, 0.995, 0.05, 5000,
                                    rng=np.random.default_rng(3))
        delta = 1e-4
        for _ in range(100):
            x = float(rng.uniform(0, 1))
            x2 = (x + delta) % 1.0
            y = float(rng.uniform(0, 1)) * (1.0 - delta)
            y2 = y + delta
            d_img = circle_distance((2 * x) % 1, (2 * x2) % 1) + circle_distance(y, y2)
            b = fiber_inverse_branches(family, x, y)
            b2 = fiber_inverse_branches(family, x2, y2)
            slack = 20 * 1e-13
            d_pre1 = circle_distance(x, x2) + circle_distance(b[0], b2[0])
            d_pre2 = circle_distance(x, x2) + circle_distance(b[1], b2[1])
            assert d_pre1 <= consts.L * d_img + slack
            assert d_pre2 <= d_img / consts.gamma + slack


class TestConstants:
    def test_s_formula_example(self):
        c = HypothesisConstants(d=2, dhat=2, q=1, gamma=1.2, L=1.05,
                                alpha=1.0, eps_phi=0.01, iota=0.9, eps=0.05)
        assert c.s == pytest.approx(
            math.exp(0.01) * (1.2 ** -1 + 1.05) / 2, abs=1e-9)
        assert c.s == pytest.approx(0.95113, abs=5e-5)
        assert c.s < 1

    def test_theta_formula_example(self):
        c = HypothesisConstants(d=2, dhat=2, q=1, gamma=1.2, L=1.0,
                                alpha=1.0, eps_phi=0.01, iota=0.9, eps=0.05)
        assert c.theta == pytest.approx(math.exp(0.05) * math.exp(0.01) / 2, abs=1e-12)
        assert c.theta == pytest.approx(0.5309, abs=5e-5)

    def test_autonomous_family_L_close_to_one(self, rng):
        # calculus oracle: with p constant the fiber inverse derivative is
        # 1/(1 + (p+1) y^p) <= 1, so the sampled L is the floor value 1
        fam = family_with_p(0.8)
        c = estimate_constants(fam, 1.0, 0.04, 0.995, 0.05, 5000, rng=rng)
        assert c.L == pytest.approx(1.0, abs=1e-6)

    def test_gamma_above_one(self, family, rng):
        c = estimate_constants(family, 1.0, 0.04, 0.995, 0.05, 5000, rng=rng)
        assert c.gamma > 1.0

    def test_checks_pass_at_defaults(self, family, rng):
        c = estimate_constants(family, 1.0, 0.04, 0.995, 0.05, 5000, rng=rng)
        assert c.all_pass(), c.first_failure()
        assert c.c > 0

    def test_violation_raises_with_name(self, family, rng):
        # eps_phi far too large: s >= 1
        with pytest.raises(HypothesisViolatedError) as exc:
            estimate_constants(family, 1.0, 0.5, 0.995, 0.05, 2000, rng=rng)
        assert "s < 1" in str(exc.value)

    def test_exploratory_mode_returns(self, family, rng):
        c = estimate_constants(family, 1.0, 0.5, 0.995, 0.05, 2000, rng=rng,
                               exploratory=True)
        assert not c.all_pass()

    def test_sample_floor(self, family, rng):
        with pytest.raises(ValueError):
            estimate_constants(family, 1.0, 0.04, 0.995, 0.05, 10, rng=rng)

    def test_derived_c_is_log_midpoint(self):
        c = HypothesisConstants(d=2, dhat=2, q=1, gamma=1.3, L=1.01,
                                alpha=1.0, eps_phi=0.02, iota=0.9, eps=0.05)
        avg = 1.3 ** -0.1 * 1.01 ** 0.9
        assert math.exp(-2 * c.c) == pytest.approx(math.sqrt(avg), rel=1e-12)


class TestFamilyValidation:
    def test_neutral_band_must_fit(self):
        with pytest.raises(ValueError):
            MpFamily(p0=0.5, p1=0.5, delta_a=0.9)

    def test_positive_p0(self):
        with pytest.raises(ValueError):
            MpFamily(p0=0.0)

    def test_json_round_trip(self, family):
        assert MpFamily.from_json(family.to_json()) == family
