import math
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import (
    BincountStencil,
    UnblockedTorusStencil,
    base_stencil_reference,
    fiber_stencil_reference,
    fiber_step_reference,
    fiber_weights_one_block,
    full_operator_column_reference,
    full_stencil_reference,
    full_stencil_transposed,
    iterate_cascade,
    pointwise,
    power_iterate_reference,
    power_residual_reference,
    torus_fiber_reference,
)
from skewtherm import (
    BasePoint,
    GridFn,
    GridFn2D,
    MpFamily,
    NonpositiveFunctionError,
    TrigPotential,
    apply_base_operator,
    apply_fiber_operator,
    apply_full_operator,
    fiber_inverse_branches,
)
from skewtherm import operators
from skewtherm.errors import CapacityExhaustedError, NoConvergenceError
from skewtherm.fibers import _grid_preimage_tables
from skewtherm.gridfn import interp_nodes, pair_log
from skewtherm.operators import (
    _base_stencil_geometry,
    _check_positive,
    _full_stencil,
    _power_iterate,
    _Stencil,
    _steady_ratio,
    base_preimage_points,
    base_stencil,
    fiber_stencil,
    fiber_stencils,
    fiber_weights,
)
from skewtherm.phi import anchor_weights


def total_values(g):
    return np.exp(g.log_offset) * g.values


class TestGridFn:
    def test_renormalize_invariant(self, rng):
        g = GridFn(rng.uniform(0.5, 3.0, 64))
        g.renormalize()
        assert np.max(np.abs(g.values)) == pytest.approx(1.0)

    def test_interp_at_nodes(self):
        g = GridFn(np.arange(16, dtype=float))
        assert g.interp(3 / 16) == 3.0

    def test_interp_midpoint(self):
        g = GridFn(np.arange(16, dtype=float))
        assert g.interp(2.5 / 16) == pytest.approx(2.5)

    def test_interp_wraps(self):
        g = GridFn(np.arange(16, dtype=float))
        assert g.interp(15.5 / 16) == pytest.approx((15.0 + 0.0) / 2)

    def test_interp_nodes_match_the_float_remainder(self, rng):
        # the cell and weights equal those of t % 1.0, bit for bit, over
        # wide, tiny, negative and edge values of t
        t = np.concatenate([
            rng.uniform(-5.0, 5.0, 20000), -rng.uniform(0.0, 1e-15, 2000),
            np.ldexp(rng.uniform(-1.0, 1.0, 20000),
                     rng.integers(-1074, 1000, 20000)),
            [0.0, -0.0, 1.0, -1.0, 1.0 - 2.0 ** -53, -(1.0 - 2.0 ** -53),
             2.0 ** 53, 2.0 ** -1074, -2.0 ** -1074, 1e308, -1e308]])
        for n in (16, 512):
            s = (t % 1.0) * n
            cell = np.floor(s)
            j = cell.astype(np.intp) % n
            (j0, j1), (w0, w1) = interp_nodes(t, n)
            assert np.array_equal(j0, j) and np.array_equal(j1, (j + 1) % n)
            assert np.array_equal(w1, s - cell)
            assert np.array_equal(w0, 1.0 - (s - cell))

    def test_pair_delta_reads_the_interpolant(self, rng):
        # the log pairing with the delta anchor's weights gives the log of
        # the interpolated value, bit for bit
        g = GridFn(rng.uniform(0.2, 2.0, 512), log_offset=0.7)
        ys = np.concatenate([rng.uniform(-2.0, 2.0, 200),
                             [0.0, 0.5, 1.0 - 2.0 ** -53, -1e-17]])
        for y in ys:
            want = g.log_offset + math.log(g.interp(y))
            weights = anchor_weights("delta", y, 512)
            assert pair_log(weights, g.values, g.log_offset) == want

    def test_pair_delta_needs_a_positive_value(self):
        g = GridFn(np.linspace(-1.0, 1.0, 16))
        for y in (0.0, 0.25):
            with pytest.raises(NonpositiveFunctionError,
                               match="positive value at the anchor"):
                pair_log(anchor_weights("delta", y, 16), g.values)

    def test_interp_nodes_needs_a_power_of_two(self):
        with pytest.raises(ValueError):
            interp_nodes(0.5, 48)

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            GridFn(np.ones(8))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            GridFn(np.ones(48))

    def test_2d_slice(self):
        f = GridFn2D.from_callable(lambda x, y: x + 0 * y, 32, 16)
        row = f.slice_at(5 / 32)
        assert row.values == pytest.approx(np.full(16, 5 / 32))


class TestFiberOperator:
    def test_zero_potential_counts_branches(self, family, zero_potential, rng):
        x = BasePoint.random(rng, 4)
        out = apply_fiber_operator(zero_potential, family, x, GridFn.ones(64))
        assert total_values(out) == pytest.approx(np.full(64, 2.0))
        assert out.log_offset == pytest.approx(math.log(2.0))

    def test_constant_potential(self, family, rng):
        pot = TrigPotential.constant_potential(0.3)
        x = BasePoint.random(rng, 4)
        out = apply_fiber_operator(pot, family, x, GridFn.ones(64))
        assert total_values(out) == pytest.approx(np.full(64, 2.0 * math.exp(0.3)))

    def test_two_branch_hand_evaluation(self):
        # output at y=0 is a sum over the two quadratic-root preimages
        fam = MpFamily(p0=1.0, p1=0.0)
        pot = TrigPotential(terms=((0, 1, 0.01),))
        x = BasePoint.from_float(0.0, 4)
        out = apply_fiber_operator(pot, fam, x, GridFn.ones(128))
        golden = (math.sqrt(5) - 1) / 2
        expected = math.exp(0.01 * math.cos(0.0)) + math.exp(
            0.01 * math.cos(2 * math.pi * golden))
        assert total_values(out)[0] == pytest.approx(expected, abs=1e-10)

    def test_positivity_preserved(self, family, small_potential, rng):
        x = BasePoint.random(rng, 4)
        psi = GridFn(rng.uniform(0.2, 2.0, 64))
        out = apply_fiber_operator(small_potential, family, x, psi)
        assert np.all(out.values > 0)

    def test_monotonicity(self, family, small_potential, rng):
        x = BasePoint.random(rng, 4)
        lo = rng.uniform(0.2, 1.0, 64)
        hi = lo + rng.uniform(0.0, 1.0, 64)
        out_lo = apply_fiber_operator(small_potential, family, x, GridFn(lo))
        out_hi = apply_fiber_operator(small_potential, family, x, GridFn(hi))
        assert np.all(total_values(out_hi) >= total_values(out_lo) - 1e-12)

    def test_nodewise_duality_against_branch_sum(self, family, small_potential, rng):
        # value at a node equals the direct branch-sum formula with no
        # interpolation at the evaluation point
        x = BasePoint.random(rng, 4)
        psi = GridFn(rng.uniform(0.5, 1.5, 64))
        out = apply_fiber_operator(small_potential, family, x, psi)
        j = 17
        t = j / 64
        y1, y2 = fiber_inverse_branches(family, x, t)
        direct = (math.exp(small_potential(x, y1)) * psi.interp(y1)
                  + math.exp(small_potential(x, y2)) * psi.interp(y2))
        assert total_values(out)[j] == pytest.approx(direct, rel=1e-12)

    def test_positive_required(self):
        # the cone check of image_diameter; a fiber step itself takes any psi
        bad = GridFn(np.linspace(-0.5, 1.0, 64))
        with pytest.raises(NonpositiveFunctionError):
            _check_positive(bad)
        _check_positive(GridFn(np.linspace(0.5, 1.0, 64)))


class TestAgainstReferencePaths:
    """The shared transfer-weight builder against the branch-sum paths."""

    @pytest.mark.parametrize("n", [16, 64, 512])
    def test_fiber_step(self, family, rng, n):
        pot = TrigPotential(terms=((0, 1, 0.02), (1, 1, 0.015), (3, -2, 0.01)),
                            constant=0.1)
        for _ in range(5):
            x = BasePoint.random(rng, 60)
            psi = GridFn(rng.uniform(0.2, 2.0, n), log_offset=0.3)
            out = apply_fiber_operator(pot, family, x, psi)
            np.testing.assert_allclose(
                total_values(out), fiber_step_reference(pot, family, x, psi),
                rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("n", [16, 512])
    def test_fiber_adjoint_is_transpose(self, family, rng, n):
        # <L_x^T u, v> = <u, L_x v>: the scatter is the gather's transpose
        pot = TrigPotential(terms=((0, 1, 0.02), (1, 1, 0.015), (3, -2, 0.01)),
                            constant=0.1)
        for _ in range(5):
            stencil = fiber_stencil(pot, family, BasePoint.random(rng, 60), n)
            u = rng.uniform(0.2, 2.0, n)
            v = rng.uniform(0.2, 2.0, n)
            assert np.dot(stencil.apply_adjoint(u), v) == pytest.approx(
                np.dot(u, stencil.apply(v)), rel=1e-13)


class TestBlockStencils:
    """Fiber stencils built a block of orbit points at a time, against one
    point at a time."""

    @pytest.mark.parametrize("n", [16, 512])
    def test_block_equals_single_points_along_orbits(self, family, rng, n):
        # cold caches on both sides, so the block solves its misses stacked
        pot = TrigPotential(terms=((0, 1, 0.002), (1, 1, 0.0015)))
        for _ in range(4):
            x = BasePoint.random(rng, 60)
            orbit = [x.forward(k) for k in range(24)] + [x]
            _grid_preimage_tables.cache_clear()
            block = fiber_stencils(pot, family, orbit, n)
            _grid_preimage_tables.cache_clear()
            for z, got in zip(orbit, block):
                want = fiber_stencil(pot, family, z, n)
                assert np.array_equal(got.idx, want.idx)
                assert np.array_equal(got.wgt, want.wgt)
        _grid_preimage_tables.cache_clear()

    @pytest.mark.parametrize("count", [1, 63, 64, 65, 130, 512])
    def test_blocks_equal_one_block(self, family, rng, count):
        # fiber_weights builds 64 points at a time; the first point is 0,
        # whose exponent p0 = 0.5 the preimage solve takes alone
        pot = TrigPotential(terms=((0, 1, 0.002), (1, 1, 0.0015)))
        xs = [BasePoint(0, 60)] + [BasePoint.random(rng, 60)
                                   for _ in range(count - 1)]
        _grid_preimage_tables.cache_clear()
        got = fiber_weights(pot, family, xs, 64)
        _grid_preimage_tables.cache_clear()
        want = fiber_weights_one_block(pot, family, xs, 64)
        _grid_preimage_tables.cache_clear()
        for a, b in zip(got, want):
            assert a.shape == (count, 4, 64) and a.flags.c_contiguous
            assert np.array_equal(a, b)

    def test_torus_rows_are_blocks_too(self, family):
        # the 512 half-grid rows of the 256 x 256 torus operator: built as
        # one block, the build's tracemalloc peak was 23.6 MB, 64 rows at a
        # time it is 18.4 MB, with the same arrays
        pot = TrigPotential(terms=((0, 1, 0.002), (1, 1, 0.0015)))
        _grid_preimage_tables.cache_clear()
        tracemalloc.start()
        try:
            stencil = _full_stencil.__wrapped__(pot, family, 256, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _grid_preimage_tables.cache_clear()
        idx, wgt = fiber_weights_one_block(pot, family,
                                           np.arange(512) / 512, 256)
        _grid_preimage_tables.cache_clear()
        idx += (np.arange(512) * 256)[:, None, None]
        for got, want in ((stencil.idx, idx), (stencil.wgt, wgt)):
            want = want.reshape(2, 256, 4, 256).transpose(0, 2, 1, 3)
            assert np.array_equal(got, want.reshape(8, 256 * 256))
        assert peak <= 20e6

    def test_empty_block_and_spent_capacity(self, family, small_potential):
        assert fiber_stencils(small_potential, family, [], 64) == []
        with pytest.raises(CapacityExhaustedError):
            fiber_stencils(small_potential, family,
                           [BasePoint.from_bits("01"), BasePoint(0, 0)], 64)


class TestCascade:
    def test_zero_potential_log_growth(self, family, zero_potential, rng):
        x = BasePoint.random(rng, 10)
        out = iterate_cascade(zero_potential, family, x, GridFn.ones(64), 5)
        assert out.log_offset == pytest.approx(5 * math.log(2.0))
        assert out.values == pytest.approx(np.ones(64))

    def test_depth_zero_is_identity(self, family, small_potential, rng):
        x = BasePoint.random(rng, 4)
        psi = GridFn(rng.uniform(0.5, 1.5, 64))
        out = iterate_cascade(small_potential, family, x, psi, 0)
        assert out.values == pytest.approx(psi.values)

    def test_composition(self, family, small_potential, rng):
        # both routes to depth n+m agree up to interpolation noise
        x = BasePoint.random(rng, 20)
        n, m = 3, 4
        one_shot = iterate_cascade(small_potential, family, x, GridFn.ones(256), n + m)
        staged = iterate_cascade(small_potential, family, x, GridFn.ones(256), n)
        staged = iterate_cascade(small_potential, family, x.forward(n), staged, m)
        assert staged.log_offset + math.log(np.max(staged.values)) == pytest.approx(
            one_shot.log_offset + math.log(np.max(one_shot.values)), abs=1e-9)
        np.testing.assert_allclose(
            total_values(staged), total_values(one_shot), rtol=1e-8)


class TestFullOperator:
    def test_zero_potential_counts_preimages(self, family, zero_potential):
        out = apply_full_operator(zero_potential, family, GridFn2D.ones(32, 32))
        vals = np.exp(out.log_offset) * out.values
        assert vals == pytest.approx(np.full((32, 32), 4.0))

    def test_constant_potential(self, family):
        pot = TrigPotential.constant_potential(0.25)
        out = apply_full_operator(pot, family, GridFn2D.ones(32, 32))
        vals = np.exp(out.log_offset) * out.values
        assert vals == pytest.approx(np.full((32, 32), 4.0 * math.exp(0.25)))

    def test_linearity(self, family, small_potential, rng):
        a = GridFn2D(rng.uniform(0.5, 1.5, (32, 32)))
        b = GridFn2D(rng.uniform(0.5, 1.5, (32, 32)))
        out_sum = apply_full_operator(small_potential, family,
                                      GridFn2D(a.values + b.values))
        out_a = apply_full_operator(small_potential, family, a)
        out_b = apply_full_operator(small_potential, family, b)
        lhs = np.exp(out_sum.log_offset) * out_sum.values
        rhs = (np.exp(out_a.log_offset) * out_a.values
               + np.exp(out_b.log_offset) * out_b.values)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_nodewise_brute_force_oracle(self, family, small_potential, rng):
        # recompute a handful of output nodes with scalar root finding and
        # direct bilinear reads, independent of the stencil machinery
        big = GridFn2D(rng.uniform(0.5, 1.5, (32, 32)))
        out = apply_full_operator(small_potential, family, big)
        total = np.exp(out.log_offset) * out.values
        for i, j in [(0, 0), (5, 17), (31, 31), (12, 3)]:
            expected = 0.0
            for b in (0, 1):
                xb = (i / 32 + b) / 2.0
                for yb in fiber_inverse_branches(family, xb, j / 32):
                    expected += math.exp(small_potential(xb, yb)) * \
                        big.interp(xb, yb)
            assert total[i, j] == pytest.approx(expected, rel=1e-12)

    def test_column_matches_grid_at_nodes(self, family, small_potential, rng):
        # the exact-column evaluation agrees with the gridded operator at a
        # grid node, since base preimages of nodes are interpolation-exact
        big = GridFn2D(rng.uniform(0.5, 1.5, (32, 64)))
        out = apply_full_operator(small_potential, family, big)
        i = 12
        x = BasePoint.from_fraction(i, 32, 40)
        np.testing.assert_allclose(
            full_operator_column_reference(small_potential, family, x, big),
            np.exp(out.log_offset) * out.values[i], rtol=1e-10)


class TestFactoredFullOperator:
    """The half-grid read followed by fiber stencils, against the 16-column
    bilinear stencil it replaced."""

    POT = TrigPotential(terms=((0, 1, 0.02), (1, 1, 0.015), (3, -2, 0.01)),
                        constant=0.1)
    GRIDS = [(16, 16), (64, 64), (256, 256), (32, 128), (128, 32)]

    @pytest.mark.parametrize("n_x, n_y", GRIDS)
    def test_matches_reference_stencil(self, family, rng, n_x, n_y):
        stencil = _full_stencil(self.POT, family, n_x, n_y)
        ref = full_stencil_reference(self.POT, family, n_x, n_y)
        v = rng.uniform(0.2, 2.0, n_x * n_y)
        u = rng.uniform(0.2, 2.0, n_x * n_y)
        np.testing.assert_allclose(stencil.apply(v), ref.apply(v),
                                   rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(stencil.apply_adjoint(u),
                                   ref.apply_adjoint(u), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("n_x, n_y", [(16, 16), (32, 128), (128, 32)])
    def test_adjoint_is_transpose(self, family, rng, n_x, n_y):
        stencil = _full_stencil(self.POT, family, n_x, n_y)
        for _ in range(3):
            u = rng.uniform(0.2, 2.0, n_x * n_y)
            v = rng.uniform(0.2, 2.0, n_x * n_y)
            assert np.dot(stencil.apply_adjoint(u), v) == pytest.approx(
                np.dot(u, stencil.apply(v)), rel=1e-14)

    @pytest.mark.parametrize("n_x, n_y", [(16, 64), (64, 16)])
    def test_rows_are_exact_columns(self, family, rng, n_x, n_y):
        # row i is the operator's output over the exact point i / n_x
        big = GridFn2D(rng.uniform(0.2, 2.0, (n_x, n_y)), log_offset=0.3)
        out = total_values(apply_full_operator(self.POT, family, big))
        for i in range(n_x):
            col = full_operator_column_reference(
                self.POT, family, BasePoint.from_fraction(i, n_x, 40), big)
            np.testing.assert_allclose(out[i], col, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("n_x, n_y", [(16, 16), (32, 128), (128, 32)])
    def test_half_the_reference_bytes(self, family, n_x, n_y):
        stencil = _full_stencil(self.POT, family, n_x, n_y)
        ref = full_stencil_reference(self.POT, family, n_x, n_y)
        assert 2 * (stencil.idx.nbytes + stencil.wgt.nbytes) == (
            ref.idx.nbytes + ref.wgt.nbytes)


class TestColumnMajorStencils:
    """Every stencil holds (k, N) arrays, output node last, against the
    row-major (N, k) gather and scatter they replaced."""

    POT = TrigPotential(terms=((0, 1, 0.02), (1, 1, 0.015), (3, -2, 0.01)),
                        constant=0.1)

    phi = staticmethod(pointwise(
        lambda p: 0.1 * math.cos(2 * math.pi * float(p)) + 0.05))

    @staticmethod
    def assert_matches(stencil, ref, rng, exact_forward=False):
        for _ in range(3):
            v = rng.uniform(0.2, 2.0, ref.size)
            u = rng.uniform(0.2, 2.0, len(ref.idx))
            if exact_forward:
                assert np.array_equal(stencil.apply(v), ref.apply(v))
            else:
                np.testing.assert_allclose(stencil.apply(v), ref.apply(v),
                                           rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(stencil.apply_adjoint(u),
                                       ref.apply_adjoint(u),
                                       rtol=1e-14, atol=0.0)

    @staticmethod
    def assert_layout(stencil, k, n):
        for a in (stencil.idx, stencil.wgt):
            assert a.shape == (k, n)
            assert a.flags.c_contiguous

    @pytest.mark.parametrize("n", [16, 512])
    def test_fiber_stencil(self, family, rng, n):
        for _ in range(4):
            x = BasePoint.random(rng, 60)
            stencil = fiber_stencil(self.POT, family, x, n)
            self.assert_layout(stencil, 4, n)
            self.assert_matches(stencil,
                                fiber_stencil_reference(self.POT, family, x, n),
                                rng, exact_forward=True)

    @pytest.mark.parametrize("n", [16, 512])
    def test_block_fiber_stencils(self, family, rng, n):
        x = BasePoint.random(rng, 60)
        orbit = [x.forward(k) for k in range(12)]
        for z, stencil in zip(orbit, fiber_stencils(self.POT, family, orbit, n)):
            self.assert_layout(stencil, 4, n)
            self.assert_matches(stencil,
                                fiber_stencil_reference(self.POT, family, z, n),
                                rng, exact_forward=True)

    @pytest.mark.parametrize("n_x, n_y", [(16, 16), (32, 128), (128, 32)])
    def test_torus_stencil(self, family, rng, n_x, n_y):
        stencil = _full_stencil(self.POT, family, n_x, n_y)
        self.assert_layout(stencil, 8, n_x * n_y)
        self.assert_matches(stencil.fiber,
                            torus_fiber_reference(self.POT, family, n_x, n_y),
                            rng)

    @pytest.mark.parametrize("n_x", [16, 64])
    def test_base_stencil(self, rng, n_x):
        stencil = base_stencil(self.phi, n_x, 40)
        self.assert_layout(stencil, 4, n_x)
        self.assert_matches(stencil, base_stencil_reference(self.phi, n_x, 40),
                            rng)

    @pytest.mark.parametrize("n_x", [16, 64])
    def test_base_adjoint_is_transpose(self, rng, n_x):
        # <L^T u, v> = <u, L v>
        stencil = base_stencil(self.phi, n_x, 40)
        for _ in range(5):
            u = rng.uniform(0.2, 2.0, n_x)
            v = rng.uniform(0.2, 2.0, n_x)
            assert np.dot(stencil.apply_adjoint(u), v) == pytest.approx(
                np.dot(u, stencil.apply(v)), rel=1e-14)


class TestCopyFreeStencils:
    """The adjoint scatter through ``np.add.at`` and the torus build into
    its stored arrays, against the ``np.bincount`` scatter and the build
    with a transposed copy that they replaced: the same bits, fewer bytes."""

    POT = TrigPotential(terms=((0, 1, 0.02), (1, 1, 0.015), (3, -2, 0.01)),
                        constant=0.1)

    phi = staticmethod(pointwise(
        lambda p: 0.1 * math.cos(2 * math.pi * float(p)) + 0.05))

    @pytest.mark.parametrize("n_x, n_y",
                             [(16, 16), (32, 128), (128, 32), (256, 256)])
    def test_torus_matches_the_copying_path(self, family, rng, n_x, n_y):
        stencil = _full_stencil(self.POT, family, n_x, n_y)
        ref = full_stencil_transposed(self.POT, family, n_x, n_y)
        assert np.array_equal(stencil.idx, ref.idx)
        assert np.array_equal(stencil.wgt, ref.wgt)
        for _ in range(3):
            v = rng.uniform(0.2, 2.0, n_x * n_y)
            assert np.array_equal(stencil.apply(v), ref.apply(v))
            assert np.array_equal(stencil.apply_adjoint(v),
                                  ref.apply_adjoint(v))

    @pytest.mark.parametrize("n", [16, 512])
    def test_fiber_and_base_adjoints_match_bincount(self, family, rng, n):
        x = BasePoint.random(rng, 60)
        stencils = [*fiber_stencils(self.POT, family,
                                    [x.forward(k) for k in range(6)], n),
                    base_stencil(self.phi, n, 40)]
        for stencil in stencils:
            ref = BincountStencil(stencil.idx, stencil.wgt, stencil.size)
            u = rng.uniform(0.2, 2.0, n)
            assert np.array_equal(stencil.apply_adjoint(u),
                                  ref.apply_adjoint(u))

    def test_stored_arrays_are_read_only(self, family, rng):
        x = BasePoint.random(rng, 60)
        stencils = [_full_stencil(self.POT, family, 16, 32).fiber,
                    fiber_stencil(self.POT, family, x, 64),
                    *fiber_stencils(self.POT, family, [x, x.forward(1)], 64),
                    base_stencil(self.phi, 16, 40)]
        arrays = [a for st in stencils for a in (st.idx, st.wgt)]
        for a in [*arrays, *_base_stencil_geometry(16)]:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0] = a[0, 0]

    def test_torus_adjoint_copies_no_index(self, family, rng):
        # 256 x 256: the index and the weight products hold 4 MB each, the
        # half-grid output 1 MB.  Scattered by np.bincount, which copied
        # the read-only index, one adjoint peaked at 9.0 MB
        stencil = _full_stencil(self.POT, family, 256, 256)
        u = rng.uniform(0.2, 2.0, 256 * 256)
        tracemalloc.start()
        try:
            stencil.apply_adjoint(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.5e6

    def test_torus_build_copies_no_block(self, family):
        # 256 x 256: the stored arrays hold 8 MB.  Built in fiber_weights'
        # layout and copied into (8, N), the build peaked at 17.5 MB
        _grid_preimage_tables.cache_clear()
        tracemalloc.start()
        try:
            _full_stencil.__wrapped__(self.POT, family, 256, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _grid_preimage_tables.cache_clear()
        assert peak <= 12.5e6


class TestRowBlockedTorus:
    """The torus operator applied _BLOCK_POINTS base points at a time,
    against the whole-grid path it replaced: the same bits, bounded
    temporaries."""

    POT = TrigPotential(terms=((0, 1, 0.02), (1, 1, 0.015), (3, -2, 0.01)),
                        constant=0.1)

    # 3 base points: many blocks, and a ragged last one on every grid
    @pytest.mark.parametrize("block", [64, 3])
    @pytest.mark.parametrize("n_x, n_y", [(16, 16), (32, 128), (128, 32),
                                          (256, 256), (512, 512)])
    def test_matches_the_unblocked_path(self, family, rng, monkeypatch,
                                        n_x, n_y, block):
        # built past the lru cache, so that no 512 x 512 stencil stays held
        stencil = _full_stencil.__wrapped__(self.POT, family, n_x, n_y)
        ref = UnblockedTorusStencil(stencil.fiber, n_x, n_y)
        monkeypatch.setattr(operators, "_BLOCK_POINTS", block)
        for _ in range(2):
            v = rng.uniform(0.2, 2.0, n_x * n_y)
            assert np.array_equal(stencil.apply(v), ref.apply(v))
            assert np.array_equal(stencil.apply_adjoint(v),
                                  ref.apply_adjoint(v))

    @staticmethod
    def peak_bytes(call, *args):
        tracemalloc.start()
        try:
            call(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # 256 x 256: the half grid holds 1 MB, the output 0.5 MB and a block
    # buffer 128 KB.  Applied to the whole grid at once, a forward peaked
    # at 5.8 MB, an adjoint at 5.3 MB and a power iteration at 6.3 MB
    def test_forward_temporaries(self, family, rng):
        stencil = _full_stencil(self.POT, family, 256, 256)
        v = rng.uniform(0.2, 2.0, 256 * 256)
        assert self.peak_bytes(stencil.apply, v) <= 2.5e6

    def test_adjoint_temporaries(self, family, rng):
        stencil = _full_stencil(self.POT, family, 256, 256)
        u = rng.uniform(0.2, 2.0, 256 * 256)
        assert self.peak_bytes(stencil.apply_adjoint, u) <= 2.5e6

    def test_power_iteration_temporaries(self, family):
        stencil = _full_stencil(self.POT, family, 256, 256)
        assert self.peak_bytes(_power_iterate, stencil, 1e-10, 10000) <= 3.5e6


class TestBaseOperator:
    def test_constant_log2(self):
        out = apply_base_operator(lambda p: math.log(2.0), GridFn.ones(64))
        assert np.exp(out.log_offset) * out.values == pytest.approx(np.full(64, 4.0))

    def test_zero_potential(self):
        out = apply_base_operator(lambda p: 0.0, GridFn.ones(64))
        assert np.exp(out.log_offset) * out.values == pytest.approx(np.full(64, 2.0))

    def test_nonconstant_matches_direct_sum(self, rng):
        phi = pointwise(lambda p: 0.1 * math.cos(2 * math.pi * float(p)))
        xi = GridFn(rng.uniform(0.5, 1.5, 32))
        out = apply_base_operator(phi, xi)
        i = 7
        expected = 0.0
        for b in (0, 1):
            xb = (i / 32 + b) / 2
            expected += math.exp(0.1 * math.cos(2 * math.pi * xb)) * xi.interp(xb)
        assert (np.exp(out.log_offset) * out.values)[i] == pytest.approx(expected)

    def test_preimage_points_need_their_digits(self):
        # the preimages of a 64-node grid are k/128: 7 digits each, and
        # with 6 they would merge in pairs
        points = [p for fam in base_preimage_points(64, 7) for p in fam]
        assert sorted(p.num for p in points) == list(range(128))
        with pytest.raises(CapacityExhaustedError,
                           match="128 points needs capacity >= 7, have 6"):
            base_preimage_points(64, 6)

    def test_pipeline_phi_from_zero_potential_gives_four(self, family,
                                                         zero_potential):
        from skewtherm.phi import phi_evaluator
        ev = phi_evaluator(zero_potential, family, tol=1e-10)
        out = apply_base_operator(ev, GridFn.ones(64))
        total = np.exp(out.log_offset) * out.values
        np.testing.assert_allclose(total, np.full(64, 4.0), atol=1e-9)


POWER_POT = TrigPotential(terms=((0, 1, 0.002), (1, 1, 0.0015)))


def dense_stencil(a):
    """A hand-built stencil of the matrix a: column i gathers every node j
    with weight a[i, j]."""
    n = len(a)
    return _Stencil(np.repeat(np.arange(n)[:, None], n, axis=1),
                    np.ascontiguousarray(a.T), n)


@pytest.fixture(scope="module")
def power_operators():
    """The full operators at 64, 128 and 256 squared and the 64-node base
    operator, each with its eigenvalue from the plain loop run to 1e-14."""
    from skewtherm.phi import phi_evaluator
    family = MpFamily(p0=0.5, p1=0.5, delta_a=0.1)
    ops = {n: _full_stencil(POWER_POT, family, n, n) for n in (64, 128, 256)}
    ops["base"] = base_stencil(phi_evaluator(POWER_POT, family, tol=1e-12),
                               64, 96)
    return {name: (op, power_iterate_reference(op, 1e-14, 10000)[0])
            for name, op in ops.items()}


class TestPowerIteration:
    """The extrapolated power iteration against the plain loop it
    replaced (``oracles.power_iterate_reference``)."""

    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    @pytest.mark.parametrize("name", [64, 128, 256, "base"])
    def test_matches_plain_loop(self, power_operators, name, tol):
        stencil, lam_ref = power_operators[name]
        lam, v, u, res, _ = _power_iterate(stencil, tol, 10000)
        assert abs(math.log(lam) - math.log(lam_ref)) <= 10.0 * tol
        assert res <= 10.0 * tol
        # the residual taken from the last step is the one measured anew
        assert power_residual_reference(stencil, lam, v, u) == pytest.approx(
            res, rel=1e-3, abs=1e-15)
        assert np.all(v > 0.0) and np.all(u > 0.0)
        assert float(np.dot(u, v)) == pytest.approx(1.0, rel=1e-14)

    def test_fewer_applications_at_256(self, power_operators):
        # the plain loop takes 61 applications at tol 1e-12, and two more
        # for the residuals
        stencil, _ = power_operators[256]
        assert power_iterate_reference(stencil, 1e-12, 10000)[4] == 61
        assert _power_iterate(stencil, 1e-12, 10000)[4] <= 47

    def test_no_convergence_raises(self, power_operators):
        stencil, _ = power_operators[64]
        with pytest.raises(NoConvergenceError):
            _power_iterate(stencil, 1e-12, 10)

    def test_steady_ratio(self):
        assert _steady_ratio([4.0, 2.0, 1.0]) == 0.5
        assert _steady_ratio([2.0, 1.0]) is None
        assert _steady_ratio([4.0, 2.0, 1.1]) is None        # not steady
        assert _steady_ratio([1.0, 0.96, 0.9216]) is None    # too slow
        for moves in ([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.5]):
            assert _steady_ratio(moves) is None

    def test_moves_of_zero_raise_nothing(self, family, zero_potential):
        # with Phi = 0 the base operator maps ones and the uniform measure
        # to twice themselves, so both loops move 0 at once
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            lam, v, u, res, iterations = _power_iterate(
                base_stencil(lambda p: 0.0, 64, 40), 1e-12, 100)
            _power_iterate(_full_stencil(zero_potential, family, 16, 16),
                           1e-12, 100)
        assert (lam, res, iterations) == (2.0, 0.0, 4)
        np.testing.assert_array_equal(u, np.full(64, 1.0 / 64))

    @pytest.mark.parametrize("a", [
        # eigenvalues 1.005 and -0.905
        [[0.05, 0.96], [0.95, 0.05]],
        # a 3-cycle: second eigenvalues -0.436 +- 0.772i, modulus 0.886
        (0.1 / 3) * np.ones((3, 3)) + 0.9 * np.roll(np.eye(3), 1, axis=1)
        + np.diag([0.0, 0.01, 0.02]),
    ], ids=["negative", "complex"])
    def test_second_eigenvalue_off_the_positive_axis(self, a):
        # steady moves, but extrapolating along them moves away from the
        # eigenvector: the step after it shows that and ends extrapolation
        a = np.asarray(a)
        want = max(np.linalg.eigvals(a).real)
        stencil = dense_stencil(a)
        lam, v, u, res, iterations = _power_iterate(stencil, 1e-12, 10000)
        assert abs(math.log(lam) - math.log(want)) <= 1e-11
        assert res <= 1e-11
        assert np.all(v > 0.0) and np.all(u > 0.0)
        plain = power_iterate_reference(stencil, 1e-12, 10000)[4]
        assert iterations <= 1.25 * plain
