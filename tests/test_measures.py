import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    conditional_integrate_reference,
    disintegrate_reference,
    eigen_equation_residual_single,
    fiber_integrate_two_cascades,
    fiber_measure_chain,
    full_stencil_reference,
    intertwine_residual_chains,
    pointwise,
    rpf_full_solve_uniform_start,
)
import skewtherm
from skewtherm import (
    BasePoint,
    CapacityExhaustedError,
    GridFn,
    GridFn2D,
    MpFamily,
    NoConvergenceError,
    TrigPotential,
)
from skewtherm.fibers import fiber_inverse_branches
from skewtherm.measures import (
    _coarse_starts,
    conditional_integrate,
    direct_integral,
    disintegrate_integral,
    eigen_equation_residual,
    fiber_integrate,
    fiber_measure,
    fiber_measures,
    intertwine_residual,
    measure_continuity_probe,
    rpf_base_solve,
    rpf_full_solve,
)
from skewtherm.operators import _full_stencil, _power_iterate
from skewtherm.phi import phi_evaluator

LOG2 = math.log(2.0)


def trig_grid_fn(n, amps):
    ys = np.arange(n) / n
    vals = np.ones(n)
    for k, a in amps:
        vals += a * np.cos(2 * np.pi * k * ys)
    return GridFn(vals)


class TestFiberIntegrate:
    def test_constant_integrates_exactly(self, family, small_potential, rng):
        x = BasePoint.random(rng, 20)
        for c in (1.0, 3.5):
            psi = GridFn(np.full(512, c))
            for n in (0, 1, 7):
                assert fiber_integrate(small_potential, family, x, psi, n) == \
                    pytest.approx(c, abs=1e-14)

    def test_normalization_exact(self, family, small_potential, rng):
        x = BasePoint.random(rng, 20)
        assert fiber_integrate(small_potential, family, x, GridFn.ones(512), 9) == 1.0

    def test_zero_potential_depth_one_is_preimage_mean(self, family,
                                                       zero_potential, rng):
        x = BasePoint.random(rng, 4)
        psi = trig_grid_fn(512, [(1, 0.3), (2, 0.1)])
        got = fiber_integrate(zero_potential, family, x, psi, 1, anchor_y=0.5)
        y1, y2 = fiber_inverse_branches(family, x, 0.5)
        expected = (psi.interp(y1) + psi.interp(y2)) / 2.0
        assert got == pytest.approx(expected, rel=1e-12)

    def test_depth_stability(self, family, small_potential, rng):
        x = BasePoint.random(rng, 40)
        psi = trig_grid_fn(512, [(1, 0.4)])
        v1 = fiber_integrate(small_potential, family, x, psi, 20)
        v2 = fiber_integrate(small_potential, family, x, psi, 25)
        assert abs(v1 - v2) <= 1e-8

    def test_monotone(self, family, small_potential, rng):
        x = BasePoint.random(rng, 20)
        lo_vals = 1.0 + 0.2 * np.cos(2 * np.pi * np.arange(512) / 512)
        hi_vals = lo_vals + 0.3
        lo = fiber_integrate(small_potential, family, x, GridFn(lo_vals), 8)
        hi = fiber_integrate(small_potential, family, x, GridFn(hi_vals), 8)
        assert hi >= lo

    def test_signed_function(self, family, small_potential, rng):
        x = BasePoint.random(rng, 20)
        psi = GridFn(np.cos(2 * np.pi * np.arange(512) / 512))
        val = fiber_integrate(small_potential, family, x, psi, 10)
        assert -1.0 <= val <= 1.0

    def test_functional_wrapper(self, family, small_potential, rng):
        # the integral is the weight vector's normalized pairing
        x = BasePoint.random(rng, 20)
        w = fiber_measure(small_potential, family, x, 8, 512)
        psi = trig_grid_fn(512, [(1, 0.2)])
        assert np.dot(w, psi.values) / np.dot(w, np.ones(512)) == \
            fiber_integrate(small_potential, family, x, psi, 8)


class TestAdjointAgainstTwoCascades:
    """Fiber measures as adjoint weight vectors against the anchored ratio
    of two forward cascades they replaced."""

    POT = TrigPotential(terms=((0, 1, 0.02), (1, 1, 0.015), (3, -2, 0.01)),
                        constant=0.1)

    @pytest.mark.parametrize("anchor_y", [0.5, 0.3])
    @pytest.mark.parametrize("n_nodes", [16, 512])
    def test_integral(self, family, rng, n_nodes, anchor_y):
        ys = np.arange(n_nodes) / n_nodes
        psis = [GridFn(1.0 + 0.4 * np.cos(2 * np.pi * ys), log_offset=0.3),
                GridFn(np.cos(2 * np.pi * ys) + 0.2 * np.sin(6 * np.pi * ys),
                       log_offset=-0.7)]
        for n in (0, 1, 7, 25):
            x = BasePoint.random(rng, 40)
            for psi in psis:
                got = fiber_integrate(self.POT, family, x, psi, n, anchor_y)
                want = fiber_integrate_two_cascades(self.POT, family, x, psi, n,
                                                    anchor_y)
                assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n_nodes", [16, 512])
    def test_weights_are_probability_vector(self, family, rng, n_nodes):
        for n in (0, 1, 7, 25):
            for anchor_y in (0.5, 0.3):
                w = fiber_measure(self.POT, family, BasePoint.random(rng, 40),
                                  n, n_nodes, anchor_y)
                assert w.shape == (n_nodes,)
                assert np.all(w >= 0.0)
                assert abs(np.sum(w) - 1.0) <= 1e-15

    def test_capacity_guard(self, family, rng):
        with pytest.raises(CapacityExhaustedError):
            fiber_measure(self.POT, family, BasePoint.random(rng, 6), 7, 64)


class TestSharedOrbitChains:
    """Fiber measures of many points from one call, sharing the adjoint
    steps of merging orbits, against one fresh chain per point."""

    POT = TestAdjointAgainstTwoCascades.POT

    def test_dyadic_grid_bit_identical(self, family):
        xs = [BasePoint.from_fraction(i, 64, 96) for i in range(64)]
        got = fiber_measures(self.POT, family, xs, 25, 256)
        for x, w in zip(xs, got):
            want = fiber_measure_chain(self.POT, family, x, 25, 256, 0.5)
            assert np.array_equal(w, want)

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_random_points_with_repeats(self, family, rng, n):
        # a preimage of an earlier point meets it one step in, with one
        # step more left, so the chains must be keyed on depth as well
        points = [BasePoint.random(rng, 40) for _ in range(8)]
        xs = (points + points[::3] + [points[1].add_dyadic(1, 3)]
              + [points[2].preimages()[1]])
        got = fiber_measures(self.POT, family, xs, n, 64, 0.3)
        assert len(got) == len(xs)
        for x, w in zip(xs, got):
            assert np.array_equal(w, fiber_measure_chain(self.POT, family, x,
                                                         n, 64, 0.3))

    def test_negative_depth_raises_before_any_step(self, family, rng,
                                                   stencil_builds):
        with pytest.raises(ValueError):
            fiber_measures(self.POT, family, [BasePoint.random(rng, 40)], -1,
                           64)
        assert stencil_builds == []

    @pytest.mark.parametrize("n", [0, 3])
    def test_weights_are_read_only(self, family, rng, n):
        x = BasePoint.random(rng, 40)
        for w in fiber_measures(self.POT, family, [x, x], n, 64):
            with pytest.raises(ValueError):
                w[0] = 1.0

    def test_capacity_checked_before_any_step(self, family, rng,
                                              stencil_builds):
        xs = [BasePoint.random(rng, 40), BasePoint.random(rng, 6)]
        with pytest.raises(CapacityExhaustedError):
            fiber_measures(self.POT, family, xs, 7, 64)
        assert stencil_builds == []

    @pytest.mark.parametrize("n", [1, 7])
    def test_one_block_per_request(self, family, rng, monkeypatch, n):
        # x and f(x) meet each of f^j(x), j = 1 .. n - 1, at two depths,
        # but one request pulls both back through one stencil per orbit
        # point, n + 1 in all, built as one block
        from skewtherm import phi
        blocks = []
        original = phi.fiber_stencils

        def counting(pot, family, xs, n_nodes):
            blocks.append(len(xs))
            return original(pot, family, xs, n_nodes)

        monkeypatch.setattr(phi, "fiber_stencils", counting)
        x = BasePoint.random(rng, 40)
        xs = [x, x.forward(1)]
        got = fiber_measures(self.POT, family, xs, n, 64, 0.3)
        assert blocks == [n + 1]
        for p, w in zip(xs, got):
            assert np.array_equal(w, fiber_measure_chain(self.POT, family, p,
                                                         n, 64, 0.3))

    def test_blocks_bound_the_peak(self, family, monkeypatch):
        # criterion 7's size: 512 dyadic nodes at depth 25 on 256 fiber
        # nodes pull back 511 values off zero, whose stencils the pass
        # holds (8.4 MB).  Built as one block, the fiber_weights
        # temporaries took the tracemalloc peak to 22-24 MB; fiber_weights
        # builds them 64 points at a time, one grid_preimages call each,
        # and the peak is 11-13 MB
        from skewtherm import operators
        blocks = []
        original = operators.grid_preimages

        def counting(family, xs, n_nodes):
            blocks.append(len(xs))
            return original(family, xs, n_nodes)

        monkeypatch.setattr(operators, "grid_preimages", counting)
        xs = [BasePoint.from_fraction(i, 512, 96) for i in range(512)]
        tracemalloc.start()
        try:
            got = fiber_measures(self.POT, family, xs, 25, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6
        assert blocks == [1] + [64] * 7 + [63]
        for i in range(1, 512, 73):
            assert np.array_equal(got[i], fiber_measure_chain(
                self.POT, family, xs[i], 25, 256, 0.5))

    def test_disintegration_builds_each_chain_step_once(self, family,
                                                        small_potential,
                                                        stencil_builds):
        # 64 nodes i/64 at depth 25: the orbits stay on the grid, so one
        # stencil per nonzero node, 63, plus L_0; one per distinct
        # (point, steps left) pair builds 63 + 31 + 15 + 7 + 3 + 1 plus
        # L_0, 121, and a fresh chain per node 64 * 25 = 1600
        base = rpf_base_solve(lambda p: LOG2, 64)
        full = rpf_full_solve(small_potential, family, 64, 64)
        psi = GridFn2D.from_callable(
            lambda X, Y: 1.0 + 0.3 * np.cos(2 * np.pi * (X + Y)), 64, 64)
        assert np.all(base.mu_weights != 0.0)
        got = disintegrate_integral(small_potential, family, psi, full, base,
                                    25, capacity=96)
        assert len(stencil_builds) == 64
        assert got == disintegrate_reference(small_potential, family, psi, full,
                                             base, 25, 96, 0.5)


@pytest.fixture
def weight_builds(monkeypatch):
    """The number of base points of every fiber_weights call: every fiber
    stencil is built through it, whichever module binds the builder that
    asked (phi.fiber_stencils, or a fiber_stencil or fiber_stencils bound
    elsewhere)."""
    from skewtherm import operators
    counts = []
    original = operators.fiber_weights

    def counting(pot, family, xs, n_nodes, **kwargs):
        counts.append(len(xs))
        return original(pot, family, xs, n_nodes, **kwargs)

    monkeypatch.setattr(operators, "fiber_weights", counting)
    return counts


class TestEigenEquation:
    def test_zero_potential_tiny_residual(self, family, zero_potential, rng):
        x = BasePoint.random(rng, 20)
        psi = trig_grid_fn(512, [(1, 0.3)])
        (r,) = eigen_equation_residual(zero_potential, family, x, [psi], 10,
                                       lambda _: LOG2)
        assert r <= 1e-10

    def test_ones_reduce_to_lambda_identity(self, family, small_potential, rng):
        # psi = 1 specializes to |nu(L 1) - e^Phi|
        x = BasePoint.random(rng, 40)
        phi_eval = phi_evaluator(small_potential, family, tol=1e-12)
        phi_val = phi_eval(x)
        from skewtherm.operators import apply_fiber_operator
        lifted = apply_fiber_operator(small_potential, family, x, GridFn.ones(512))
        lam = fiber_integrate(small_potential, family, x.forward(1), lifted, 20)
        (r,) = eigen_equation_residual(small_potential, family, x,
                                       [GridFn.ones(512)], 20, phi_eval)
        assert r == pytest.approx(abs(lam - math.exp(phi_val)), abs=1e-13)

    def test_residual_decreases(self, family, rng):
        pot = TrigPotential(terms=((0, 1, 0.002), (1, 1, 0.0015)))
        x = BasePoint.random(rng, 40)
        psi = trig_grid_fn(512, [(1, 0.3), (3, 0.1)])
        phi_eval = phi_evaluator(pot, family, tol=1e-13)
        (r15,) = eigen_equation_residual(pot, family, x, [psi], 15, phi_eval)
        (r30,) = eigen_equation_residual(pot, family, x, [psi], 30, phi_eval)
        assert r30 <= 1e-6
        assert r30 <= r15 / 3.0


    def test_functions_share_one_pass_per_point(self, family, rng,
                                                stencil_builds):
        # one function or three: the measure over x at depth n + 1 and,
        # stored on its way, the one over f(x) at depth n, from one store,
        # n + 1 stencils; the gaps equal those computed one function and
        # one store at a time
        pot = TrigPotential(terms=((0, 1, 0.002), (1, 1, 0.0015)))
        x = BasePoint.random(rng, 40)
        psis = [trig_grid_fn(64, [(k, 0.3)]) for k in (1, 2, 3)]
        phi_eval = phi_evaluator(pot, family, tol=1e-12, n_nodes=64)
        phi_eval(x)
        builds = []
        for fns in (psis[:1], psis):
            del stencil_builds[:]
            got = eigen_equation_residual(pot, family, x, fns, 10, phi_eval)
            builds.append(len(stencil_builds))
        assert builds == [11, 11]
        assert got == [eigen_equation_residual_single(pot, family, x, psi, 10,
                                                      phi_eval, 0.5)
                       for psi in psis]

    @pytest.mark.parametrize("point, builds", [(None, 11), ((3, 16), 5)])
    def test_builds_through_every_path(self, family, rng, stencil_builds,
                                       weight_builds, point, builds):
        # the step over x is the pull's own stencil: a random orbit builds
        # its n + 1 points, x = 3/16 its four off zero and the kept L_0, and
        # nothing builds outside the store
        pot = TrigPotential(terms=((0, 1, 0.002), (1, 1, 0.0015)))
        x = (BasePoint.random(rng, 40) if point is None
             else BasePoint.from_fraction(*point, 40))
        psi = trig_grid_fn(64, [(1, 0.3)])
        phi_eval = phi_evaluator(pot, family, tol=1e-12, n_nodes=64)
        phi_eval(x)
        del stencil_builds[:], weight_builds[:]
        (got,) = eigen_equation_residual(pot, family, x, [psi], 10, phi_eval)
        assert (len(stencil_builds), sum(weight_builds)) == (builds, builds)
        assert got == eigen_equation_residual_single(pot, family, x, psi, 10,
                                                     phi_eval, 0.5)


class TestRpfBase:
    def test_constant_log2(self):
        sol = rpf_base_solve(lambda p: LOG2, 128)
        assert sol.log_eigenvalue == pytest.approx(math.log(4.0), abs=1e-12)
        h = sol.eigenfunction.values
        assert np.allclose(h, h[0])
        assert np.allclose(sol.weights, 1.0 / 128)
        assert sol.residual <= 1e-8

    def test_constant_zero(self):
        sol = rpf_base_solve(lambda p: 0.0, 128)
        assert sol.log_eigenvalue == pytest.approx(LOG2, abs=1e-12)

    def test_weights_normalized(self):
        phi = pointwise(lambda p: 0.1 * math.cos(2 * math.pi * float(p)))
        sol = rpf_base_solve(phi, 128)
        assert np.all(sol.weights >= 0)
        assert np.sum(sol.weights) == pytest.approx(1.0, abs=1e-12)
        assert np.dot(sol.weights, sol.eigenfunction.values) == pytest.approx(
            1.0, abs=1e-12)
        assert np.sum(sol.mu_weights) == pytest.approx(1.0, abs=1e-12)

    def test_zero_potential_pipeline(self, family, zero_potential):
        ev = phi_evaluator(zero_potential, family, tol=1e-10)
        sol = rpf_base_solve(ev, 128)
        assert sol.log_eigenvalue == pytest.approx(math.log(4.0), abs=1e-8)

    def test_grid_finer_than_capacity_raises(self, family, small_potential,
                                             stencil_builds):
        # a 64-node grid's preimages need 7 digits; the check comes before
        # any Phi value
        ev = phi_evaluator(small_potential, family, tol=1e-3)
        with pytest.raises(CapacityExhaustedError,
                           match="capacity >= 7, have 6"):
            rpf_base_solve(ev, 64, capacity=6)
        assert stencil_builds == [] and len(ev.table) == 0
        assert rpf_base_solve(ev, 64, capacity=7).residual <= 1e-8
        assert len(ev.table) == 128


class TestRpfFull:
    POT = TrigPotential(terms=((0, 1, 0.002), (1, 1, 0.0015)))

    def test_zero_potential(self, family, zero_potential):
        sol = rpf_full_solve(zero_potential, family, 32, 32)
        assert sol.log_eigenvalue == pytest.approx(math.log(4.0), abs=1e-10)
        h = sol.eigenfunction.values
        assert np.allclose(h, h[0, 0])

    def test_constant_shift(self, family):
        pot = TrigPotential.constant_potential(0.3)
        sol = rpf_full_solve(pot, family, 32, 32)
        assert sol.log_eigenvalue == pytest.approx(math.log(4.0) + 0.3, abs=1e-10)

    def test_grid_cap(self, family, zero_potential):
        with pytest.raises(ValueError):
            rpf_full_solve(zero_potential, family, 2048, 2048)

    def test_pressure_equality_coarse(self, family):
        pot = TrigPotential(terms=((0, 1, 0.002), (1, 1, 0.0015)))
        ev = phi_evaluator(pot, family, tol=1e-10)
        base = rpf_base_solve(ev, 256, capacity=80)
        full = rpf_full_solve(pot, family, 128, 128)
        assert abs(base.log_eigenvalue - full.log_eigenvalue) <= 1e-6

    @pytest.mark.parametrize("n", [64, 256])
    def test_pressure_matches_reference_stencil(self, family, n):
        # the reference operator iterated from the starts the solve uses:
        # ones and uniform at 64 rows, the coarse solve's at 256
        full = rpf_full_solve(self.POT, family, n, n)
        starts = (_coarse_starts(self.POT, family, n, n, 1e-10, 10000)
                  if n == 256 else None)
        lam = _power_iterate(full_stencil_reference(self.POT, family, n, n),
                             1e-10, 10000, starts)[0]
        assert abs(full.log_eigenvalue - math.log(lam)) <= 1e-13

    @pytest.mark.parametrize("n_x, n_y", [(16, 16), (64, 64), (128, 128),
                                          (128, 32), (16, 512)])
    def test_below_256_rows_is_the_uniform_start(self, family, n_x, n_y):
        got = rpf_full_solve(self.POT, family, n_x, n_y, tol=1e-12)
        want = rpf_full_solve_uniform_start(self.POT, family, n_x, n_y,
                                            tol=1e-12)
        assert got.log_eigenvalue == want.log_eigenvalue
        assert (got.residual, got.iterations) == (want.residual,
                                                  want.iterations)
        assert np.array_equal(got.eigenfunction.values,
                              want.eigenfunction.values)
        assert np.array_equal(got.weights, want.weights)

    # Measured gaps to the uniform start, default potential, in units of
    # tol (tol 1e-10; 1e-12): |Delta log lambda| 0.13, 1.14 (256; 512) and
    # 1.36, 0.97; the weights' L1 gap 22, 14 and 20, 16; the eigenfunction's
    # relative sup gap 1.6, 5.6 and 11, 12.  Fine applications at tol
    # 1e-12: 45 -> 31 at 256, 47 -> 31 at 512.
    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    @pytest.mark.parametrize("n", [256, 512])
    def test_coarse_start_ladder(self, family, n, tol):
        got = rpf_full_solve(self.POT, family, n, n, tol=tol)
        want = rpf_full_solve_uniform_start(self.POT, family, n, n, tol=tol)
        assert abs(got.log_eigenvalue - want.log_eigenvalue) <= 3.0 * tol
        assert np.sum(np.abs(got.weights - want.weights)) <= 40.0 * tol
        h, h_ref = got.eigenfunction.values, want.eigenfunction.values
        assert np.max(np.abs(h - h_ref)) <= 25.0 * tol * np.max(h_ref)
        assert got.residual <= 10.0 * tol
        assert np.all(h > 0.0) and np.all(got.weights > 0.0)
        assert got.iterations < want.iterations
        if tol == 1e-12:
            assert got.iterations <= 34

    def test_coarse_start_adds_no_peak(self, family):
        # 256 x 256, the fine operator cached: from ones and uniform the
        # solve peaked at 2.89 MB by tracemalloc, and it still does; the
        # coarse phase peaks at 0.95 MB
        _full_stencil(self.POT, family, 256, 256)
        tracemalloc.start()
        try:
            rpf_full_solve(self.POT, family, 256, 256, tol=1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5e6

    def test_coarse_start_still_stops_at_max_iter(self, family):
        with pytest.raises(NoConvergenceError):
            rpf_full_solve(self.POT, family, 256, 256, max_iter=5)

    def test_solve_is_independent_of_blas_threads(self):
        # np.dot splits a product of 65536 entries over OpenBLAS threads, so
        # a joint normalization by it gave other bits on 2 threads than on 1
        code = "\n".join([
            "import hashlib",
            "from skewtherm import MpFamily, TrigPotential",
            "from skewtherm.measures import rpf_full_solve",
            "pot = TrigPotential(terms=((0, 1, 0.002), (1, 1, 0.0015)))",
            "sol = rpf_full_solve(pot, MpFamily(), 256, 256)",
            "h = hashlib.sha256(sol.eigenfunction.values.tobytes())",
            "h.update(sol.weights.tobytes())",
            "h.update(repr(sol.residual).encode())",
            "print(h.hexdigest())",
        ])
        src = str(Path(skewtherm.__file__).resolve().parents[1])
        digests = set()
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": src}
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, check=True)
            digests.add(proc.stdout)
        assert len(digests) == 1


class TestIntertwine:
    def test_zero_potential_ones(self, family, zero_potential, rng):
        xs = [BasePoint.random(rng, 20) for _ in range(3)]
        res = intertwine_residual(zero_potential, family,
                                  [GridFn2D.ones(64, 64)], xs, 10,
                                  lambda p: LOG2)
        assert res <= 1e-10

    def test_base_only_function(self, family, zero_potential, rng):
        # Psi depending only on x reduces to the base operator acting on it
        psi = GridFn2D.from_callable(
            lambda X, Y: 1.0 + 0.5 * np.cos(2 * np.pi * X) + 0.0 * Y, 64, 64)
        xs = [BasePoint.random(rng, 20) for _ in range(3)]
        res = intertwine_residual(zero_potential, family, [psi], xs, 10,
                                  lambda p: LOG2)
        assert res <= 1e-8

    def test_default_config_small(self, family, rng):
        pot = TrigPotential(terms=((0, 1, 0.002), (1, 1, 0.0015)))
        ev = phi_evaluator(pot, family, tol=1e-10)
        psi = GridFn2D.from_callable(
            lambda X, Y: 1.0 + 0.3 * np.cos(2 * np.pi * (X + Y)), 256, 256)
        xs = [BasePoint.random(rng, 40) for _ in range(3)]
        res = intertwine_residual(pot, family, [psi], xs, 30, ev)
        assert res <= 1e-4

    def test_matches_one_chain_per_integral(self, family, small_potential,
                                            rng):
        psi = GridFn2D.from_callable(
            lambda X, Y: 1.0 + 0.3 * np.cos(2 * np.pi * (X + 2 * Y)), 64, 64)
        xs = [BasePoint.random(rng, 20) for _ in range(3)]
        ev = phi_evaluator(small_potential, family, tol=1e-10, n_nodes=64)
        for phi_eval in (lambda p: LOG2, ev):
            for n in (0, 1, 10):
                assert intertwine_residual(
                    small_potential, family, [psi], xs, n, phi_eval) == \
                    intertwine_residual_chains(small_potential, family, psi,
                                               xs, n, phi_eval)

    def test_preimages_share_their_chain(self, family, small_potential, rng,
                                         stencil_builds):
        # per point: one stencil per distinct orbit point, n over x's orbit
        # plus one over each preimage, 12; the preimages' entries over x's
        # orbit, one step short of x's own, reuse x's stencils.  One per
        # (point, steps left) pair builds 2n + 1, one chain per integral 3n
        xs = [BasePoint.random(rng, 20) for _ in range(3)]
        intertwine_residual(small_potential, family, [GridFn2D.ones(64, 64)],
                            xs, 10, lambda p: LOG2)
        assert len(stencil_builds) == 36

    def test_functions_share_one_pass_and_its_stencils(
            self, family, small_potential, rng, stencil_builds, weight_builds):
        # three test functions build the measures and the six column
        # stencils once, as one does: the pull hands the column stencils
        # back, so the 36 stencils of the pass are every build there is,
        # and the worst gap is that of the three computed one function and
        # one chain at a time
        psis = [GridFn2D.from_callable(
            lambda X, Y, k=k: 1.0 + 0.3 * np.cos(2 * np.pi * (X + k * Y)),
            64, 64) for k in (1, 2, 3)]
        xs = [BasePoint.random(rng, 20) for _ in range(3)]
        builds = []
        for fns in (psis[:1], psis):
            del stencil_builds[:], weight_builds[:]
            got = intertwine_residual(small_potential, family, fns, xs, 10,
                                      lambda p: LOG2)
            builds.append((len(stencil_builds), sum(weight_builds)))
        assert builds == [(36, 36), (36, 36)]
        assert got == max(intertwine_residual_chains(
            small_potential, family, psi, xs, 10, lambda p: LOG2)
            for psi in psis)


@pytest.fixture(scope="module")
def solutions():
    family = MpFamily()
    pot = TrigPotential(terms=((0, 1, 0.002), (1, 1, 0.0015)))
    ev = phi_evaluator(pot, family, tol=1e-10)
    base = rpf_base_solve(ev, 256, tol=1e-11, capacity=80)
    full = rpf_full_solve(pot, family, 128, 128, tol=1e-11)
    return pot, family, base, full


class TestDisintegration:
    def test_unit_mass(self, solutions, rng):
        pot, family, base, full = solutions
        for _ in range(3):
            x = BasePoint.random(rng, 40)
            mass = conditional_integrate(pot, family, x, GridFn2D.ones(128, 128),
                                         full, base, 25)
            assert mass == pytest.approx(1.0, abs=1e-5)

    def test_zero_potential_reduces_to_fiber_measure(self, family,
                                                     zero_potential, rng):
        ev = phi_evaluator(zero_potential, family, tol=1e-10)
        base = rpf_base_solve(ev, 64)
        full = rpf_full_solve(zero_potential, family, 64, 64)
        x = BasePoint.random(rng, 30)
        psi2 = GridFn2D.from_callable(
            lambda X, Y: 1.0 + 0.2 * np.sin(2 * np.pi * Y) + 0.0 * X, 64, 64)
        via_cond = conditional_integrate(zero_potential, family, x, psi2,
                                         full, base, 15)
        direct = fiber_integrate(zero_potential, family, x,
                                 psi2.slice_at(float(x)), 15)
        assert via_cond == pytest.approx(direct, abs=1e-6)

    def test_two_route_agreement(self, solutions):
        pot, family, base, full = solutions
        psi2 = GridFn2D.from_callable(
            lambda X, Y: 1.0 + 0.4 * np.cos(2 * np.pi * X)
            + 0.2 * np.sin(2 * np.pi * (X + 2 * Y)), 128, 128)
        d1 = direct_integral(psi2, full)
        d2 = disintegrate_integral(pot, family, psi2, full, base, 25, capacity=80)
        assert abs(d1 - d2) <= 1e-3

    def test_matches_node_loop_exactly(self, solutions):
        pot, family, base, full = solutions
        psi2 = GridFn2D.from_callable(
            lambda X, Y: 1.0 + 0.4 * np.cos(2 * np.pi * X)
            + 0.2 * np.sin(2 * np.pi * (X + 2 * Y)), 128, 128)
        got = disintegrate_integral(pot, family, psi2, full, base, 25,
                                    capacity=80)
        assert got == disintegrate_reference(pot, family, psi2, full, base, 25,
                                             80, 0.5)

    def test_nodes_need_their_digits(self, family, small_potential):
        # the nodes i/64 take 6 digits; any capacity from there on gives
        # the same bits, and 5 would merge them in pairs
        base = rpf_base_solve(lambda p: LOG2, 64)
        full = rpf_full_solve(small_potential, family, 64, 64)
        psi = GridFn2D.from_callable(
            lambda X, Y: 1.0 + 0.3 * np.cos(2 * np.pi * (X + Y)), 64, 64)
        got = [disintegrate_integral(small_potential, family, psi, full, base,
                                     3, capacity=cap) for cap in (6, 25, 64)]
        assert got[0] == got[1] == got[2]
        with pytest.raises(CapacityExhaustedError,
                           match="64 points needs capacity >= 6, have 5"):
            disintegrate_integral(small_potential, family, psi, full, base, 3,
                                  capacity=5)

    def test_one_point_matches_scalar_reads(self, solutions, rng):
        pot, family, base, full = solutions
        psi2 = GridFn2D.from_callable(
            lambda X, Y: 1.0 + 0.4 * np.cos(2 * np.pi * (X + Y)), 128, 128)
        for _ in range(3):
            x = BasePoint.random(rng, 40)
            assert conditional_integrate(pot, family, x, psi2, full, base,
                                         25) == \
                conditional_integrate_reference(pot, family, x, psi2, full,
                                                base, 25, 0.5)


class TestMeasureContinuity:
    def test_constant_function_no_gap(self, family, small_potential, rng):
        x = BasePoint.random(rng, 40)
        gaps = measure_continuity_probe(small_potential, family,
                                        GridFn.ones(512), x,
                                        [2 ** -4, 2 ** -6], 10)
        assert gaps == [0.0, 0.0]

    def test_gaps_shrink(self, family, rng):
        pot = TrigPotential(terms=((0, 1, 0.01),))
        psi = trig_grid_fn(512, [(1, 0.5)])
        medians = []
        for k in (4, 7, 10):
            vals = []
            for _ in range(5):
                x = BasePoint.random(rng, 40)
                vals.append(measure_continuity_probe(pot, family, psi, x,
                                                     [2.0 ** -k], 20)[0])
            medians.append(float(np.median(vals)))
        assert medians[0] > medians[1] > medians[2]

    def test_perturbed_points_share_the_chain(self, family, small_potential,
                                              rng, stencil_builds):
        # x + 2^-k agrees with x after k steps: 10 + 4 + 6 builds, not 30
        x = BasePoint.random(rng, 40)
        psi = trig_grid_fn(64, [(1, 0.5)])
        measure_continuity_probe(small_potential, family, psi, x,
                                 [2 ** -4, 2 ** -6], 10)
        assert len(stencil_builds) == 20

    def test_non_dyadic_raises_before_any_step(self, family, small_potential,
                                               rng, stencil_builds):
        x = BasePoint.random(rng, 40)
        with pytest.raises(ValueError):
            measure_continuity_probe(small_potential, family, GridFn.ones(64),
                                     x, [2 ** -4, 0.3], 5)
        assert stencil_builds == []

    def test_rejects_non_dyadic(self, family, small_potential, rng):
        x = BasePoint.random(rng, 40)
        with pytest.raises(ValueError):
            measure_continuity_probe(small_potential, family, GridFn.ones(512),
                                     x, [0.3], 5)
