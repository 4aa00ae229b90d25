import math

import numpy as np
import pytest
from oracles import brute_force_theta, triple_scan_distance

from skewtherm import BasePoint
from skewtherm.cones import (
    ConeParams,
    ContractionReport,
    extremal_witness_functions,
    hilbert_distance,
    holder_seminorm,
    image_diameter,
    in_cone,
    positive_cone_distance,
    sample_cone_functions,
)
from skewtherm import cones
from skewtherm.errors import (
    ConeViolationError,
    NonpositiveDenominatorError,
    NonpositiveFunctionError,
)
from skewtherm.gridfn import GridFn
from skewtherm.operators import apply_fiber_operator, fiber_stencil


@pytest.fixture
def cone():
    return ConeParams(K=50.0, alpha=1.0)


@pytest.fixture
def nodes():
    return np.arange(512) / 512


class TestConeParams:
    def test_small_K_rejected(self):
        with pytest.raises(ValueError):
            ConeParams(K=1.0, alpha=1.0)

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            ConeParams(K=50.0, alpha=1.5)


class TestSeminorm:
    def test_constant_is_zero(self, cone):
        assert holder_seminorm(GridFn(np.full(64, 3.0)), 1.0) == 0.0

    def test_cosine_close_to_analytic(self, nodes):
        # |cos(2 pi y)|_1 = 2 pi; the grid sees slightly less
        psi = GridFn(2.0 + np.cos(2 * np.pi * nodes))
        sem = holder_seminorm(psi, 1.0)
        assert sem <= 2 * math.pi
        assert sem >= 2 * math.pi * 0.95

    def test_homogeneous(self, nodes, rng):
        vals = 2.0 + np.cos(2 * np.pi * nodes)
        s1 = holder_seminorm(GridFn(vals), 1.0)
        s3 = holder_seminorm(GridFn(3.0 * vals), 1.0)
        assert s3 == pytest.approx(3.0 * s1, rel=1e-12)


class TestInCone:
    def test_constant_always_in(self, cone):
        assert in_cone(GridFn(np.ones(64)), cone)

    def test_arithmetic_example(self, nodes):
        # inf = 1/2, Lipschitz seminorm pi: in the K = 10 cone since pi <= 5
        cone10 = ConeParams(K=10.0, alpha=1.0)
        psi = GridFn(1.0 + np.cos(2 * np.pi * nodes) / 2.0)
        assert in_cone(psi, cone10)

    def test_nonpositive_not_in(self, cone, nodes):
        psi = GridFn(1.0 + 1.5 * np.cos(2 * np.pi * nodes))
        assert not in_cone(psi, cone)

    def test_steep_function_not_in(self, nodes):
        cone_small = ConeParams(K=2.1, alpha=1.0)
        psi = GridFn(1.0 + 0.9 * np.cos(2 * np.pi * nodes))
        assert not in_cone(psi, cone_small)


class TestHilbertDistance:
    def test_identical_is_zero(self, cone, nodes):
        psi = GridFn(1.0 + 0.1 * np.cos(2 * np.pi * nodes))
        assert hilbert_distance(psi, psi, cone) == pytest.approx(0.0, abs=1e-12)

    def test_projective_invariance(self, cone, nodes, rng):
        f = GridFn(1.0 + 0.1 * np.cos(2 * np.pi * nodes))
        g = GridFn(1.0 + 0.05 * np.sin(2 * np.pi * nodes))
        base = hilbert_distance(f, g, cone)
        for a, b in ((2.0, 3.0), (0.25, 7.0)):
            scaled = hilbert_distance(GridFn(a * f.values), GridFn(b * g.values), cone)
            assert scaled == pytest.approx(base, abs=1e-10)

    def test_matches_brute_force_oracle(self, cone, nodes):
        f = GridFn(1.0 + 0.1 * np.cos(2 * np.pi * nodes))
        g = GridFn(1.0 + 0.07 * np.sin(2 * np.pi * nodes)
                   + 0.03 * np.cos(4 * np.pi * nodes))
        fast = hilbert_distance(f, g, cone, n_theta=32)
        brute = brute_force_theta(f.values[::16], g.values[::16], cone.K, cone.alpha)
        assert fast == pytest.approx(brute, abs=1e-9)

    def test_symmetry(self, cone, nodes):
        f = GridFn(1.0 + 0.1 * np.cos(2 * np.pi * nodes))
        g = GridFn(1.0 + 0.08 * np.sin(4 * np.pi * nodes))
        assert hilbert_distance(f, g, cone) == pytest.approx(
            hilbert_distance(g, f, cone), abs=1e-10)

    def test_triangle_inequality_on_samples(self, cone, rng):
        fns = sample_cone_functions(cone, 512, 6, rng)
        for a in fns[:3]:
            for b in fns[3:5]:
                for c in fns[5:]:
                    dab = hilbert_distance(a, b, cone)
                    dbc = hilbert_distance(b, c, cone)
                    dac = hilbert_distance(a, c, cone)
                    assert dac <= dab + dbc + 1e-9

    def test_cone_violation_raises(self, cone, nodes):
        good = GridFn(np.ones(512))
        bad = GridFn(1.0 + 1.5 * np.cos(2 * np.pi * nodes))
        with pytest.raises(ConeViolationError):
            hilbert_distance(good, bad, cone)

    def test_atomic_dual_lower_bound(self, cone, rng, family, small_potential):
        # positive-cone distance from atomic functionals never exceeds the
        # regularity-cone distance
        x = BasePoint.random(rng, 4)
        fns = sample_cone_functions(cone, 512, 6, rng)
        for i in range(0, 6, 2):
            a = apply_fiber_operator(small_potential, family, x, fns[i])
            b = apply_fiber_operator(small_potential, family, x, fns[i + 1])
            assert positive_cone_distance(a, b) <= hilbert_distance(a, b, cone) + 1e-9


class TestActiveTripleMetric:
    @pytest.mark.parametrize("n_theta", [16, 32, 64, 128])
    def test_matches_triple_scan(self, cone, family, small_potential, rng,
                                 n_theta):
        fns = sample_cone_functions(cone, 512, 6, rng)
        fns.extend(extremal_witness_functions(cone, 512)[::4])
        stencil = fiber_stencil(small_potential, family,
                                BasePoint.random(rng, 10), 512)
        images = [stencil.step(fn) for fn in fns]
        step = 512 // n_theta
        for group in (fns, images):
            for a, b in zip(group, group[3:] + group[:3]):
                fast = hilbert_distance(a, b, cone, n_theta=n_theta)
                scan = triple_scan_distance(a.values[::step], b.values[::step],
                                            cone)
                assert abs(fast - scan) <= 1e-15 * scan

    def test_equal_and_proportional_give_exact_zero(self, cone, rng):
        f = sample_cone_functions(cone, 512, 1, rng)[0]
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            # power-of-two scales keep the ratio exactly constant
            for scale in (1.0, 4.0, 0.125):
                assert hilbert_distance(f, GridFn(scale * f.values), cone) == 0.0

    def test_boundary_reference_raises_like_the_oracle(self, cone):
        # a jump of K d(z1, z2) min f over one grid step: the seminorm is
        # exactly K inf f, so f is in the cone, but the triple at that pair
        # and at min f has denominator 0
        f = np.ones(16)
        f[1] += cone.K / 16
        g = np.ones(16)
        assert in_cone(GridFn(f), cone)
        with pytest.raises(NonpositiveDenominatorError):
            triple_scan_distance(f, g, cone)
        with pytest.raises(NonpositiveDenominatorError):
            hilbert_distance(GridFn(f), GridFn(g), cone, n_theta=16)

    def test_beyond_the_triple_array_size(self, cone, rng):
        # 256 nodes would need 16.8 million triples per array
        f, g = sample_cone_functions(cone, 512, 2, rng)
        d = hilbert_distance(f, g, cone, n_theta=256)
        assert math.isfinite(d) and d > 0.0


class TestSamplers:
    def test_samples_in_cone(self, cone, rng):
        for fn in sample_cone_functions(cone, 512, 25, rng):
            assert in_cone(fn, cone)

    def test_witnesses_in_cone(self, cone):
        wit = extremal_witness_functions(cone, 512)
        assert len(wit) == 16
        for fn in wit:
            assert in_cone(fn, cone)

    def test_witnesses_near_boundary(self, cone):
        # witnesses should use most of the allowed seminorm budget
        for fn in extremal_witness_functions(cone, 512):
            ratio = holder_seminorm(fn, cone.alpha) / (cone.K * float(np.min(fn.values)))
            assert 0.9 <= ratio <= 1.0


class TestImageDiameter:
    def test_constant_images_have_zero_spread(self, family, zero_potential, rng, cone):
        # push constants only: diameter 0
        x = BasePoint.random(rng, 4)
        img1 = apply_fiber_operator(zero_potential, family, x, GridFn(np.full(512, 2.0)))
        img2 = apply_fiber_operator(zero_potential, family, x, GridFn(np.full(512, 5.0)))
        assert hilbert_distance(img1, img2, cone) == pytest.approx(0.0, abs=1e-12)

    def test_tanh_of_four(self):
        rep = ContractionReport(m_emp=4.0, tau=math.tanh(1.0), zeta_emp=0.5, samples=20)
        assert rep.tau == pytest.approx(0.76159, abs=1e-5)

    def test_report_on_default_config(self, family, small_potential, rng, cone):
        x = BasePoint.random(rng, 4)
        rep = image_diameter(small_potential, family, x, cone, samples=20,
                             rng=rng, zeta=0.99)
        assert 0.0 < rep.tau < 1.0
        assert rep.zeta_emp < 0.99
        assert rep.samples == 36

    def test_one_stencil_per_call(self, family, small_potential, rng, cone,
                                  monkeypatch):
        built = []
        original = cones.fiber_stencil

        def counting(*args):
            built.append(args[2])
            return original(*args)

        monkeypatch.setattr(cones, "fiber_stencil", counting)
        x = BasePoint.random(rng, 4)
        rep = image_diameter(small_potential, family, x, cone, samples=20,
                             rng=rng, n_nodes=64, n_theta=16)
        assert rep.samples == 36
        assert built == [x]

    def test_nonpositive_sample_raises(self, family, small_potential, rng,
                                       cone, monkeypatch):
        bad = GridFn(np.ones(64))
        bad.values[5] = 0.0
        monkeypatch.setattr(cones, "extremal_witness_functions",
                            lambda cone, n_nodes: [bad])
        with pytest.raises(NonpositiveFunctionError):
            image_diameter(small_potential, family, BasePoint.random(rng, 4),
                           cone, samples=20, rng=rng, n_nodes=64, n_theta=16)

    def test_min_samples(self, family, small_potential, rng, cone):
        x = BasePoint.random(rng, 4)
        with pytest.raises(ValueError):
            image_diameter(small_potential, family, x, cone, samples=5, rng=rng)
