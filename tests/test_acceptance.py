"""Acceptance suite: every quantitative exit criterion at its stated
tolerance, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS line per
criterion with the measured numbers; a failing assertion is the FAIL line.
"""

import math
import time

import numpy as np
import pytest

from oracles import brute_force_theta
from skewtherm import BasePoint, GridFn, GridFn2D, MpFamily, TrigPotential
from skewtherm.cones import (
    ConeParams,
    hilbert_distance,
    holder_seminorm,
    image_diameter,
    sample_cone_functions,
)
from skewtherm.fibers import estimate_constants
from skewtherm.measures import (
    conditional_integrate,
    direct_integral,
    disintegrate_integral,
    eigen_equation_residual,
    intertwine_residual,
    rpf_base_solve,
    rpf_full_solve,
)
from skewtherm.operators import apply_fiber_operator
from skewtherm.phi import (
    PhiSequence,
    compute_phi,
    estimate_holder,
    fit_convergence_rate,
    phi_evaluator,
)
from skewtherm.words import bad_mass_ratio, count_I

LOG2 = math.log(2.0)

# default system: intermittent fibers over the doubling base
FAMILY = MpFamily(p0=0.5, p1=0.5, delta_a=0.1)
# default near-constant potential (inside the checked regime at eps_phi=0.04)
POT_DEFAULT = TrigPotential(terms=((0, 1, 0.002), (1, 1, 0.0015)))
# criterion-2 potential: total amplitude pinned to 0.01
POT_CRIT2 = TrigPotential(terms=((0, 1, 0.006), (1, 1, 0.004)))

CONE = ConeParams(K=50.0, alpha=1.0)


def report(num: int, detail: str) -> None:
    print(f"\nPASS criterion {num}: {detail}")


@pytest.fixture(scope="module")
def constants():
    return estimate_constants(FAMILY, 1.0, 0.04, 0.995, 0.05, 20000,
                              rng=np.random.default_rng(2026))


@pytest.fixture(scope="module")
def default_solutions():
    """Base and full eigendata for the default potential, shared by the
    pressure, intertwining and disintegration criteria."""
    ev = phi_evaluator(POT_DEFAULT, FAMILY, tol=1e-12)
    base = rpf_base_solve(ev, 512, tol=1e-12, capacity=96)
    full = rpf_full_solve(POT_DEFAULT, FAMILY, 256, 256, tol=1e-12)
    return ev, base, full


def test_criterion_1_constant_potential_closed_forms():
    start = time.time()
    c = 0.3
    pot = TrigPotential.constant_potential(c)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        x = BasePoint.random(rng, 40)
        value, _, _ = compute_phi(pot, FAMILY, x, tol=1e-10)
        worst = max(worst, abs(value - (LOG2 + c)))
    assert worst <= 1e-9, f"transverse potential off by {worst:.2e}"

    base = rpf_base_solve(phi_evaluator(pot, FAMILY, tol=1e-10), 512,
                          capacity=64)
    base_err = abs(base.log_eigenvalue - (math.log(4.0) + c))
    assert base_err <= 1e-8, f"base eigenvalue off by {base_err:.2e}"

    full = rpf_full_solve(pot, FAMILY, 256, 256)
    full_err = abs(full.log_eigenvalue - (math.log(4.0) + c))
    assert full_err <= 1e-8, f"full eigenvalue off by {full_err:.2e}"

    elapsed = time.time() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(1, f"Phi err {worst:.1e}, base err {base_err:.1e}, "
              f"full err {full_err:.1e}, {elapsed:.1f}s")


def test_criterion_2_geometric_convergence():
    rng = np.random.default_rng(202)
    worst_r2 = 1.0
    worst_tau = 0.0
    # gaps below the double-precision noise floor on O(1) values cannot
    # satisfy an exact geometric envelope; the fit excludes them and the
    # envelope check carries a 1e-13 absolute allowance
    noise_floor = 1e-13
    for _ in range(10):
        x = BasePoint.random(rng, 40)
        fit_d = fit_convergence_rate(POT_CRIT2, FAMILY, x, n_max=35, n_min=5,
                                     increment_floor=1e-12)
        fit_u = fit_convergence_rate(POT_CRIT2, FAMILY, x, n_max=35, n_min=5,
                                     anchor="uniform", increment_floor=1e-12)
        assert fit_d.tau_emp < 1.0 and fit_u.tau_emp < 1.0
        assert fit_d.r_squared >= 0.98, f"r^2 {fit_d.r_squared:.4f}"
        assert fit_u.r_squared >= 0.98, f"r^2 {fit_u.r_squared:.4f}"
        worst_r2 = min(worst_r2, fit_d.r_squared, fit_u.r_squared)
        worst_tau = max(worst_tau, fit_d.tau_emp, fit_u.tau_emp)

        tau = max(fit_d.tau_emp, fit_u.tau_emp)
        c1 = fit_d.c1_emp + fit_u.c1_emp
        seq_d = PhiSequence(POT_CRIT2, FAMILY, x, anchor="delta")
        seq_u = PhiSequence(POT_CRIT2, FAMILY, x, anchor="uniform")
        for n in range(10, 36):
            gap = abs(seq_d.value(n) - seq_u.value(n))
            bound = c1 * tau ** n + noise_floor
            assert gap <= bound, f"anchor gap {gap:.2e} > {bound:.2e} at n={n}"
    report(2, f"10 points, tau_emp <= {worst_tau:.4f}, min r^2 {worst_r2:.4f}, "
              f"anchor independence verified for n in [10, 35]")


def test_criterion_3_cone_contraction(constants):
    rng = np.random.default_rng(303)
    zeta_emp_global = 0.0
    worst_ratio = 0.0
    for point in range(5):
        x = BasePoint.random(rng, 10)
        rep = image_diameter(POT_DEFAULT, FAMILY, x, CONE,
                             rng=rng, zeta=constants.zeta)
        assert rep.zeta_emp < 1.0
        bound = math.tanh(rep.m_emp / 4.0)
        zeta_emp = rep.zeta_emp
        fns = sample_cone_functions(CONE, 512, 20, rng)
        for i in range(0, 20, 2):
            f, g = fns[i], fns[i + 1]
            theta_in = hilbert_distance(f, g, CONE)
            img_f = apply_fiber_operator(POT_DEFAULT, FAMILY, x, f)
            img_g = apply_fiber_operator(POT_DEFAULT, FAMILY, x, g)
            for img in (img_f, img_g):
                ratio = holder_seminorm(img, CONE.alpha) / (
                    CONE.K * float(np.min(img.values)))
                zeta_emp = max(zeta_emp, ratio)
            theta_out = hilbert_distance(img_f, img_g, CONE)
            assert theta_out <= bound * theta_in + 1e-8, \
                f"Birkhoff violated: {theta_out:.3e} vs {bound * theta_in:.3e}"
            if theta_in > 0:
                worst_ratio = max(worst_ratio, theta_out / theta_in)
        assert zeta_emp < 1.0, f"images left the unit cone: {zeta_emp:.3f}"
        zeta_emp_global = max(zeta_emp_global, zeta_emp)

    # independent O(N^3) oracle for the metric itself
    fns = sample_cone_functions(CONE, 512, 2, np.random.default_rng(17))
    fast = hilbert_distance(fns[0], fns[1], CONE, n_theta=32)
    brute = brute_force_theta(fns[0].values[::16], fns[1].values[::16],
                              CONE.K, CONE.alpha)
    assert abs(fast - brute) <= 1e-9
    report(3, f"50 pairs at 5 points: zeta_emp {zeta_emp_global:.3f} < 1, "
              f"max contraction ratio {worst_ratio:.3f}, oracle gap "
              f"{abs(fast - brute):.1e}")


def test_criterion_4_fiber_eigen_equation():
    rng = np.random.default_rng(404)
    ys = np.arange(512) / 512
    worst30 = 0.0
    min_drop = math.inf
    phi_eval = phi_evaluator(POT_DEFAULT, FAMILY, tol=1e-13)
    for _ in range(10):
        x = BasePoint.random(rng, 40)
        psis = []
        for _ in range(10):
            amps = rng.uniform(-0.3, 0.3, size=3)
            vals = 1.0 + sum(a * np.cos(2 * np.pi * (k + 1) * ys)
                             for k, a in enumerate(amps))
            psis.append(GridFn(vals))
        r15s = eigen_equation_residual(POT_DEFAULT, FAMILY, x, psis, 15,
                                       phi_eval)
        r30s = eigen_equation_residual(POT_DEFAULT, FAMILY, x, psis, 30,
                                       phi_eval)
        for r15, r30 in zip(r15s, r30s):
            assert r30 <= 1e-6, f"residual {r30:.2e} at n=30"
            assert r30 <= r15 / 3.0, f"no 3x decrease: {r15:.2e} -> {r30:.2e}"
            worst30 = max(worst30, r30)
            if r30 > 0:
                min_drop = min(min_drop, r15 / r30)
    report(4, f"100 cases: max residual {worst30:.2e} at n=30, "
              f"min decrease factor {min_drop:.1f}x from n=15")


def test_criterion_5_pressure_equality(default_solutions):
    start = time.time()
    _, base_coarse, full_coarse = default_solutions
    gap_coarse = abs(base_coarse.log_eigenvalue - full_coarse.log_eigenvalue)
    assert gap_coarse <= 5e-3, f"pressure gap {gap_coarse:.2e}"

    ev_fine = phi_evaluator(POT_DEFAULT, FAMILY, tol=1e-12, n_nodes=1024)
    base_fine = rpf_base_solve(ev_fine, 1024, tol=1e-12, capacity=96)
    full_fine = rpf_full_solve(POT_DEFAULT, FAMILY, 512, 512, tol=1e-12)
    gap_fine = abs(base_fine.log_eigenvalue - full_fine.log_eigenvalue)
    assert gap_fine <= gap_coarse / 1.5, \
        f"gap did not shrink 1.5x: {gap_coarse:.2e} -> {gap_fine:.2e}"

    elapsed = time.time() - start
    assert elapsed < 600.0, f"took {elapsed:.0f}s"
    report(5, f"gap {gap_coarse:.2e} at (256^2, 512) -> {gap_fine:.2e} "
              f"doubled ({gap_coarse / gap_fine:.1f}x shrink), {elapsed:.0f}s")


def test_criterion_6_intertwining(default_solutions):
    ev, _, _ = default_solutions
    rng = np.random.default_rng(606)
    xs = [BasePoint.random(rng, 40) for _ in range(10)]
    psis = []
    for _ in range(5):
        a, b = rng.uniform(-0.4, 0.4, size=2)
        psis.append(GridFn2D.from_callable(
            lambda X, Y: 1.0 + a * np.cos(2 * np.pi * (X + Y))
            + b * np.sin(2 * np.pi * Y), 512, 512))
    worst = intertwine_residual(POT_DEFAULT, FAMILY, psis, xs, 30, ev)
    assert worst <= 1e-4, f"intertwining residual {worst:.2e}"
    report(6, f"max residual {worst:.2e} over 5 functions x 10 points at n=30")


def test_criterion_7_disintegration(default_solutions):
    _, base, full = default_solutions
    rng = np.random.default_rng(707)
    ones = GridFn2D.ones(256, 256)
    worst_mass = 0.0
    for _ in range(10):
        x = BasePoint.random(rng, 40)
        mass = conditional_integrate(POT_DEFAULT, FAMILY, x, ones, full, base, 30)
        worst_mass = max(worst_mass, abs(mass - 1.0))
    assert worst_mass <= 1e-5, f"conditional mass off by {worst_mass:.2e}"

    worst_gap = 0.0
    for _ in range(5):
        a, b = rng.uniform(-0.4, 0.4, size=2)
        k = int(rng.integers(1, 3))
        psi = GridFn2D.from_callable(
            lambda X, Y: 1.0 + a * np.cos(2 * np.pi * X)
            + b * np.sin(2 * np.pi * (X + k * Y)), 256, 256)
        d_direct = direct_integral(psi, full)
        d_disint = disintegrate_integral(POT_DEFAULT, FAMILY, psi, full, base,
                                         25, capacity=96)
        worst_gap = max(worst_gap, abs(d_direct - d_disint))
    assert worst_gap <= 1e-3, f"two-route gap {worst_gap:.2e}"
    report(7, f"max |mu_x(Y)-1| {worst_mass:.2e} at 10 points, "
              f"max two-route gap {worst_gap:.2e} over 5 functions")


def test_criterion_8_word_lemmas(constants):
    # exact counting: closed form against exhaustive enumeration
    for n in (8, 12, 16):
        for iota in (0.3, 0.7, 0.995):
            fast = count_I(iota, n, q=1, d=2)
            slow = count_I(iota, n, q=1, d=2, exhaustive=True)
            assert fast == slow, (n, iota, fast, slow)

    # bad-mass decay in the window length
    rng = np.random.default_rng(808)
    x = BasePoint.random(rng, 20)
    ms = np.arange(2, 8)
    ratios = [bad_mass_ratio(POT_DEFAULT, FAMILY, x, 0.37, 14, int(m), constants)
              for m in ms]
    slope = np.polyfit(ms, np.log(ratios), 1)[0]
    base_fit = math.exp(slope)
    assert base_fit <= constants.theta + 0.1, \
        f"decay base {base_fit:.3f} vs theta+0.1 = {constants.theta + 0.1:.3f}"

    # sandwich: cascades of 1 stay within e^(+-M_emp) of the accumulated
    # transverse-potential weight; the orbit point f^29(x) still needs
    # enough digits left for its own potential cascade
    x = BasePoint.random(rng, 96)
    rep = image_diameter(POT_DEFAULT, FAMILY, x, CONE,
                         rng=rng, zeta=constants.zeta)
    s_n_phi = 0.0
    cascade = GridFn.ones(512)
    worst_dev = 0.0
    for n in range(1, 31):
        cascade = apply_fiber_operator(POT_DEFAULT, FAMILY, x.forward(n - 1),
                                       cascade)
        s_n_phi += compute_phi(POT_DEFAULT, FAMILY, x.forward(n - 1),
                               tol=1e-11)[0]
        log_hi = cascade.log_offset + math.log(float(np.max(cascade.values)))
        log_lo = cascade.log_offset + math.log(float(np.min(cascade.values)))
        dev = max(log_hi - s_n_phi, s_n_phi - log_lo)
        worst_dev = max(worst_dev, dev)
        assert dev <= rep.m_emp, \
            f"sandwich violated at n={n}: deviation {dev:.3f} vs M {rep.m_emp:.3f}"
    report(8, f"count oracle exact to n=16; mass decay base {base_fit:.3f} "
              f"<= {constants.theta + 0.1:.3f}; sandwich deviation "
              f"{worst_dev:.3f} <= M_emp {rep.m_emp:.3f} up to n=30")


def test_criterion_9_holder_regularity():
    scales = tuple(2.0 ** -k for k in range(4, 13))
    est = estimate_holder(phi_evaluator(POT_DEFAULT, FAMILY, tol=1e-10),
                          scales, pairs_per_scale=16,
                          rng=np.random.default_rng(909), capacity=80)
    assert not est.degenerate
    assert est.exponent_emp > 0.0
    ratios = est.scale_ratios()
    med = float(np.median(ratios))
    assert np.all(ratios <= 2.0 * med), f"ratio spread {ratios / med}"
    assert np.all(ratios >= 0.5 * med), f"ratio spread {ratios / med}"
    report(9, f"exponent {est.exponent_emp:.3f} (r^2 {est.r_squared:.3f}), "
              f"scale ratios within [{np.min(ratios) / med:.2f}, "
              f"{np.max(ratios) / med:.2f}] of median")
