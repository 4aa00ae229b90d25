"""Fiber conformal measures, eigendata of the base and full operators, and
the disintegration checks tying them together.

The depth-n fiber measure over x is a vector of node weights: the anchor
pulled back through the adjoint fiber cascade, as in the eigen-equation
L_x* nu_f(x) = e^Phi(x) nu_x.  The pull-back is the one Phi's exact values
use (``phi._MeasureStore``), started from the anchor instead of nu_0.  The
measures over a list of points are one pull-back request: points whose
orbits merge share the pulled-back weights below the merge, so the measures
over a dyadic base grid take one adjoint step per distinct (orbit point,
depth) pair, and build one stencil per distinct orbit point, besides the
kept one over the fixed point x = 0.
Eigendata come from power iteration on the cached operator stencils; the
adjoint iteration uses the exact transpose of the same incidence
structure.  Each iteration extrapolates along its settled convergence rate
and reads its residual off its last step (``operators._power_loop``).  A
torus of 256 rows or more starts both iterations from the eigenvectors of
the torus with 16 times fewer rows, interpolated in x, instead of ones and
the uniform measure (``rpf_full_solve``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import BasePoint
from .errors import CapacityExhaustedError
from .fibers import MpFamily
from .gridfn import MIN_NODES, GridFn, GridFn2D
from .operators import (_full_stencil, _power_iterate, _torus_stencil,
                        base_stencil, dyadic_points)
from .phi import (DEFAULT_ANCHOR_Y, _dyadic_exponent, _MeasureStore,
                  anchor_weights)
from .potential import TrigPotential


def _anchored_store(pot: TrigPotential, family: MpFamily, n_nodes: int,
                    anchor_y: float) -> _MeasureStore:
    """A store of pulled-back measures whose start is the delta anchor's
    weights (``phi.anchor_weights``), with log-mass 0."""
    return _MeasureStore(pot, family, n_nodes,
                         (anchor_weights("delta", anchor_y, n_nodes), 0.0))


def _anchored_pull(pot: TrigPotential, family: MpFamily, xs: list[BasePoint],
                   n: int, n_nodes: int, anchor_y: float,
                   stencils: bool = False):
    """The pull of xs at depth n from a fresh anchored store (see
    ``fiber_measures``); with ``stencils``, also the stencils over xs."""
    if n < 0:
        raise ValueError(f"depth must be >= 0, got {n}")
    if any(x.capacity < n for x in xs):
        raise CapacityExhaustedError(f"cascade of depth {n} needs capacity >= {n}")
    store = _anchored_store(pot, family, n_nodes, anchor_y)
    return store.pull(xs, n, stencils)


def fiber_measures(pot: TrigPotential, family: MpFamily, xs: list[BasePoint],
                   n: int, n_nodes: int,
                   anchor_y: float = DEFAULT_ANCHOR_Y) -> list[np.ndarray]:
    """Node weights of the depth-n fiber measure over each x in xs.

    Each is the entry over x with n steps left in one anchored store of
    pulled-back measures: the adjoint fiber steps over f^(n-1)(x), ..., x,
    each renormalized by its sum, so that <w, psi> / <w, 1> pairs the
    depth-n cascade of psi with the anchor.  All of xs go to the store as
    one ``pull``: orbits that merge share every step below the merge, and
    every distinct orbit point off zero gets one stencil.  The returned
    arrays are read-only: repeated points, merged chains and the bare
    anchor at n = 0 hand out the same array.
    """
    return [w for w, _ in _anchored_pull(pot, family, xs, n, n_nodes,
                                         anchor_y)]


def fiber_measure(pot: TrigPotential, family: MpFamily, x: BasePoint, n: int,
                  n_nodes: int, anchor_y: float = DEFAULT_ANCHOR_Y) -> np.ndarray:
    """Node weights of the depth-n fiber measure over x, summing to 1."""
    return fiber_measures(pot, family, [x], n, n_nodes, anchor_y)[0]


def _pair(w: np.ndarray, psi: GridFn) -> float:
    """Integral of psi against the node weights w; both pairings are the
    same dot product, so psi == 1 gives exactly 1."""
    ratio = np.dot(w, psi.values) / np.dot(w, np.ones(psi.n_nodes))
    return math.exp(psi.log_offset) * float(ratio)


def fiber_integrate(pot: TrigPotential, family: MpFamily, x: BasePoint,
                    psi: GridFn, n: int,
                    anchor_y: float = DEFAULT_ANCHOR_Y) -> float:
    """Integral of psi against the depth-n fiber measure over x."""
    return _pair(fiber_measure(pot, family, x, n, psi.n_nodes, anchor_y), psi)


def eigen_equation_residual(pot: TrigPotential, family: MpFamily,
                            x: BasePoint, psis: list[GridFn], n: int,
                            phi_eval,
                            anchor_y: float = DEFAULT_ANCHOR_Y) -> list[float]:
    """Gaps between the two sides of the fiber eigen-equation at depth n,
    one per test function in psis (all on one grid).

    Left side: one transfer step of psi integrated against the depth-n
    measure over f(x).  Right side: e^Phi(x) times psi integrated at depth
    n+1 over x, with Phi(x) from ``phi_eval`` (a ``phi_evaluator`` on the
    grid of psis and this anchor).  Both measures come from one anchored
    store: the pull of x at depth n + 1 stores the entry over f(x) at depth
    n on its way, so the second pull is a hit and each orbit point gets one
    stencil, at most n + 1; the pull hands back its stencil over x for the
    transfer step.  The theorem sends the gap to zero geometrically in n.
    Neither measure nor the step's stencil depends on psi, so they are
    built once and paired with every function.
    """
    if x.capacity < n + 1:
        raise CapacityExhaustedError(
            f"residual at depth {n} needs capacity >= {n + 1}")
    n_nodes = psis[0].n_nodes
    store = _anchored_store(pot, family, n_nodes, anchor_y)
    ((w_rhs, _),), (stencil,) = store.pull([x], n + 1, stencils=True)
    ((w_lhs, _),) = store.pull([x.forward(1)], n)
    e_phi = math.exp(phi_eval(x))
    return [abs(_pair(w_lhs, stencil.step(psi)) - e_phi * _pair(w_rhs, psi))
            for psi in psis]


@dataclass
class RpfSolution:
    """Eigentriple of a discretized transfer operator.

    ``log_eigenvalue`` is the pressure estimate; ``eigenfunction`` is scaled
    so that its integral against the weights is 1; ``weights`` are
    nonnegative and sum to 1 (a quadrature rule for the eigenmeasure, not a
    pointwise object).  ``residual`` is the larger relative residual of
    the two returned vectors, read off the last step of each power
    iteration; ``iterations`` counts the applications of the operator on
    the solve's own grid in both iterations.  A torus solve started from a
    coarser grid's (``rpf_full_solve``) makes that solve's applications
    besides, each 1/16 of the work, and does not count them.
    """

    log_eigenvalue: float
    eigenfunction: GridFn | GridFn2D
    weights: np.ndarray
    residual: float
    iterations: int

    @property
    def mu_weights(self) -> np.ndarray:
        """Node weights of the equilibrium measure: eigenfunction times
        eigenmeasure (already normalized by the joint scaling)."""
        h = self.eigenfunction.values
        return self.weights * h.reshape(self.weights.shape)

    def to_json(self) -> dict:
        return {"log_eigenvalue": self.log_eigenvalue,
                "residual": self.residual, "iterations": self.iterations,
                "weights_shape": list(np.shape(self.weights))}


def rpf_base_solve(phi_eval, n_x: int, tol: float = 1e-10,
                   max_iter: int = 10000, capacity: int = 64) -> RpfSolution:
    """Eigendata of the base operator discretized on n_x nodes.

    ``phi_eval`` gives the transverse potential at the list of the 2 n_x
    exact dyadic preimage nodes, in one call (see ``operators.base_stencil``):
    a ``phi_evaluator`` tabulates them in order and pulls the exact values
    back 64 points at a time, so a 64-node solve makes 3 ``fiber_stencils``
    requests (L_0 and two blocks).  The resulting stencil is power
    iterated forward (eigenfunction) and transposed (eigenmeasure weights).
    """
    stencil = base_stencil(phi_eval, n_x, capacity)
    lam, v, u, residual, iterations = _power_iterate(stencil, tol, max_iter)
    return RpfSolution(log_eigenvalue=math.log(lam), eigenfunction=GridFn(v),
                       weights=u, residual=residual, iterations=iterations)


# a torus solve on n_x >= _COARSE_RATIO * MIN_NODES rows starts from the
# solve on n_x / _COARSE_RATIO rows
_COARSE_RATIO = 16


def _coarse_starts(pot: TrigPotential, family: MpFamily, n_x: int, n_y: int,
                   tol: float, max_iter: int):
    """Start vectors of the n_x x n_y torus solve, for ``_power_iterate``,
    from the solve on the (n_x / _COARSE_RATIO) x n_y torus at the same tol
    and max_iter.

    Its operator is built past ``_full_stencil``'s cache and dropped on
    return, before the fine build.  Each start function, called once,
    interpolates one coarse eigenvector linearly in x onto the n_x rows
    (``GridFn2D.rows_at``) and normalizes it in place: the eigenfunction by
    its max, the eigenmeasure weights by their sum.
    """
    stencil = _torus_stencil(pot, family, n_x // _COARSE_RATIO, n_y)
    _, h, m, _, _ = _power_iterate(stencil, tol, max_iter)
    # each coarse vector is dropped once its start is built, so neither is
    # held through the fine loops (0.26 MB of tracemalloc peak at 512²)
    coarse = {np.max: h, np.sum: m}
    rows = np.arange(n_x) / n_x

    def start(norm):
        v = GridFn2D(coarse.pop(norm).reshape(-1, n_y)).rows_at(rows)
        v /= norm(v)
        return v.reshape(-1)

    return lambda: start(np.max), lambda: start(np.sum)


def rpf_full_solve(pot: TrigPotential, family: MpFamily, n_x: int, n_y: int,
                   tol: float = 1e-10, max_iter: int = 10000) -> RpfSolution:
    """Eigendata of the full operator on the n_x x n_y torus grid.

    From n_x = _COARSE_RATIO * MIN_NODES (256) rows on, both power
    iterations start from the solve on a base grid _COARSE_RATIO times
    coarser (``_coarse_starts``) instead of ones and the uniform measure.
    The eigenfunction and the fiber measures of the eigenmeasure's
    disintegration are Hölder in x, so the coarse eigenvectors give the
    fine ones up to interpolation error: at 256 x 256 and tol 1e-12 the
    solve makes 31 applications of the fine operator instead of 45, and
    the coarse one 1/16 of the work per application.
    """
    if n_x * n_y > 1 << 20:
        raise ValueError("torus grid capped at 2^20 nodes")
    starts = None
    if n_x // _COARSE_RATIO >= MIN_NODES:
        starts = _coarse_starts(pot, family, n_x, n_y, tol, max_iter)
    stencil = _full_stencil(pot, family, n_x, n_y)
    lam, v, u, residual, iterations = _power_iterate(stencil, tol, max_iter,
                                                     starts)
    return RpfSolution(log_eigenvalue=math.log(lam),
                       eigenfunction=GridFn2D(v.reshape(n_x, n_y)),
                       weights=u.reshape(n_x, n_y), residual=residual,
                       iterations=iterations)


def intertwine_residual(pot: TrigPotential, family: MpFamily,
                        big_psis: list[GridFn2D], x_samples: list[BasePoint],
                        n: int, phi_eval,
                        anchor_y: float = DEFAULT_ANCHOR_Y) -> float:
    """Largest gap between the two routes around the intertwining square,
    over every test function in big_psis and every sample point.

    Route one applies the full operator and integrates its fiber restriction
    over x; route two integrates the restrictions at both base preimages and
    sums them with e^Phi weights.  The measures over every sample point and
    both its preimages come from one pull (both preimages map onto x, so
    they share every step from (x, n - 1) down), which also hands back the
    fiber stencils over the preimages that make the full operator's
    columns; for n >= 1 it builds them anyway.  Every test function is
    paired with them.
    """
    n_y = big_psis[0].shape[1]
    m = len(x_samples)
    xbars = [xb for x in x_samples for xb in x.preimages()]
    entries, stencils = _anchored_pull(pot, family, [*x_samples, *xbars], n,
                                       n_y, anchor_y, stencils=True)
    ws = [w for w, _ in entries]
    stencils = stencils[m:]
    e_phis = [math.exp(phi_eval(xb)) for xb in xbars]
    worst = 0.0
    for i in range(m):
        col = (2 * i, 2 * i + 1)  # the preimages of x_samples[i]
        for big_psi in big_psis:
            slices = [big_psi.slice_at(float(xbars[j])) for j in col]
            column = sum(stencils[j].apply(f.values)
                         for j, f in zip(col, slices))
            lhs = _pair(ws[i], GridFn(column, big_psi.log_offset))
            rhs = sum(e_phis[j] * _pair(ws[m + j], f)
                      for j, f in zip(col, slices))
            worst = max(worst, abs(lhs - rhs))
    return worst


def _fiber_grid(big_psi: GridFn2D, full_sol: RpfSolution) -> int:
    n_y = full_sol.eigenfunction.shape[1]
    if big_psi.shape[1] != n_y:
        raise ValueError("test function and eigenfunction need matching fiber grids")
    return n_y


def _conditional_pairings(ws: list[np.ndarray], xs: list[BasePoint],
                          big_psi: GridFn2D, full_sol: RpfSolution,
                          base_sol: RpfSolution) -> list[float]:
    """psi * h paired with the fiber measure weights ws[i] over xs[i],
    divided by h_base(xs[i]), for every i.  The slices of psi and h and the
    values of h_base are read at all of xs with one interpolation each."""
    t = np.array([float(x) for x in xs])
    h = full_sol.eigenfunction
    integrands = big_psi.rows_at(t) * h.rows_at(t)
    h_base = base_sol.eigenfunction.interp(t)
    if np.any(h_base <= 0.0):
        raise AssertionError("base eigenfunction must be positive")
    offset = big_psi.log_offset + h.log_offset
    return [_pair(w, GridFn(row, offset)) / hb
            for w, row, hb in zip(ws, integrands, h_base)]


def conditional_integrate(pot: TrigPotential, family: MpFamily, x: BasePoint,
                          big_psi: GridFn2D, full_sol: RpfSolution,
                          base_sol: RpfSolution, n: int,
                          anchor_y: float = DEFAULT_ANCHOR_Y) -> float:
    """Integral of psi(x, .) against the conditional measure over x.

    The conditional density w.r.t. the fiber measure is the full
    eigenfunction's slice divided by the base eigenfunction's value, so this
    evaluates (integral of psi * h against nu_x at depth n) / h_base(x).
    """
    n_y = _fiber_grid(big_psi, full_sol)
    w = fiber_measure(pot, family, x, n, n_y, anchor_y)
    return _conditional_pairings([w], [x], big_psi, full_sol, base_sol)[0]


def disintegrate_integral(pot: TrigPotential, family: MpFamily,
                          big_psi: GridFn2D, full_sol: RpfSolution,
                          base_sol: RpfSolution, n: int,
                          capacity: int = 64,
                          anchor_y: float = DEFAULT_ANCHOR_Y) -> float:
    """Integral of psi d(mu) computed through the disintegration route:
    conditional fiber integrals weighted by the base equilibrium quadrature.

    The fiber measures of all base nodes come from one ``fiber_measures``
    call, so the nodes' merging dyadic orbits share their adjoint steps and
    their stencils, and the integrands are read at all nodes at once.
    """
    n_y = _fiber_grid(big_psi, full_sol)
    n_x = base_sol.eigenfunction.n_nodes
    mu_hat = base_sol.mu_weights
    nodes = [i for i in range(n_x) if mu_hat[i] != 0.0]
    xs = dyadic_points(nodes, n_x, capacity)
    ws = fiber_measures(pot, family, xs, n, n_y, anchor_y)
    total = 0.0
    for i, value in zip(nodes, _conditional_pairings(ws, xs, big_psi,
                                                     full_sol, base_sol)):
        total += mu_hat[i] * value
    return total


def direct_integral(big_psi: GridFn2D, full_sol: RpfSolution) -> float:
    """Integral of psi d(mu) straight from the full solution's node weights."""
    return float(np.sum(full_sol.mu_weights * big_psi.values)
                 * math.exp(big_psi.log_offset))


def measure_continuity_probe(pot: TrigPotential, family: MpFamily,
                             psi: GridFn, x: BasePoint,
                             deltas: list[float], n: int,
                             anchor_y: float = DEFAULT_ANCHOR_Y) -> list[float]:
    """Fiber-integral gaps |nu_x(psi) - nu_x'(psi)| for x' = x + delta.

    Deltas must be dyadic so the perturbed points are exact; the gaps should
    shrink as delta does (weak-* continuity of the fiber measures).
    """
    xs = [x, *(x.add_dyadic(1, _dyadic_exponent(d)) for d in deltas)]
    base_w, *ws = fiber_measures(pot, family, xs, n, psi.n_nodes, anchor_y)
    base_val = _pair(base_w, psi)
    return [abs(base_val - _pair(w, psi)) for w in ws]
