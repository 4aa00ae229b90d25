"""Fiber conformal measures, eigendata of the base and full operators, and
the disintegration checks tying them together.

The depth-n fiber measure over x is a vector of node weights: the anchor
pulled back through the adjoint fiber cascade, as in the eigen-equation
L_x* nu_f(x) = e^Phi(x) nu_x.  Points whose orbits merge share the pulled-back
weights below the merge, so the measures over a dyadic base grid take one
adjoint step per distinct (orbit point, depth) pair, and every step over the
fixed point x = 0 reuses one stencil.  Eigendata come from power iteration on
the cached operator stencils; the adjoint iteration uses the exact transpose
of the same incidence structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import BasePoint
from .errors import CapacityExhaustedError
from .fibers import MpFamily
from .gridfn import GridFn, GridFn2D, interp_nodes
from .operators import (
    _full_stencil,
    _power_iterate,
    apply_fiber_operator,
    base_stencil,
    full_operator_column,
)
from .phi import DEFAULT_ANCHOR_Y, _OrbitStencils, compute_phi
from .potential import TrigPotential


def fiber_measures(pot: TrigPotential, family: MpFamily, xs: list[BasePoint],
                   n: int, n_nodes: int,
                   anchor_y: float = DEFAULT_ANCHOR_Y) -> list[np.ndarray]:
    """Node weights of the depth-n fiber measure over each x in xs.

    Each starts from the interpolation weights of the anchor point and
    applies the adjoint fiber steps over f^(n-1)(x), ..., x, renormalizing
    each by its sum, so that <w, psi> / <w, 1> pairs the depth-n cascade of
    psi with the anchor.  The weights over x with d steps left depend only
    on (x, d), so orbits that merge share every step below the merge.  The
    returned arrays are read-only: repeated points, merged chains and the
    bare anchor at n = 0 hand out the same array.
    """
    if any(x.capacity < n for x in xs):
        raise CapacityExhaustedError(f"cascade of depth {n} needs capacity >= {n}")
    (j0, j1), (a0, a1) = interp_nodes(anchor_y, n_nodes)
    anchor = np.bincount([j0, j1], weights=[a0, a1], minlength=n_nodes)
    anchor.setflags(write=False)
    stencils = _OrbitStencils(pot, family, n_nodes)
    done: dict[tuple[BasePoint, int], np.ndarray] = {}
    out = []
    for x in xs:
        chain = []  # (point, steps left) from x down to the first known one
        point, left = x, n
        while left > 0 and (point, left) not in done:
            chain.append((point, left))
            point, left = point.forward(1), left - 1
        w = done[point, left] if left > 0 else anchor
        for key in reversed(chain):
            w = stencils(key[0]).apply_adjoint(w)
            w /= np.sum(w)
            w.setflags(write=False)
            done[key] = w
        out.append(w)
    return out


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
                            x: BasePoint, psi: GridFn, n: int,
                            anchor_y: float = DEFAULT_ANCHOR_Y,
                            phi_value: float | None = None,
                            phi_tol: float = 1e-10) -> float:
    """Gap between the two sides of the fiber eigen-equation at depth n.

    Left side: one transfer step of psi integrated against the depth-n
    measure over f(x).  Right side: e^Phi(x) times psi integrated at depth
    n+1 over x.  Both sides are computed independently; the theorem sends
    the gap to zero geometrically in n.
    """
    if x.capacity < n + 1:
        raise CapacityExhaustedError("residual at depth n needs capacity >= n+1")
    lifted = apply_fiber_operator(pot, family, x, psi)
    lhs = fiber_integrate(pot, family, x.forward(1), lifted, n, anchor_y)
    if phi_value is None:
        phi_value, _, _ = compute_phi(pot, family, x, tol=phi_tol,
                                      anchor_y=anchor_y,
                                      n_nodes=psi.n_nodes)
    rhs = math.exp(phi_value) * fiber_integrate(pot, family, x, psi, n + 1,
                                                anchor_y)
    return abs(lhs - rhs)


@dataclass
class RpfSolution:
    """Eigentriple of a discretized transfer operator.

    ``log_eigenvalue`` is the pressure estimate; ``eigenfunction`` is scaled
    so that its integral against the weights is 1; ``weights`` are
    nonnegative and sum to 1 (a quadrature rule for the eigenmeasure, not a
    pointwise object).
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

    ``phi_eval`` maps a BasePoint to the transverse potential; it is called
    once per exact dyadic preimage node and the resulting stencil is power
    iterated forward (eigenfunction) and transposed (eigenmeasure weights).
    """
    stencil = base_stencil(phi_eval, n_x, capacity)
    lam, v, u, residual, iterations = _power_iterate(stencil, tol, max_iter)
    return RpfSolution(log_eigenvalue=math.log(lam), eigenfunction=GridFn(v),
                       weights=u, residual=residual, iterations=iterations)


def rpf_full_solve(pot: TrigPotential, family: MpFamily, n_x: int, n_y: int,
                   tol: float = 1e-10, max_iter: int = 10000) -> RpfSolution:
    """Eigendata of the full operator on the n_x x n_y torus grid."""
    if n_x * n_y > 1 << 20:
        raise ValueError("torus grid capped at 2^20 nodes")
    stencil = _full_stencil(pot, family, n_x, n_y)
    lam, v, u, residual, iterations = _power_iterate(stencil, tol, max_iter)
    return RpfSolution(log_eigenvalue=math.log(lam),
                       eigenfunction=GridFn2D(v.reshape(n_x, n_y)),
                       weights=u.reshape(n_x, n_y), residual=residual,
                       iterations=iterations)


def intertwine_residual(pot: TrigPotential, family: MpFamily,
                        big_psi: GridFn2D, x_samples: list[BasePoint],
                        n: int, phi_eval,
                        anchor_y: float = DEFAULT_ANCHOR_Y) -> float:
    """Largest gap between the two routes around the intertwining square.

    Route one applies the full operator and integrates its fiber restriction
    over x; route two integrates the restrictions at both base preimages and
    sums them with e^Phi weights.  The measures over x and both preimages
    come from one ``fiber_measures`` call: both preimages map onto x, so
    they share every step from (x, n - 1) down.
    """
    worst = 0.0
    for x in x_samples:
        column = full_operator_column(pot, family, x, big_psi)
        w, *w_bars = fiber_measures(pot, family, [x, *x.preimages()], n,
                                    big_psi.shape[1], anchor_y)
        lhs = _pair(w, column)
        rhs = 0.0
        for xbar, w_bar in zip(x.preimages(), w_bars):
            slice_fn = big_psi.slice_at(float(xbar))
            rhs += math.exp(phi_eval(xbar)) * _pair(w_bar, slice_fn)
        worst = max(worst, abs(lhs - rhs))
    return worst


def _fiber_grid(big_psi: GridFn2D, full_sol: RpfSolution) -> int:
    n_y = full_sol.eigenfunction.shape[1]
    if big_psi.shape[1] != n_y:
        raise ValueError("test function and eigenfunction need matching fiber grids")
    return n_y


def _conditional_pairing(w: np.ndarray, x: BasePoint, big_psi: GridFn2D,
                         full_sol: RpfSolution, base_sol: RpfSolution) -> float:
    """psi * h paired with the fiber measure weights w over x, divided by
    h_base(x)."""
    h_slice = full_sol.eigenfunction.slice_at(float(x))
    psi_slice = big_psi.slice_at(float(x))
    integrand = GridFn(psi_slice.values * h_slice.values,
                       psi_slice.log_offset + h_slice.log_offset)
    h_base = float(base_sol.eigenfunction.interp(float(x)))
    if h_base <= 0.0:
        raise AssertionError("base eigenfunction must be positive")
    return _pair(w, integrand) / h_base


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
    return _conditional_pairing(w, x, big_psi, full_sol, base_sol)


def disintegrate_integral(pot: TrigPotential, family: MpFamily,
                          big_psi: GridFn2D, full_sol: RpfSolution,
                          base_sol: RpfSolution, n: int,
                          capacity: int = 64,
                          anchor_y: float = DEFAULT_ANCHOR_Y) -> float:
    """Integral of psi d(mu) computed through the disintegration route:
    conditional fiber integrals weighted by the base equilibrium quadrature.

    The fiber measures of all base nodes come from one ``fiber_measures``
    call, so the nodes' merging dyadic orbits share their adjoint steps.
    """
    n_y = _fiber_grid(big_psi, full_sol)
    n_x = base_sol.eigenfunction.n_nodes
    mu_hat = base_sol.mu_weights
    nodes = [i for i in range(n_x) if mu_hat[i] != 0.0]
    xs = [BasePoint.from_fraction(i, n_x, capacity) for i in nodes]
    ws = fiber_measures(pot, family, xs, n, n_y, anchor_y)
    total = 0.0
    for i, x, w in zip(nodes, xs, ws):
        total += mu_hat[i] * _conditional_pairing(w, x, big_psi, full_sol,
                                                  base_sol)
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
    xs = [x]
    for delta in deltas:
        k = round(-math.log2(delta))
        if 2.0 ** -k != delta:
            raise ValueError(f"delta {delta} is not dyadic")
        xs.append(x.add_dyadic(1, k))
    base_w, *ws = fiber_measures(pot, family, xs, n, psi.n_nodes, anchor_y)
    base_val = _pair(base_w, psi)
    return [abs(base_val - _pair(w, psi)) for w in ws]
