"""Fiberwise, base and full transfer operators on grid functions.

Every operator is built from one set of weights: for a base point x and a
fiber grid of n nodes, ``fiber_weights`` lists the interpolation nodes of
both g_x-preimages of every grid node, weighted by e^phi at the preimage.
The fiber stencil holds them once per base point, for the forward step and
its exact adjoint.  The full operator reads Psi on the half grid that holds
the base preimages of its nodes, then applies the fiber weights over those
preimages: 8 entries per node, 33.5 MB of indices and weights at 512 x 512.
The base operator uses the same interpolation routine
(``gridfn.interp_nodes``) with e^Phi weights.

Every application renormalizes its output and accumulates the scale factor in
log_offset, so n-fold cascades never overflow even though the raw iterates
grow like e^(n * pressure).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .base import BasePoint
from .errors import CapacityExhaustedError, NoConvergenceError, NonpositiveFunctionError
from .fibers import MpFamily, grid_preimages
from .gridfn import GridFn, GridFn2D, interp_nodes
from .potential import TrigPotential


def fiber_weights(pot: TrigPotential, family: MpFamily, xs, n_nodes: int):
    """Transfer weights of the fiber operators over the base points xs.

    Returns (idx, wgt), each of shape (len(xs), 4, n_nodes).  Entry
    (i, 2 * branch + side, j) is the left (side 0) or right (side 1)
    interpolation node of the g_x-preimage of j / n_nodes on that branch,
    x = xs[i], and its interpolation weight times e^phi(x, preimage).
    """
    xv = np.array([float(x) for x in xs])
    ys = np.array([grid_preimages(family, x, n_nodes) for x in xv])
    (j0, j1), (w0, w1) = interp_nodes(ys, n_nodes)
    e_phi = np.exp(pot(xv[:, None, None], ys))
    shape = (len(xv), 4, n_nodes)
    return (np.stack([j0, j1], axis=2).reshape(shape),
            np.stack([w0 * e_phi, w1 * e_phi], axis=2).reshape(shape))


class _Stencil:
    """Sparse incidence structure of a discretized transfer operator.

    Row i of (idx, wgt) lists the source nodes and interpolation-times-
    potential weights contributing to output node i.  Forward application is
    a gather; the adjoint is the exact transpose, applied as a scatter, so
    the two iterations are numerically consistent duals.
    """

    def __init__(self, idx: np.ndarray, wgt: np.ndarray, size: int):
        self.idx = idx
        self.wgt = wgt
        self.size = size

    def apply(self, v: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ij->i", self.wgt, v[self.idx])

    def apply_adjoint(self, u: np.ndarray) -> np.ndarray:
        contrib = self.wgt * u[:, None]
        return np.bincount(self.idx.ravel(), weights=contrib.ravel(),
                           minlength=self.size)

    def step(self, fn):
        """One transfer step on a GridFn or GridFn2D: apply, keep the log
        offset, renormalize."""
        out = self.apply(fn.values.reshape(-1)).reshape(fn.values.shape)
        return type(fn)(out, fn.log_offset).renormalize()


def _power_loop(apply, v: np.ndarray, norm, tol: float, max_iter: int,
                side: str):
    """Iterate v <- apply(v) / norm(apply(v)) until log norm and iterate both
    settle; the eigenvalue alone can settle long before the vector does."""
    log_prev = math.inf
    for iterations in range(1, max_iter + 1):
        w = apply(v)
        lam = float(norm(w))
        w /= lam
        log_lam = math.log(lam)
        moved = float(norm(np.abs(w - v)))
        v = w
        if abs(log_lam - log_prev) <= tol and moved <= 10.0 * tol:
            return lam, v, iterations
        log_prev = log_lam
    raise NoConvergenceError(
        f"{side} power iteration did not settle in {max_iter} steps")


def _power_iterate(stencil: _Stencil, tol: float, max_iter: int):
    """Forward and adjoint power iteration sharing one incidence structure:
    the forward iterate is normalized by its sup, the adjoint one by its
    total mass."""
    lam, v, iterations = _power_loop(stencil.apply, np.ones(stencil.size),
                                     np.max, tol, max_iter, "forward")
    _, u, adj_iterations = _power_loop(
        stencil.apply_adjoint, np.full(stencil.size, 1.0 / stencil.size),
        np.sum, tol, max_iter, "adjoint")
    # joint normalization: weights sum to 1 already; scale v so <v, u> = 1
    v = v / float(np.dot(u, v))
    res_fwd = float(np.max(np.abs(stencil.apply(v) - lam * v))) / lam / float(np.max(v))
    res_adj = float(np.sum(np.abs(stencil.apply_adjoint(u) - lam * u))) / lam
    return lam, v, u, max(res_fwd, res_adj), iterations + adj_iterations


def fiber_stencil(pot: TrigPotential, family: MpFamily, x: BasePoint,
                  n_nodes: int) -> _Stencil:
    """The fiber operator over x on n_nodes nodes: row j gathers the
    weighted interpolation nodes of both g_x-preimages of j / n_nodes."""
    if x.capacity < 1:
        raise CapacityExhaustedError("one operator step needs capacity >= 1")
    idx, wgt = fiber_weights(pot, family, [x], n_nodes)
    return _Stencil(idx[0].T, wgt[0].T, n_nodes)


def apply_fiber_operator(pot: TrigPotential, family: MpFamily, x: BasePoint,
                         psi: GridFn, require_positive: bool = False) -> GridFn:
    """One fiberwise transfer step: sum e^phi(x, .) * psi over the
    g_x-preimages of every output node.

    The result lives on the fiber over f(x); psi is read at the preimages by
    periodic linear interpolation, which preserves positivity and
    monotonicity.
    """
    if require_positive:
        _check_positive(psi)
    return fiber_stencil(pot, family, x, psi.n_nodes).step(psi)


def _check_positive(psi: GridFn) -> None:
    if np.any(psi.values <= 0.0):
        raise NonpositiveFunctionError("cone semantics need psi > 0 at all nodes")


class _TorusStencil:
    """The full operator on the n_x x n_y torus grid, factored as L = F o B.

    The base preimages (i + b n_x) / (2 n_x) of the grid nodes lie on the
    half grid q / (2 n_x), q = 0 .. 2 n_x - 1, where Psi is read exactly by
    B: row q / 2 for even q, the mean of rows q // 2 and (q // 2 + 1) mod
    n_x for odd q (the (1, 0) and (1/2, 1/2) weights of ``interp_nodes``).
    F is a fiber stencil over the half grid: output (i, j) gathers the 8
    fiber weights of half-grid rows i and i + n_x.  The adjoint is the exact
    transpose, F^T as a scatter into the half grid, then B^T.
    """

    def __init__(self, fiber: _Stencil, n_x: int, n_y: int):
        self.fiber = fiber
        self.idx = fiber.idx
        self.wgt = fiber.wgt
        self.shape = (n_x, n_y)
        self.size = n_x * n_y

    def apply(self, v: np.ndarray) -> np.ndarray:
        psi = v.reshape(self.shape)
        half = np.empty((2 * self.shape[0], self.shape[1]))
        half[0::2] = psi
        half[1::2] = 0.5 * (psi + np.roll(psi, -1, axis=0))
        return self.fiber.apply(half.reshape(-1))

    def apply_adjoint(self, u: np.ndarray) -> np.ndarray:
        half = self.fiber.apply_adjoint(u).reshape(2 * self.shape[0], -1)
        odd = 0.5 * half[1::2]
        return (half[0::2] + odd + np.roll(odd, 1, axis=0)).reshape(-1)

    step = _Stencil.step


@functools.lru_cache(maxsize=8)  # a 512x512 stencil holds 33.5 MB
def _full_stencil(pot: TrigPotential, family: MpFamily,
                  n_x: int, n_y: int) -> _TorusStencil:
    """The full operator on the n_x x n_y torus grid (see _TorusStencil).

    Row (i, j) of F holds, for each base preimage (i + b n_x) / (2 n_x) of
    i / n_x, the fiber weights of j / n_y over it: the interpolation nodes of
    both g-preimages on half-grid row i + b n_x, times e^phi there.
    """
    half = 2 * n_x
    idx, wgt = fiber_weights(pot, family, np.arange(half) / half, n_y)
    idx += (np.arange(half) * n_y)[:, None, None]
    # columns ordered (base branch, fiber branch, y side)
    idx, wgt = (a.reshape(2, n_x, 4, n_y).transpose(1, 3, 0, 2)
                .reshape(n_x * n_y, 8) for a in (idx, wgt))
    for a in (idx, wgt):
        a.setflags(write=False)
    return _TorusStencil(_Stencil(idx, wgt, half * n_y), n_x, n_y)


def apply_full_operator(pot: TrigPotential, family: MpFamily,
                        big_psi: GridFn2D) -> GridFn2D:
    """Full transfer step: sum over all four skew-product preimages."""
    return _full_stencil(pot, family, *big_psi.shape).step(big_psi)


def full_operator_column(pot: TrigPotential, family: MpFamily, x: BasePoint,
                         big_psi: GridFn2D) -> GridFn:
    """The full operator's output restricted to the fiber over an exact x.

    Uses the exact base preimages of x (digit-prepended), so no interpolation
    happens at x itself; Psi is read by interpolating its slices at the base
    preimages along the fiber, which is its bilinear interpolation.
    """
    n_y = big_psi.shape[1]
    out = sum(fiber_stencil(pot, family, xb, n_y).apply(
        big_psi.slice_at(float(xb)).values) for xb in x.preimages())
    return GridFn(out, big_psi.log_offset)


@functools.lru_cache(maxsize=16)
def _base_stencil_geometry(n_x: int):
    """Interpolation stencils at the two preimage families of the base grid:
    read-only (idx, w), each of shape (n_x, 4), ordered (node, 2 * branch +
    side).  Every base stencil of this size shares them."""
    xs = np.arange(n_x, dtype=float) / n_x
    xbar = np.stack([xs / 2.0, (xs + 1.0) / 2.0], axis=-1)
    out = tuple(np.stack(pair, axis=-1).reshape(n_x, 4)
                for pair in interp_nodes(xbar, n_x))
    for a in out:
        a.setflags(write=False)
    return out


def base_preimage_points(n_x: int, capacity: int) -> list[list[BasePoint]]:
    """Exact BasePoints for both preimage families of the base grid nodes.

    Grid nodes are i/n_x (n_x a power of two), so every preimage
    (i/n_x + b)/2 is a dyadic rational with an exact digit expansion.
    """
    if n_x & (n_x - 1):
        raise ValueError("base grid size must be a power of two")
    out = []
    for b in (0, 1):
        fam = []
        for i in range(n_x):
            num = i + b * n_x  # (i/n_x + b)/2 = num / (2 n_x)
            fam.append(BasePoint.from_fraction(num, 2 * n_x, capacity))
        out.append(fam)
    return out


def apply_base_operator(phi_eval, xi: GridFn, capacity: int = 64) -> GridFn:
    """Base transfer step: sum e^Phi at both doubling preimages of each node.

    ``phi_eval`` maps a BasePoint to the transverse potential value; it is
    called at the 2N exact dyadic preimage points of the grid.
    """
    return base_stencil(phi_eval, xi.n_nodes, capacity).step(xi)


def base_stencil(phi_eval, n_x: int, capacity: int) -> _Stencil:
    """The base operator on n_x nodes: ``phi_eval`` is tabulated at the
    ``base_preimage_points`` (lower branch first), rows weighted by e^Phi."""
    phis = np.array([[phi_eval(p) for p in fam]
                     for fam in base_preimage_points(n_x, capacity)])
    idx, w = _base_stencil_geometry(n_x)
    return _Stencil(idx, np.repeat(np.exp(phis).T, 2, axis=1) * w, n_x)
