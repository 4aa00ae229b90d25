"""Fiberwise, base and full transfer operators on grid functions.

Every operator is built from one set of weights: for a base point x and a
fiber grid of n nodes, ``fiber_weights`` lists the interpolation nodes of
both g_x-preimages of every grid node, weighted by e^phi at the preimage.
The fiber stencil holds them once per base point, for the forward step and
its exact adjoint; ``fiber_stencils`` builds those of a list of base points
(the next orbit points of a cascade) with one ``fiber_weights`` call.  The
full operator reads Psi on the half grid that holds the base preimages of
its nodes, then applies the fiber weights over those preimages: 8 entries
per node, 33.5 MB of indices and weights at 512 x 512.
The base operator uses the same interpolation routine
(``gridfn.interp_nodes``) with e^Phi weights.

Every stencil stores its k entries per output node column-major, as (k, N)
arrays with the output node on the last axis: the adjoint's scatter then
sweeps each entry's destinations in output order, and a fiber stencil is a
slice of the block ``fiber_weights`` returns, with no copy.  Stored arrays
are read-only, and nothing copies them: the adjoint scatters with
``np.add.at``, which reads a read-only index as it is (``np.bincount``
copies any read-only input, the whole index on every call), and the full
operator's build has ``fiber_weights`` write F straight into its stored
layout.

The full operator applies F, and scatters its transpose, _BLOCK_POINTS (64)
base points at a time: for each block of 64 output rows it goes entry row
by entry row through one buffer of 64 n_y doubles.  That changes no bit.
The forward adds the 8 entries of every node in their stored order, as
``_Stencil.apply``'s einsum over all of F does, and every half-grid row
receives entries from one output row only, so the scatter reaches each
destination in the order of one scatter over all of F.  Beyond the stored
128 bytes per node, a solve holds its iterates and, during an application,
the half grid (two doubles per node), the output and the block buffer: its
tracemalloc peak is 2.9 MB at 256 x 256 and 10.9 MB at 512 x 512.

Every application renormalizes its output and accumulates the scale factor in
log_offset, so n-fold cascades never overflow even though the raw iterates
grow like e^(n * pressure).

Eigenvectors come from power iteration (``_power_iterate``), forward from
ones and adjoint from the uniform measure unless the caller passes start
vectors: ``measures.rpf_full_solve`` passes those of a torus with 16 times
fewer rows from 256 rows on.
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


# base points per fiber_weights block: bounds the block's temporaries, the
# stacked preimage solve's among them, to 64 x 2n doubles each (512 KB at
# n = 512), however many points a caller asks for
_BLOCK_POINTS = 64


def fiber_weights(pot: TrigPotential, family: MpFamily, xs, n_nodes: int,
                  out=None):
    """Transfer weights of the fiber operators over the base points xs,
    built _BLOCK_POINTS points at a time (one ``grid_preimages`` call each).

    Returns (idx, wgt), each of shape (len(xs), 4, n_nodes).  Entry (i, 2 *
    branch + side, j) is the left (side 0) or right (side 1) interpolation
    node of the g_x-preimage of j / n_nodes on that branch, x = xs[i], and
    its interpolation weight times e^phi(x, preimage).  They are new
    C-contiguous arrays, or the pair ``out`` of intp and float arrays of
    that shape and any strides, filled in place: ``_torus_stencil`` passes
    strided views of its stored arrays, so that F is never copied.
    """
    xv = np.array([float(x) for x in xs])
    if out is None:
        out = (np.empty((len(xv), 4, n_nodes), dtype=np.intp),
               np.empty((len(xv), 4, n_nodes)))
    idx, wgt = out
    for start in range(0, len(xv), _BLOCK_POINTS):
        rows = slice(start, start + _BLOCK_POINTS)
        for k, ys in zip((0, 2), grid_preimages(family, xv[rows], n_nodes)):
            (j0, j1), (w0, w1) = interp_nodes(ys, n_nodes)
            e_phi = np.exp(pot(xv[rows, None], ys))
            idx[rows, k], idx[rows, k + 1] = j0, j1
            np.multiply(w0, e_phi, out=wgt[rows, k])
            np.multiply(w1, e_phi, out=wgt[rows, k + 1])
    return idx, wgt


class _Stencil:
    """Sparse incidence structure of a discretized transfer operator.

    idx and wgt are C-contiguous (k, N) arrays, made read-only here:
    column i lists the k source nodes and interpolation-times-potential
    weights contributing to output node i.  Forward application is a
    gather; the adjoint is the exact transpose, applied as a scatter that
    sweeps each row of idx in order, so the two iterations are numerically
    consistent duals.  The scatter is ``np.add.at``, which takes the
    read-only index as it is; ``np.bincount`` would copy it on every call.
    """

    def __init__(self, idx: np.ndarray, wgt: np.ndarray, size: int):
        for a in (idx, wgt):
            a.setflags(write=False)
        self.idx = idx
        self.wgt = wgt
        self.size = size

    def apply(self, v: np.ndarray) -> np.ndarray:
        return np.einsum("ji,ji->i", self.wgt, v[self.idx])

    def apply_adjoint(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros(self.size)
        np.add.at(out, self.idx.ravel(), (self.wgt * u).ravel())
        return out

    def step(self, fn):
        """One transfer step on a GridFn or GridFn2D: apply, keep the log
        offset, renormalize."""
        out = self.apply(fn.values.reshape(-1)).reshape(fn.values.shape)
        return type(fn)(out, fn.log_offset).renormalize()


# a power iteration extrapolates once the ratio of its last three moves
# agrees to this relative gap and is below _MAX_RATIO
_STEADY_GAP = 0.02
_MAX_RATIO = 0.95


def _steady_ratio(moves: list[float]) -> float | None:
    """The ratio of the last three moves when it is steady, else None."""
    if len(moves) < 3 or not (moves[-3] > 0.0 and moves[-2] > 0.0):
        return None
    r0, r = moves[-2] / moves[-3], moves[-1] / moves[-2]
    return r if abs(r - r0) <= _STEADY_GAP * r0 and r < _MAX_RATIO else None


def _power_loop(apply, v: np.ndarray, norm, tol: float, max_iter: int,
                side: str):
    """Iterate v <- apply(v) / norm(apply(v)) from v with norm(v) = 1 until
    log norm and iterate both settle: |Delta log lambda| <= tol and moved =
    norm(|L v / lambda - v|) <= 10 tol; the eigenvalue alone can settle long
    before the vector does.

    Once one mode dominates the error, each move is r times the last.  When
    the last three moves since an extrapolation show a steady r (see
    ``_steady_ratio``), the new iterate w = L v / lambda is replaced by the
    limit of that geometric sequence, w + (w - v) r / (1 - r), which is
    w - r v renormalized; it is kept only if every entry stays positive.
    The first step after a kept extrapolation must move less than the step
    before it, or there are no more extrapolations (a negative or complex
    second eigenvalue also gives steady moves).  The stop test bounds the
    residual of the vector actually applied, however it was made.  The
    iterates are updated in place, so only v is held while apply runs.

    Returns (lambda, v, w, iterations): the last vector applied, its
    eigenvalue estimate norm(L v) and its image w = L v / lambda.
    """
    log_prev = math.inf
    moves: list[float] = []  # since the last extrapolation
    guard = math.inf  # what the step after a kept extrapolation must beat
    extrapolate = True
    for iterations in range(1, max_iter + 1):
        w = apply(v)
        lam = float(norm(w))
        w /= lam
        log_lam = math.log(lam)
        moved = float(norm(np.abs(w - v)))
        if abs(log_lam - log_prev) <= tol and moved <= 10.0 * tol:
            return lam, v, w, iterations
        log_prev = log_lam
        if moved >= guard:
            extrapolate = False
        guard = math.inf
        moves = [*moves[-2:], moved]
        r = _steady_ratio(moves) if extrapolate else None
        if r is not None:
            v *= -r
            v += w
            moves = []
            if v.min() > 0.0:
                v /= norm(v)
                w = v
                guard = moved
        v = w
    raise NoConvergenceError(
        f"{side} power iteration did not settle in {max_iter} steps")


def _power_iterate(stencil: _Stencil, tol: float, max_iter: int,
                   starts=None):
    """Forward and adjoint power iteration sharing one incidence structure:
    the forward iterate is normalized by its sup, the adjoint one by its
    total mass.  The residual is the larger of max |L v - lambda v| /
    (lambda max v) and sum |L* u - lambda u| / lambda, with lambda the
    forward eigenvalue, for the returned v and u; both images come from the
    last step of each loop, so it takes no extra application.  iterations
    counts the applications of both loops.

    The loops start from ones and the uniform measure, or from ``starts``:
    a pair of functions that return the forward start, with max 1, and the
    adjoint start, with sum 1.  Each is called right before its loop, so
    the adjoint start is not held while the forward loop runs."""
    size = stencil.size
    forward_start, adjoint_start = starts or (
        lambda: np.ones(size), lambda: np.full(size, 1.0 / size))
    lam, v, image, iterations = _power_loop(
        stencil.apply, forward_start(), np.max, tol, max_iter, "forward")
    res_fwd = float(np.max(np.abs(image - v))) / float(np.max(v))
    del image  # held during the adjoint loop, it raised peak RSS by 3 MB at 256²
    lam_adj, u, image, adj_iterations = _power_loop(
        stencil.apply_adjoint, adjoint_start(), np.sum, tol, max_iter,
        "adjoint")
    res_adj = float(np.sum(np.abs(lam_adj * image - lam * u))) / lam
    # joint normalization: weights sum to 1 already; scale v so <v, u> = 1.
    # np.sum adds pairwise in a fixed order; np.dot splits a long product
    # over BLAS threads, so v would depend on the thread count
    v = v / float(np.sum(u * v))
    return lam, v, u, max(res_fwd, res_adj), iterations + adj_iterations


def fiber_stencils(pot: TrigPotential, family: MpFamily, xs: list[BasePoint],
                   n_nodes: int) -> list[_Stencil]:
    """The fiber operators over the points xs on n_nodes nodes, built by one
    ``fiber_weights`` call: column j of each gathers the weighted
    interpolation nodes of both g_x-preimages of j / n_nodes."""
    if any(x.capacity < 1 for x in xs):
        raise CapacityExhaustedError("one operator step needs capacity >= 1")
    if not xs:
        return []
    idx, wgt = fiber_weights(pot, family, xs, n_nodes)
    return [_Stencil(i, w, n_nodes) for i, w in zip(idx, wgt)]


def fiber_stencil(pot: TrigPotential, family: MpFamily, x: BasePoint,
                  n_nodes: int) -> _Stencil:
    """The fiber operator over x on n_nodes nodes."""
    return fiber_stencils(pot, family, [x], n_nodes)[0]


def apply_fiber_operator(pot: TrigPotential, family: MpFamily, x: BasePoint,
                         psi: GridFn) -> GridFn:
    """One fiberwise transfer step: sum e^phi(x, .) * psi over the
    g_x-preimages of every output node.

    The result lives on the fiber over f(x); psi is read at the preimages by
    periodic linear interpolation, which preserves positivity and
    monotonicity.
    """
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
    fiber weights of half-grid rows i and i + n_x, held as (8, n_x n_y)
    arrays with rows ordered (base branch, fiber branch, y side).  The
    adjoint is the exact transpose, F^T as a scatter into the half grid,
    then B^T.  B and B^T are built in place, without rolled copies.

    F and F^T run over blocks of _BLOCK_POINTS output rows (64 n_y columns
    of the stored arrays), one entry row at a time through one block
    buffer, so no temporary holds all 8 entries of every node.  The bits
    are those of the whole-grid gather and scatter: each node's entries
    are added in row order, and half-grid rows i and i + n_x receive
    entries from output row i alone, which lies in one block.  ``fiber``
    is F as a plain stencil over the half grid.
    """

    def __init__(self, fiber: _Stencil, n_x: int, n_y: int):
        self.fiber = fiber
        self.idx = fiber.idx
        self.wgt = fiber.wgt
        self.shape = (n_x, n_y)
        self.size = n_x * n_y

    def apply(self, v: np.ndarray) -> np.ndarray:
        psi = v.reshape(self.shape)
        # The output is allocated before the half grid, which is freed on
        # return.  In the other order glibc's malloc trimmed the heap and
        # faulted it in again: a first 256 x 256 solve took 11920 page
        # faults instead of 1355.
        out = np.zeros(self.size)
        half = np.empty((2 * self.shape[0], self.shape[1]))
        half[0::2] = psi
        odd = half[1::2]
        np.add(psi[1:], psi[:-1], out=odd[:-1])
        np.add(psi[0], psi[-1], out=odd[-1])
        odd *= 0.5
        half = half.reshape(-1)
        for cols, buf in self._blocks():
            dst = out[cols]
            for k in range(len(self.idx)):
                # mode "raise" would buffer the output; the index is in range
                half.take(self.idx[k, cols], out=buf, mode="clip")
                buf *= self.wgt[k, cols]
                dst += buf
        return out

    def apply_adjoint(self, u: np.ndarray) -> np.ndarray:
        out = np.empty(self.shape)  # before the half grid, as in apply
        half = np.zeros(2 * self.size)
        for cols, buf in self._blocks():
            for k in range(len(self.idx)):
                np.multiply(self.wgt[k, cols], u[cols], out=buf)
                np.add.at(half, self.idx[k, cols], buf)
        half = half.reshape(2 * self.shape[0], -1)
        odd = half[1::2]
        odd *= 0.5
        np.add(half[0::2], odd, out=out)
        out[1:] += odd[:-1]
        out[0] += odd[-1]
        return out.reshape(-1)

    def _blocks(self):
        """(columns, buffer) of each block of _BLOCK_POINTS output rows: the
        columns as a slice of the stored arrays, and one buffer of their
        length, shared by every block."""
        width = _BLOCK_POINTS * self.shape[1]
        buf = np.empty(min(width, self.size))
        for start in range(0, self.size, width):
            cols = slice(start, min(start + width, self.size))
            yield cols, buf[:cols.stop - start]

    step = _Stencil.step


def _torus_stencil(pot: TrigPotential, family: MpFamily,
                   n_x: int, n_y: int) -> _TorusStencil:
    """The full operator on the n_x x n_y torus grid (see _TorusStencil),
    built anew; ``_full_stencil`` is its cached form.

    Column (i, j) of F holds, for each base preimage (i + b n_x) / (2 n_x) of
    i / n_x, the fiber weights of j / n_y over it: the interpolation nodes of
    both g-preimages on half-grid row i + b n_x, times e^phi there.  The
    (8, n_x n_y) arrays are allocated once and filled in place, one
    ``fiber_weights`` call per base branch b through (n_x, 4, n_y) views of
    rows 4b .. 4b + 3, and stored read-only: neither the build nor the
    adjoint's scatter copies them.
    """
    idx = np.empty((8, n_x * n_y), dtype=np.intp)
    wgt = np.empty((8, n_x * n_y))
    for b in (0, 1):
        rows = np.arange(b * n_x, (b + 1) * n_x)  # half-grid rows
        view = [a[4 * b:4 * b + 4].reshape(4, n_x, n_y).transpose(1, 0, 2)
                for a in (idx, wgt)]
        fiber_weights(pot, family, rows / (2 * n_x), n_y, out=view)
        view[0] += (rows * n_y)[:, None, None]
    return _TorusStencil(_Stencil(idx, wgt, 2 * n_x * n_y), n_x, n_y)


# a 512x512 stencil holds 33.5 MB
_full_stencil = functools.lru_cache(maxsize=8)(_torus_stencil)


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
    read-only (idx, w), each of shape (4, n_x), ordered (2 * branch + side,
    node).  Every base stencil of this size shares them."""
    xs = np.arange(n_x, dtype=float) / n_x
    xbar = np.stack([xs / 2.0, (xs + 1.0) / 2.0])
    out = tuple(np.stack(pair, axis=1).reshape(4, n_x)
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

    ``phi_eval`` gives the transverse potential at the 2N exact dyadic
    preimage points of the grid, asked for as one list (see
    ``base_stencil``).
    """
    return base_stencil(phi_eval, xi.n_nodes, capacity).step(xi)


def base_stencil(phi_eval, n_x: int, capacity: int) -> _Stencil:
    """The base operator on n_x nodes, entries weighted by e^Phi.

    ``phi_eval`` is called once, with the list of the 2 n_x
    ``base_preimage_points`` (lower branch first), and returns their
    values: a ``phi_evaluator`` evaluates them in order, filling its store
    64 points at a time.  One number stands for every point, so a
    constant such as ``lambda p: 0.0`` serves as a flat potential.
    """
    points = [p for fam in base_preimage_points(n_x, capacity) for p in fam]
    phis = np.empty(2 * n_x)
    phis[:] = phi_eval(points)
    idx, w = _base_stencil_geometry(n_x)
    wgt = np.repeat(np.exp(phis.reshape(2, n_x)), 2, axis=0) * w
    return _Stencil(idx, wgt, n_x)
