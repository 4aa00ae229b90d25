"""Independent oracles shared by the test modules.

The brute-force oracles deliberately avoid the library's vectorized code
paths: plain loops and scalar arithmetic only, so they stay independent of
what they check.  The reference paths below them are the straightforward
formulations that the library's active-triple cone metric, shared
transfer-weight builder, integer base points, Newton preimage solve,
lockstep Phi cascades, adjoint fiber measures, their shared orbit chains,
the exact Phi of dyadic orbits, the factored torus operator, the stacked
preimage solve, its chord starts, the multi-function eigen-equation residual, the
column-major stencil layout, the all-node disintegration pairing, the
extrapolated power iteration, the blocked transfer-weight build, the
copy-free adjoint scatter, the in-place torus build, the row-blocked
torus apply, the one-point exponent profile and the uniform-start torus
solve replaced; tests compare the two.
"""

import itertools
import math

import numpy as np

from skewtherm.base import BasePoint
from skewtherm.errors import (
    CapacityExhaustedError,
    NoConvergenceError,
    NonpositiveDenominatorError,
    NonpositiveFunctionError,
)
from skewtherm.fibers import _SCALAR_POWERS, _branch_rows, grid_preimages
from skewtherm.gridfn import GridFn, GridFn2D, interp_nodes
from skewtherm.measures import RpfSolution, fiber_integrate
from skewtherm.operators import (
    _full_stencil,
    _power_iterate,
    _Stencil,
    apply_fiber_operator,
    base_preimage_points,
    fiber_stencil,
    fiber_weights,
)
from skewtherm.phi import CONSERVATIVE_TAU, MAX_PHI_DEPTH, PhiSequence


def brute_force_theta(fv, gv, K, alpha):
    """O(N^3) triple enumeration of the projective cone distance."""
    n = len(fv)
    lo, hi = math.inf, -math.inf
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            lag = abs(i - j)
            d = min(lag, n - lag) / n
            w = K * d ** alpha
            dg = gv[i] - gv[j]
            df = fv[i] - fv[j]
            for k in range(n):
                r = (w * gv[k] - dg) / (w * fv[k] - df)
                lo = min(lo, r)
                hi = max(hi, r)
    for k in range(n):
        r = gv[k] / fv[k]
        lo = min(lo, r)
        hi = max(hi, r)
    return math.log(hi / lo)


def binomial_count_oracle(iota, n, q, d):
    """Closed-form count of words with at least iota*n neutral letters."""
    kmin = max(0, math.ceil(iota * n - 1e-9))
    return sum(math.comb(n, k) * q ** k * (d - q) ** (n - k)
               for k in range(kmin, n + 1))


def exhaustive_count_oracle(iota, n, q, d):
    """Count of words with at least iota*n neutral letters, by enumerating
    all d^n words."""
    kmin = max(0, math.ceil(iota * n - 1e-9))
    return sum(1 for letters in itertools.product(range(1, d + 1), repeat=n)
               if sum(1 for l in letters if l <= q) >= kmin)


BISECT_WIDTH = 1e-12
BISECT_NEWTON_STEPS = 5


def exponent_scalar(family, x):
    """The fiber exponent p(x) of one point in the C library's cos."""
    c = math.cos(2.0 * math.pi * float(x))
    return family.p0 + family.p1 * (1.0 - c) / 2.0


def branch_boundary_bisect(p):
    """The split point c with c + c^(p+1) = 1 for one scalar p: bisection to
    1e-12, then five Newton steps."""
    lo, hi = 0.0, 1.0
    while hi - lo > BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        if mid + mid ** (p + 1.0) < 1.0:
            lo = mid
        else:
            hi = mid
    c = 0.5 * (lo + hi)
    for _ in range(BISECT_NEWTON_STEPS):
        f = c + c ** (p + 1.0) - 1.0
        c -= f / (1.0 + (p + 1.0) * c ** p)
    return c


def solve_increasing_bisect(p, target, lo, hi):
    """Root of y + y^(p+1) = target on the bracket [lo, hi]: 40 vectorized
    bisection sweeps, then five Newton steps clamped to the bracket."""
    p = np.asarray(p, dtype=float)
    target = np.asarray(target, dtype=float)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), target.shape).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), target.shape).copy()
    n_bisect = int(math.ceil(math.log2(1.0 / BISECT_WIDTH)))
    for _ in range(n_bisect):
        mid = 0.5 * (lo + hi)
        below = mid + mid ** (p + 1.0) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    y = 0.5 * (lo + hi)
    for _ in range(BISECT_NEWTON_STEPS):
        f = y + y ** (p + 1.0) - target
        y = y - f / (1.0 + (p + 1.0) * y ** p)
        y = np.minimum(np.maximum(y, lo), hi)
    return y


def inverse_branches_bisect(p, t):
    """Both g-preimages of the array t for exponent(s) p by bracketed
    bisection: y1 on [0, c), y2 on [c, 1) with the wrap point 1 sent to 0."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if np.ndim(p) == 0:
        c = branch_boundary_bisect(float(p))
    else:
        c = solve_increasing_bisect(p, np.ones_like(t), 0.0, 1.0)
    y1 = solve_increasing_bisect(p, t, 0.0, c)
    y2 = solve_increasing_bisect(p, t + 1.0, c, 1.0)
    return y1, np.where(y2 >= 1.0, 0.0, y2)


def _newton_whole(p, target, y):
    """Newton on y + y^(p+1) = target until every step of the whole array
    is within 4 ulps of its target: the solve before rows were stacked."""
    fp = np.finfo(float)
    tol = 4.0 * fp.eps * np.maximum(target, fp.tiny)
    for _ in range(60):
        y_p = y ** p
        step = (y + y * y_p - target) / (1.0 + (p + 1.0) * y_p)
        y = y - step
        if np.all(np.abs(step) <= tol):
            return y
    raise NoConvergenceError("reference Newton solve not converged")


def branch_boundary_scalar(p):
    """The split point of one exponent as a 0-d numpy Newton solve from 1,
    taken one ulp right where c + c^(p+1) < 1, as the library solved it one
    exponent at a time."""
    p = np.asarray(float(p))
    c = _newton_whole(p, 1.0, np.ones_like(p))
    return float(np.where(c + c ** (p + 1.0) < 1.0, np.nextafter(c, 2.0), c))


def inverse_branches_scalar(p, t):
    """Both g-preimages of the array t for one exponent p as one Newton solve
    started on the branch chords: the per-exponent preimage table."""
    p = float(p)
    c = branch_boundary_scalar(p)
    y1, y2 = _newton_whole(p, np.stack((t, t + 1.0)),
                           np.stack((c * t, c + (1.0 - c) * t)))
    np.maximum(y2, c, out=y2)
    y2[y2 >= 1.0] = 0.0
    return y1, y2


def chord_tables(ps, n_nodes):
    """Grid preimage tables of the exponents ps as the cache solved every
    miss before lattice starts: each exponent started on the branch chords,
    the sqrt and square exponents alone and the others as one stack."""
    t = np.arange(n_nodes, dtype=float) / n_nodes
    ps = [float(p) for p in ps]
    stacks = [[p] for p in ps if p in _SCALAR_POWERS]
    stacks.append([p for p in ps if p not in _SCALAR_POWERS])
    tables = {}
    for chunk in filter(None, stacks):
        tables.update(zip(chunk, _branch_rows(np.array(chunk)[:, None], t)))
    return [tables[p] for p in ps]


def triple_scan_distance(f, g, cone):
    """The n^3 triple-ratio scan of the projective cone distance log(B/A).

    Builds every triple ratio (w g3 - dg) / (w f3 - df), w = K d(z1, z2)^alpha,
    in three n x n x n arrays, plus the pure ratios g/f; the library's
    active-triple iteration reaches the same extremes in O(n^2) memory.
    """
    n = f.size
    lag = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    dist = np.minimum(lag, n - lag) / n
    w = cone.K * dist ** cone.alpha
    num = w[:, :, None] * g[None, None, :] - (g[:, None] - g[None, :])[:, :, None]
    den = w[:, :, None] * f[None, None, :] - (f[:, None] - f[None, :])[:, :, None]
    # neutralize the z1 == z2 diagonal with a ratio that is present anyway
    diag = np.arange(n)
    num[diag, diag, :] = g[0]
    den[diag, diag, :] = f[0]
    if np.any(den <= 0.0):
        raise NonpositiveDenominatorError(
            "triple denominator <= 0: reference function on the cone boundary")
    ratios = num / den
    pure = g / f
    a = min(float(np.min(ratios)), float(np.min(pure)))
    b = max(float(np.max(ratios)), float(np.max(pure)))
    if a <= 0.0:
        return math.inf
    return math.log(b / a)


def fiber_weights_one_block(pot, family, xs, n_nodes):
    """The transfer weights of the fiber operators over all of xs from one
    ``grid_preimages`` call, however many points: the builder before it
    split its points into blocks.  Returns (idx, wgt) of shape (len(xs),
    4, n_nodes), entry (i, 2 * branch + side, j) as in ``fiber_weights``."""
    xv = np.array([float(x) for x in xs])
    idx = np.empty((len(xv), 4, n_nodes), dtype=np.intp)
    wgt = np.empty((len(xv), 4, n_nodes))
    for k, ys in zip((0, 2), grid_preimages(family, xv, n_nodes)):
        (j0, j1), (w0, w1) = interp_nodes(ys, n_nodes)
        e_phi = np.exp(pot(xv[:, None], ys))
        idx[:, k], idx[:, k + 1] = j0, j1
        np.multiply(w0, e_phi, out=wgt[:, k])
        np.multiply(w1, e_phi, out=wgt[:, k + 1])
    return idx, wgt


def fiber_step_reference(pot, family, x, psi):
    """One fiber transfer step as a branch sum: e^phi at each preimage times
    psi interpolated there.  Returns total values (log offset applied), not
    renormalized."""
    (y1,), (y2,) = grid_preimages(family, [x], psi.n_nodes)
    out = (np.exp(pot(x, y1)) * psi.interp(y1)
           + np.exp(pot(x, y2)) * psi.interp(y2))
    return math.exp(psi.log_offset) * out


def full_operator_column_reference(pot, family, x, big_psi):
    """The full operator's column over an exact x, reading Psi by bilinear
    interpolation at every (base preimage, fiber preimage) pair.  Returns
    total values."""
    n_y = big_psi.shape[1]
    out = np.zeros(n_y)
    for xbar in x.preimages():
        for (yb,) in grid_preimages(family, [xbar], n_y):
            out += np.exp(pot(xbar, yb)) * big_psi.interp(float(xbar), yb)
    return math.exp(big_psi.log_offset) * out


class RowMajorStencil:
    """A stencil held row-major: (N, k) arrays whose row i lists the k
    source nodes and weights of output node i.  The forward step is a
    row-wise gather, the adjoint a scatter of the (N, k) products in row
    order: the layout and the two applications that the library's
    column-major (k, N) stencils replaced."""

    def __init__(self, idx, wgt, size):
        self.idx = idx
        self.wgt = wgt
        self.size = size

    def apply(self, v):
        return np.einsum("ij,ij->i", self.wgt, v[self.idx])

    def apply_adjoint(self, u):
        contrib = self.wgt * u[:, None]
        return np.bincount(self.idx.ravel(), weights=contrib.ravel(),
                           minlength=self.size)


def fiber_stencil_reference(pot, family, x, n_nodes):
    """The fiber operator over x, row-major: row j lists the weighted
    interpolation nodes of both g_x-preimages of j / n_nodes."""
    idx, wgt = fiber_weights(pot, family, [x], n_nodes)
    return RowMajorStencil(idx[0].T, wgt[0].T, n_nodes)


def torus_fiber_reference(pot, family, n_x, n_y):
    """The fiber factor F of the torus operator, row-major: row (i, j)
    lists the 8 weighted entries of half-grid rows i and i + n_x, ordered
    (base branch, fiber branch, y side)."""
    half = 2 * n_x
    idx, wgt = fiber_weights(pot, family, np.arange(half) / half, n_y)
    idx = idx + (np.arange(half) * n_y)[:, None, None]
    idx, wgt = (a.reshape(2, n_x, 4, n_y).transpose(1, 3, 0, 2)
                .reshape(n_x * n_y, 8) for a in (idx, wgt))
    return RowMajorStencil(idx, wgt, half * n_y)


class BincountStencil(_Stencil):
    """A column-major stencil whose adjoint scatters with ``np.bincount``:
    the scatter that ``np.add.at`` replaced.  bincount copies any read-only
    input, so it copied a stored index on every call."""

    def apply_adjoint(self, u):
        return np.bincount(self.idx.ravel(), weights=(self.wgt * u).ravel(),
                           minlength=self.size)


class UnblockedTorusStencil:
    """The torus operator L = F o B applied over the whole grid at once:
    B builds the half grid through ``np.roll``, and F is the fiber stencil's
    own whole-F gather, or its one scatter over ``idx.ravel()``.  The path
    that the row-blocked ``_TorusStencil`` replaced."""

    def __init__(self, fiber, n_x, n_y):
        self.fiber = fiber
        self.idx = fiber.idx
        self.wgt = fiber.wgt
        self.shape = (n_x, n_y)
        self.size = n_x * n_y

    def apply(self, v):
        psi = v.reshape(self.shape)
        half = np.empty((2 * self.shape[0], self.shape[1]))
        half[0::2] = psi
        half[1::2] = 0.5 * (psi + np.roll(psi, -1, axis=0))
        return self.fiber.apply(half.reshape(-1))

    def apply_adjoint(self, u):
        half = self.fiber.apply_adjoint(u).reshape(2 * self.shape[0], -1)
        odd = 0.5 * half[1::2]
        return (half[0::2] + odd + np.roll(odd, 1, axis=0)).reshape(-1)


def full_stencil_transposed(pot, family, n_x, n_y):
    """The torus operator as built before F was written in place: one
    ``fiber_weights`` call over the 2 n_x half-grid rows in its (2 n_x, 4,
    n_y) layout, the index offsets added, then a transposed copy into the
    read-only (8, n_x n_y) arrays.  Its fiber factor scatters with
    ``np.bincount``."""
    half = 2 * n_x
    idx, wgt = fiber_weights(pot, family, np.arange(half) / half, n_y)
    idx += (np.arange(half) * n_y)[:, None, None]
    idx, wgt = (a.reshape(2, n_x, 4, n_y).transpose(0, 2, 1, 3)
                .reshape(8, n_x * n_y) for a in (idx, wgt))
    for a in (idx, wgt):
        a.setflags(write=False)
    return UnblockedTorusStencil(BincountStencil(idx, wgt, half * n_y),
                                 n_x, n_y)


def pointwise(f):
    """f, a function of one BasePoint, called as a Phi evaluator is: at one
    point, or at each point of a list, giving a list."""
    return lambda p: [f(q) for q in p] if isinstance(p, list) else f(p)


def base_stencil_reference(phi_eval, n_x, capacity):
    """The base operator on n_x nodes, row-major: row i lists the
    interpolation nodes of both doubling preimages (i/n_x + b)/2, ordered
    (branch, side), weighted by e^Phi there."""
    xs = np.arange(n_x, dtype=float) / n_x
    idx = np.empty((n_x, 4), dtype=np.intp)
    wgt = np.empty((n_x, 4))
    for b, fam in enumerate(base_preimage_points(n_x, capacity)):
        e_phi = np.exp([phi_eval(p) for p in fam])
        (j0, j1), (w0, w1) = interp_nodes((xs + b) / 2.0, n_x)
        idx[:, 2 * b], idx[:, 2 * b + 1] = j0, j1
        wgt[:, 2 * b], wgt[:, 2 * b + 1] = w0 * e_phi, w1 * e_phi
    return RowMajorStencil(idx, wgt, n_x)


def full_stencil_reference(pot, family, n_x, n_y):
    """The full operator on the n_x x n_y torus grid as one 16-column
    stencil: output (i, j) gathers, for each base preimage xb of i/n_x and
    each fiber preimage yb of j/n_y under g_xb, e^phi(xb, yb) times the
    bilinear interpolation stencil at (xb, yb)."""
    xs = np.arange(n_x, dtype=float) / n_x
    idx = np.empty((n_x, n_y, 16), dtype=np.intp)
    wgt = np.empty((n_x, n_y, 16))
    for b in (0, 1):
        xbar = (xs + b) / 2.0
        jx, wx = interp_nodes(xbar, n_x)
        jy, wy = fiber_weights(pot, family, xbar, n_y)
        # columns ordered (base branch, fiber branch, x side, y side)
        for branch, side, y_side in itertools.product((0, 1), repeat=3):
            col = 8 * b + 4 * branch + 2 * side + y_side
            k = 2 * branch + y_side
            idx[:, :, col] = jx[side][:, None] * n_y + jy[:, k]
            wgt[:, :, col] = wx[side][:, None] * wy[:, k]
    size = n_x * n_y
    return RowMajorStencil(idx.reshape(size, 16), wgt.reshape(size, 16), size)


def power_loop_reference(apply, v, norm, tol, max_iter):
    """Plain power iteration: v <- apply(v) / norm(apply(v)) until
    |Delta log lambda| <= tol and norm(|w - v|) <= 10 tol.  Returns
    (lambda, the last iterate w, iterations)."""
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
    raise NoConvergenceError(f"power iteration did not settle in {max_iter} steps")


def power_residual_reference(stencil, lam, v, u):
    """The larger residual of v and u, measured by one more application
    each: max |L v - lambda v| / (lambda max v) and sum |L* u - lambda u| /
    lambda."""
    res_fwd = float(np.max(np.abs(stencil.apply(v) - lam * v))) / lam / float(np.max(v))
    res_adj = float(np.sum(np.abs(stencil.apply_adjoint(u) - lam * u))) / lam
    return max(res_fwd, res_adj)


def power_iterate_reference(stencil, tol, max_iter):
    """Forward and adjoint plain power iteration, each returning its last
    iterate, with the residual measured by ``power_residual_reference``.
    Returns (lambda, v, u, residual, loop iterations)."""
    lam, v, iterations = power_loop_reference(
        stencil.apply, np.ones(stencil.size), np.max, tol, max_iter)
    _, u, adj_iterations = power_loop_reference(
        stencil.apply_adjoint, np.full(stencil.size, 1.0 / stencil.size),
        np.sum, tol, max_iter)
    v = v / float(np.dot(u, v))
    return (lam, v, u, power_residual_reference(stencil, lam, v, u),
            iterations + adj_iterations)


def rpf_full_solve_uniform_start(pot, family, n_x, n_y, tol=1e-10,
                                 max_iter=10000):
    """The full solve as it was before coarse starts: both power iterations
    on the cached torus operator, from ones and the uniform measure, at
    every grid size."""
    lam, v, u, residual, iterations = _power_iterate(
        _full_stencil(pot, family, n_x, n_y), tol, max_iter)
    return RpfSolution(log_eigenvalue=math.log(lam),
                       eigenfunction=GridFn2D(v.reshape(n_x, n_y)),
                       weights=u.reshape(n_x, n_y), residual=residual,
                       iterations=iterations)


class DigitPoint:
    """A circle point stored as its tuple of binary digits, most significant
    first: digit-by-digit reference arithmetic for BasePoint."""

    FLOAT_BITS = 96

    def __init__(self, bits):
        self.bits = tuple(bits)
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("digits must be 0 or 1")

    @property
    def capacity(self):
        return len(self.bits)

    @classmethod
    def from_float(cls, x, capacity):
        if not 0.0 <= x < 1.0:
            x = x % 1.0
        bits = []
        for _ in range(capacity):
            x *= 2.0
            b = int(x)
            bits.append(b)
            x -= b
        return cls(bits)

    @classmethod
    def from_fraction(cls, num, den, capacity):
        num %= den
        bits = []
        for _ in range(capacity):
            num *= 2
            bits.append(num // den)
            num %= den
        return cls(bits)

    @classmethod
    def random(cls, rng, capacity):
        return cls(int(b) for b in rng.integers(0, 2, size=capacity))

    def value(self):
        k = min(self.capacity, self.FLOAT_BITS)
        if k == 0:
            return 0.0
        return math.ldexp(int(self.bit_string()[:k], 2), -k)

    def bit_string(self):
        return "".join("01"[b] for b in self.bits)

    def forward(self, n):
        if n > self.capacity:
            raise ValueError("capacity exhausted")
        return DigitPoint(self.bits[n:])

    def preimages(self):
        return DigitPoint((0,) + self.bits), DigitPoint((1,) + self.bits)

    def add_dyadic(self, num, scale):
        cap = self.capacity
        if cap == 0:
            return self
        n = int(self.bit_string(), 2)
        n = (n + num * (1 << (cap - scale))) % (1 << cap)
        return DigitPoint(int(ch) for ch in format(n, f"0{cap}b"))


def iterate_cascade(pot, family, x, psi, n):
    """n-fold forward cascade along the orbit of x (deepest operator first)."""
    if x.capacity < n:
        raise CapacityExhaustedError(f"cascade of depth {n} needs capacity >= {n}")
    out = psi
    for k in range(n):
        out = apply_fiber_operator(pot, family, x.forward(k), out)
    return out


def fiber_integrate_two_cascades(pot, family, x, psi, n, anchor_y):
    """Integral of psi against the depth-n fiber measure over x as the
    anchored ratio of the psi-cascade to the ones-cascade."""
    num = iterate_cascade(pot, family, x, psi, n)
    den = iterate_cascade(pot, family, x, GridFn.ones(psi.n_nodes), n)
    ratio = num.interp(anchor_y) / den.interp(anchor_y)
    return math.exp(num.log_offset - den.log_offset) * ratio


def phi_two_cascades(pot, family, x, n, n_nodes, anchor, anchor_y):
    """Phi_n at x from two independent cascades: n + 1 steps started over x
    against n steps started over f(x), each paired with the anchor."""
    def pair(fn):
        # the node average summed as a dot product, in the library's order
        v = (fn.interp(anchor_y) if anchor == "delta" else
             np.dot(np.full(n_nodes, 1.0 / n_nodes), fn.values))
        if v <= 0.0:
            raise NonpositiveFunctionError("log pairing needs a positive value")
        return fn.log_offset + math.log(v)
    top = iterate_cascade(pot, family, x, GridFn.ones(n_nodes), n + 1)
    bot = iterate_cascade(pot, family, x.forward(1), GridFn.ones(n_nodes), n)
    return pair(top) - pair(bot)


def fiber_measure_chain(pot, family, x, n, n_nodes, anchor_y):
    """Depth-n fiber measure weights over one x: the anchor pulled back
    through a freshly built adjoint stencil at every orbit point."""
    if x.capacity < n:
        raise CapacityExhaustedError(f"cascade of depth {n} needs capacity >= {n}")
    (j0, j1), (a0, a1) = interp_nodes(anchor_y, n_nodes)
    w = np.bincount([j0, j1], weights=[a0, a1], minlength=n_nodes)
    for k in reversed(range(n)):
        w = fiber_stencil(pot, family, x.forward(k), n_nodes).apply_adjoint(w)
        w /= np.sum(w)
    return w


def conditional_integrate_reference(pot, family, x, big_psi, full_sol,
                                    base_sol, n, anchor_y):
    """The conditional integral over one x: psi * h, both slices read by
    interpolation at x alone, paired with the fiber measure of a fresh
    chain and divided by h_base(x)."""
    w = fiber_measure_chain(pot, family, x, n, big_psi.shape[1], anchor_y)
    rows = []
    for fn in (big_psi, full_sol.eigenfunction):
        (j0, j1), (w0, w1) = interp_nodes(float(x), fn.shape[0])
        rows.append(w0 * fn.values[j0] + w1 * fn.values[j1])
    offset = big_psi.log_offset + full_sol.eigenfunction.log_offset
    ratio = np.dot(w, rows[0] * rows[1]) / np.dot(w, np.ones(w.size))
    h_base = float(base_sol.eigenfunction.interp(float(x)))
    return math.exp(offset) * float(ratio) / h_base


def disintegrate_reference(pot, family, big_psi, full_sol, base_sol, n,
                           capacity, anchor_y):
    """The disintegrated integral as a loop of conditional integrals, one
    base node at a time."""
    n_x = base_sol.eigenfunction.n_nodes
    mu_hat = base_sol.mu_weights
    total = 0.0
    for i in range(n_x):
        if mu_hat[i] == 0.0:
            continue
        x = BasePoint.from_fraction(i, n_x, capacity)
        total += mu_hat[i] * conditional_integrate_reference(
            pot, family, x, big_psi, full_sol, base_sol, n, anchor_y)
    return total


def phi_tolerance_loop(pot, family, x, tol, n_nodes=512, anchor="delta",
                       anchor_y=0.5, tau=CONSERVATIVE_TAU):
    """Phi by the tolerance loop alone, with no store of known measures:
    Phi_n until |Phi_n - Phi_{n-1}| <= tol * (1 - tau).  Returns (value,
    n_used, bound)."""
    seq = PhiSequence(pot, family, x, n_nodes=n_nodes, anchor=anchor,
                      anchor_y=anchor_y)
    n_cap = min(MAX_PHI_DEPTH, x.capacity - 1)
    prev = seq.value(0)
    for n in range(1, n_cap + 1):
        cur = seq.value(n)
        inc = abs(cur - prev)
        if inc <= tol * (1.0 - tau):
            return cur, n, inc / (1.0 - tau)
        prev = cur
    raise NoConvergenceError(f"no convergence after n = {n_cap}")


def intertwine_residual_chains(pot, family, big_psi, x_samples, n, phi_eval,
                               anchor_y=0.5):
    """The intertwining residual with one fiber-measure chain per integral:
    over x and over each base preimage separately."""
    worst = 0.0
    for x in x_samples:
        column = GridFn(full_operator_column_reference(pot, family, x,
                                                       big_psi))
        lhs = fiber_integrate(pot, family, x, column, n, anchor_y)
        rhs = 0.0
        for xbar in x.preimages():
            slice_fn = big_psi.slice_at(float(xbar))
            rhs += math.exp(phi_eval(xbar)) * fiber_integrate(
                pot, family, xbar, slice_fn, n, anchor_y)
        worst = max(worst, abs(lhs - rhs))
    return worst


def eigen_equation_residual_single(pot, family, x, psi, n, phi_eval, anchor_y):
    """The eigen-equation gap for one test function, its measures and step
    built for it alone: a fresh transfer step of psi paired with the depth-n
    measure over f(x), against e^Phi(x) times psi paired at depth n+1 over
    x."""
    lhs = fiber_integrate(pot, family, x.forward(1),
                          apply_fiber_operator(pot, family, x, psi), n, anchor_y)
    rhs = math.exp(phi_eval(x)) * fiber_integrate(pot, family, x, psi, n + 1,
                                                  anchor_y)
    return abs(lhs - rhs)
