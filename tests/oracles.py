"""Independent oracles shared by the test modules.

The brute-force oracles deliberately avoid the library's vectorized code
paths: plain loops and scalar arithmetic only, so they stay independent of
what they check.  The reference paths below them are the straightforward
formulations that the library's active-triple cone metric, shared
transfer-weight builder, integer base points, Newton preimage solve,
lockstep Phi cascades, adjoint fiber measures, their shared orbit chains,
the exact Phi of dyadic orbits and the factored torus operator replaced;
tests compare the two.
"""

import itertools
import math

import numpy as np

from skewtherm.base import BasePoint
from skewtherm.errors import (
    CapacityExhaustedError,
    NoConvergenceError,
    NonpositiveDenominatorError,
)
from skewtherm.fibers import grid_preimages
from skewtherm.gridfn import GridFn, interp_nodes
from skewtherm.measures import conditional_integrate, fiber_integrate
from skewtherm.operators import (
    _Stencil,
    apply_fiber_operator,
    fiber_stencil,
    fiber_weights,
    full_operator_column,
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


BISECT_WIDTH = 1e-12
BISECT_NEWTON_STEPS = 5


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


def fiber_step_reference(pot, family, x, psi):
    """One fiber transfer step as a branch sum: e^phi at each preimage times
    psi interpolated there.  Returns total values (log offset applied), not
    renormalized."""
    y1, y2 = grid_preimages(family, x, psi.n_nodes)
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
        for yb in grid_preimages(family, xbar, n_y):
            out += np.exp(pot(xbar, yb)) * big_psi.interp(float(xbar), yb)
    return math.exp(big_psi.log_offset) * out


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
    return _Stencil(idx.reshape(size, 16), wgt.reshape(size, 16), size)


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
        if anchor == "delta":
            return fn.pair_delta(anchor_y)
        return fn.pair_uniform()
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
        total += mu_hat[i] * conditional_integrate(
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
        column = full_operator_column(pot, family, x, big_psi)
        lhs = fiber_integrate(pot, family, x, column, n, anchor_y)
        rhs = 0.0
        for xbar in x.preimages():
            slice_fn = big_psi.slice_at(float(xbar))
            rhs += math.exp(phi_eval(xbar)) * fiber_integrate(
                pot, family, xbar, slice_fn, n, anchor_y)
        worst = max(worst, abs(lhs - rhs))
    return worst
