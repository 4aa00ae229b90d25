"""Manneville-Pomeau fiber maps driven by the doubling base.

The fiber over x carries g_x(y) = y + y^(p(x)+1) mod 1 with exponent profile
p(x) = p0 + p1*(1 - cos(2*pi*x))/2.  Each g_x has two monotone branches split
at the point c_x solving c + c^(p+1) = 1; branch 1 (the one containing the
neutral fixed point y=0) is the only branch whose inverse can fail to contract.
Both inverse branches, and c_x itself, are roots of the increasing convex
function y + y^(p+1) - target, found by unbracketed vectorized Newton
iteration.  The grid-node preimage tables of the lattice exponents k/64
are kept until cleared; no other table is.  A block of base points
(``operators.fiber_weights`` decides its size) asks for its exponents
together, and the tables not kept are solved as one stacked Newton
iteration in which each exponent's rows stop where a solve of that
exponent alone would.  An exponent on the lattice, or too close to 0 to
have two positive lattice exponents below it, starts on the branch
chords.  Any other starts on the cubic through the kept tables of its
four nearest lattice exponents, and takes its split point from the same
solve.  So a table is a function of its exponent and grid alone: not of
the block that computed it, nor of which tables are kept.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .base import BasePoint, circle_distance
from .errors import CapacityExhaustedError, HypothesisViolatedError, NoConvergenceError

# Fiber circle with the wraparound metric: largest possible distance.
DIAM_Y = 0.5

# Newton preimage solve: iteration cap and the step, in ulps of the target,
# below which it has converged
_NEWTON_CAP = 60
_STEP_ULPS = 4.0
# numpy raises an array to a single exponent of 0.5 or 2 by sqrt or square,
# to several by pow, which rounds differently: these exponents are solved
# alone, so that no table depends on the exponents stacked with it
_SCALAR_POWERS = (0.5, 2.0)
# preimage tables of the exponents k / _LATTICE start Newton on the branch
# chords, and the tables of every other exponent start from theirs
_LATTICE = 64


@dataclass(frozen=True)
class MpFamily:
    """Parameters of the fiber family."""

    p0: float = 0.5
    p1: float = 0.5
    delta_a: float = 0.1

    def __post_init__(self):
        if self.p0 <= 0:
            raise ValueError("p0 must be positive")
        if self.p1 < 0:
            raise ValueError("p1 must be nonnegative")
        # the split point c_x grows with p, so the binding case is p = p0
        if not 0 < self.delta_a < branch_boundary_for_exponent(self.p0):
            raise ValueError("neutral band must sit inside branch 1's domain")

    def exponent(self, x):
        """Fiber exponent p(x) at a BasePoint or a float, or elementwise at
        a float array."""
        xv = x if isinstance(x, np.ndarray) else float(x)
        return self.p0 + self.p1 * (1.0 - np.cos(2.0 * np.pi * xv)) / 2.0

    def to_json(self) -> dict:
        return {"p0": self.p0, "p1": self.p1, "delta_a": self.delta_a}

    @classmethod
    def from_json(cls, d: dict) -> "MpFamily":
        return cls(**d)


def fiber_forward(family: MpFamily, x, y):
    """g_x(y) = y + y^(p(x)+1) mod 1; y may be an array."""
    p = family.exponent(x)
    y = np.asarray(y, dtype=float)
    out = (y + y ** (p + 1.0)) % 1.0
    if out.ndim == 0:
        return float(out)
    return out


def _solve_increasing(p, target, y):
    """Vectorized roots of y + y^(p+1) = target by Newton iteration from the
    start y >= 0, one solve per row (the leading axis of y and p).  The
    roots are written over y, which is returned.

    f(y) = y + y^(p+1) - target is increasing and convex on y >= 0.  A Newton
    step from any y >= 0 therefore lands right of the root (or on it), and
    from there the iterates decrease monotonically onto it: no bracket is
    needed, and a start left of the root costs one overshoot.  Iterates stay
    >= 0, so the fractional powers stay real.  A row stops once every step
    in it is within a few ulps of its target, the step at which a solve of
    that row alone stops, so stacking rows changes no value.  Raises
    NoConvergenceError after _NEWTON_CAP steps instead of looping on.
    """
    # an ulp of the target; subnormal targets share the smallest one
    fp = np.finfo(float)
    tol = _STEP_ULPS * fp.eps * np.maximum(target, fp.tiny)
    axes = tuple(range(1, y.ndim))
    out = y
    rows = np.arange(len(y))
    p1 = p + 1.0
    y_p, step = np.empty_like(y), np.empty_like(y)
    for _ in range(_NEWTON_CAP):
        # step = (y + y * y^p - target) / (1 + (p + 1) * y^p), in place
        np.power(y, p, out=y_p)
        np.multiply(y, y_p, out=step)
        step += y
        step -= target
        y_p *= p1
        y_p += 1.0
        step /= y_p
        y -= step
        done = (np.abs(step, out=step) <= tol).all(axis=axes)
        if done.any():
            # until the first row stops, y is out itself
            if y is not out:
                out[rows[done]] = y[done]
            if done.all():
                return out
            keep = ~done
            rows, y, p, p1 = rows[keep], y[keep], p[keep], p1[keep]
            y_p, step = np.empty_like(y), np.empty_like(y)
    raise NoConvergenceError(
        f"Newton preimage solve not converged in {_NEWTON_CAP} steps")


def _round_up_short(c, p):
    """The split points c of the exponents p, both of one shape, each taken
    one ulp right where rounding left it short, so that c + c^(p+1) >= 1 in
    scalar arithmetic (the C library's pow).

    ``fiber_forward`` uses numpy's pow, which can round differently.  So it
    sends c to 0, to just above 0 or, for a few exponents, to 1 - 2^-53 (22
    of 2000 uniform random base points of the default family): the same
    circle point in every case.
    """
    short = np.fromiter((ci + ci ** (pi + 1.0) < 1.0 for ci, pi in
                         zip(map(float, c.flat), map(float, p.flat))),
                        dtype=bool, count=c.size).reshape(c.shape)
    return np.where(short, np.nextafter(c, 2.0), c)


def branch_boundary_for_exponent(p):
    """The split point c with c + c^(p+1) = 1, for a scalar p or elementwise
    for an array.

    Each exponent is its own Newton row from y = 1, right of the root, and
    is checked by ``_round_up_short``, so its c does not depend on the
    array it comes in.
    """
    p = np.asarray(p, dtype=float)
    rows = p.reshape(-1, 1)
    c = _round_up_short(_solve_increasing(rows, 1.0, np.ones_like(rows)),
                        rows).reshape(p.shape)
    return float(c) if c.ndim == 0 else c


def branch_boundary(family: MpFamily, x) -> float:
    return branch_boundary_for_exponent(family.exponent(x))


def _branch_rows(p, t, start=None):
    """Both g-preimages of the targets t, for each row of exponents p.

    p has shape (m, 1), one exponent per row, or (1, len(t)), one per
    target.  Returns an (m, 2, len(t)) array: y1 solves y + y^(p+1) = t on
    [0, c), y2 solves y + y^(p+1) = t + 1 on [c, 1).  Each row is one
    stacked (2, len(t)) Newton solve.  Without a ``start`` it starts on the
    chords of the two convex branches, c*t and c + (1-c)*t, which lie left
    of the roots, and c comes from its own solve
    (``branch_boundary_for_exponent``).  A grid table's rows, with t[0] = 0,
    may start from ``start`` instead, an (m, 2, len(t)) array that the solve
    overwrites and returns: c is then the branch-2 root at t = 0, whose
    target is 1, read off the same solve.
    """
    targets = np.stack((t, t + 1.0))
    if start is None:
        c = branch_boundary_for_exponent(p)
        ys = _solve_increasing(p[:, None], targets,
                               np.stack((c * t, c + (1.0 - c) * t), axis=1))
    else:
        ys = _solve_increasing(p[:, None], targets, start)
        c = _round_up_short(ys[:, 1, :1], p)
    # rounding can leave the expanding root an ulp left of c; the branch ends
    # at y=1, which is the same circle point as 0
    y2 = ys[:, 1]
    np.maximum(y2, c, out=y2)
    y2[y2 >= 1.0] = 0.0
    return ys


def _lattice_start(p: float):
    """The four lattice exponents nearest p, two on each side, and the
    weights of the cubic through them at p; None for an exponent on the
    lattice and for one whose lattice neighbours are not all positive:
    those start on the chords."""
    s = p * _LATTICE
    if not math.isfinite(s) or s == math.floor(s) or s < 2.0:
        return None
    k = math.floor(s)
    u = s - k  # exact, in (0, 1)
    return (tuple((k + j) / _LATTICE for j in (-1, 0, 1, 2)),
            (-u * (u - 1.0) * (u - 2.0) / 6.0,
             (u + 1.0) * (u - 1.0) * (u - 2.0) / 2.0,
             -(u + 1.0) * u * (u - 2.0) / 2.0,
             (u + 1.0) * u * (u - 1.0) / 6.0))


def inverse_branches_for_exponent(p, t):
    """Both g-preimages of t for exponent(s) p: neutral branch then expanding.

    Fully vectorized over t (and p, if given as a matching array), as one
    Newton solve (see ``_branch_rows``); y1 and y2 are the two rows of one
    (2, n) array.

    So a target's preimages depend on the batch it comes in: the row of
    all targets stops when its slowest target converges.  Against one call
    per target, over 5000 random (p in [0.5, 1), t in [0, 1)), numpy rng
    seed 0, 101 y1 and 222 y2 values differ, by at most 2 ulps.  Grid
    tables (``grid_preimages``) solve one exponent per row, each stopping
    where it would alone, and are not affected.  Solving one row per
    target instead costs about 4 times as much for 65536 targets of one
    exponent (9.7 -> 41.0 ms) and 1.8 times for 20000 mixed exponents
    (11.9 -> 21.0 ms; min of 7 runs, 2 vCPU host).
    """
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    y1, y2 = _branch_rows(np.asarray(p, dtype=float).reshape(1, -1), t)[0]
    if scalar:
        return float(y1[0]), float(y2[0])
    return y1, y2


def fiber_inverse_branches(family: MpFamily, x, t):
    """Ordered preimage pair (y1, y2) of t under g_x, neutral branch first."""
    return inverse_branches_for_exponent(family.exponent(x), t)


PreimageCacheInfo = namedtuple("PreimageCacheInfo", "hits misses")


class _PreimageTables:
    """Preimage tables of the fiber grid nodes j/n under g, for any exponent
    p.  The tables of the lattice exponents k/64 are kept, keyed on p and n,
    until ``cache_clear``; no other table is kept, and none is evicted.

    A table is a read-only (2, n) array (y1, y2); a kept one owns its 2n
    doubles.  ``rows`` asks for the exponents of a block of base points.
    An exponent off the lattice starts from the tables of its lattice
    neighbours (``_lattice_start``), which are looked up, solved where
    missing and kept, and is solved on every request that asks for it.
    The missing lattice tables are solved as one stack from the chords,
    then the other exponents as one stack from their starts.  A hit is an
    asked-for exponent whose table is kept, or a repeat within the
    request; every other asked-for exponent is a miss, and the lookups of
    lattice neighbours are not counted.  So the tables kept for a family
    whose exponents span [p0, p0 + p1] number at most 64*p1 + 5 per grid.
    """

    def __init__(self):
        self._tables = {}
        self.cache_clear()

    def cache_clear(self) -> None:
        self._tables.clear()
        self.hits = self.misses = 0

    def cache_info(self) -> PreimageCacheInfo:
        return PreimageCacheInfo(self.hits, self.misses)

    def rows(self, ps, n_nodes: int) -> list[np.ndarray]:
        """The table for each exponent in ps."""
        ps = [float(p) for p in ps]
        found = {p: self._tables.get((p, n_nodes)) for p in dict.fromkeys(ps)}
        missing = [p for p, table in found.items() if table is None]
        self.misses += len(missing)
        self.hits += len(ps) - len(missing)
        starts = {p: start for p in missing
                  if (start := _lattice_start(p)) is not None}
        for nodes, _ in starts.values():
            for q in nodes:
                found.setdefault(q, self._tables.get((q, n_nodes)))
        chords = [p for p, table in found.items()
                  if table is None and p not in starts]
        stacks = [[p] for p in chords if p in _SCALAR_POWERS]
        stacks.append([p for p in chords if p not in _SCALAR_POWERS])
        t = np.arange(n_nodes, dtype=float) / n_nodes
        for chunk in filter(None, stacks):
            ys = _branch_rows(np.array(chunk)[:, None], t)
            for p, table in zip(chunk, ys):
                if (p * _LATTICE).is_integer():
                    table = self._tables[p, n_nodes] = table.copy()
                found[p] = table
                table.setflags(write=False)
        if starts:
            # per element, the operations of a start built on its own, in
            # the same order, so no start depends on the others in the
            # stack; one (m, 2, n) gather per neighbour, since one (m, 4,
            # 2, n) gather falls out of cache
            nodes, weights = zip(*starts.values())
            w = np.array(weights)[:, :, None, None]
            start = np.array([found[near[0]] for near in nodes]) * w[:, 0]
            for j in (1, 2, 3):
                start += w[:, j] * np.array([found[near[j]] for near in nodes])
            np.maximum(start, 0.0, out=start)
            ys = _branch_rows(np.array(list(starts))[:, None], t, start)
            ys.setflags(write=False)
            found.update(zip(starts, ys))
        return [found[p] for p in ps]


_grid_preimage_tables = _PreimageTables()


def grid_preimages(family: MpFamily, xs, n_nodes: int):
    """Preimages of the fiber grid nodes j/n_nodes under g_x, for each base
    point x in xs: the pair (y1, y2) of (len(xs), n_nodes) arrays, neutral
    branch first.

    xs may be BasePoints, floats or a float array.  The tables of lattice
    exponents p(x) come from a store keyed on p(x); every other exponent
    is solved, from the stored tables of its lattice neighbours, in one
    stacked Newton iteration, so a block of orbit points costs one solve
    instead of one per point.
    """
    ps = family.exponent(np.array([float(x) for x in xs]))
    ys = np.array(_grid_preimage_tables.rows(ps, n_nodes)).reshape(
        len(xs), 2, n_nodes)
    return ys[:, 0], ys[:, 1]


def preimage_tree(family: MpFamily, x: BasePoint, y: float, n: int) -> list[np.ndarray]:
    """All 2^n preimages of y under the n-step fiber cascade over x.

    Returns per-level arrays ``levels[0..n]``: ``levels[k]`` holds the points
    of the partial forward orbits at level k, indexed so that the leaf for
    word index ``idx`` (bit i-1 of idx = branch letter w_i - 1, letters
    counted from the deepest preimage) appears at ``levels[k][idx >> k]``.
    ``levels[n]`` is just ``[y]``.
    """
    if x.capacity < n:
        raise CapacityExhaustedError(f"tree depth {n} exceeds capacity {x.capacity}")
    levels = [None] * (n + 1)
    levels[n] = np.array([y], dtype=float)
    for j in range(n - 1, -1, -1):
        p = family.exponent(x.forward(j))
        y1, y2 = inverse_branches_for_exponent(p, levels[j + 1])
        merged = np.empty(2 * len(y1))
        merged[0::2] = y1
        merged[1::2] = y2
        levels[j] = merged
    return levels


@dataclass(frozen=True)
class HypothesisConstants:
    """Measured and derived constants of the expansion regime, with checks."""

    d: int
    dhat: int
    q: int
    gamma: float
    L: float
    alpha: float
    eps_phi: float
    iota: float
    eps: float
    s: float = field(init=False)
    zeta: float = field(init=False)
    theta: float = field(init=False)
    c: float = field(init=False)

    @property
    def dbar(self) -> int:
        return self.d * self.dhat

    def __post_init__(self):
        s = math.exp(self.eps_phi) * (
            (self.d - self.q) * self.gamma ** (-self.alpha)
            + self.q * self.L ** self.alpha) / self.d
        zeta = s + 2.0 * s * self.eps_phi * DIAM_Y ** self.alpha
        theta = self.q * math.exp(self.eps) * math.exp(self.eps_phi) / self.d
        avg = self.gamma ** (-(1.0 - self.iota)) * self.L ** self.iota
        c = -0.25 * math.log(avg) if avg < 1.0 else float("nan")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "c", c)

    def checks(self) -> list[tuple[str, bool]]:
        avg = self.gamma ** (-(1.0 - self.iota)) * self.L ** self.iota
        out = [
            ("gamma > 1", self.gamma > 1.0),
            ("L >= 1", self.L >= 1.0),
            ("alpha in (0,1]", 0.0 < self.alpha <= 1.0),
            ("iota in (0,1)", 0.0 < self.iota < 1.0),
            ("s < 1", self.s < 1.0),
            ("zeta < 1", self.zeta < 1.0),
            ("theta < 1", self.theta < 1.0),
            ("0 < eps_phi < log d - log q",
             0.0 < self.eps_phi < math.log(self.d) - math.log(self.q)),
            ("gamma^-(1-iota) L^iota < e^-2c < 1",
             not math.isnan(self.c) and self.c > 0.0
             and avg < math.exp(-2.0 * self.c) < 1.0),
        ]
        return out

    def first_failure(self) -> str | None:
        for name, ok in self.checks():
            if not ok:
                return name
        return None

    def all_pass(self) -> bool:
        return self.first_failure() is None

    def to_json(self) -> dict:
        return {
            "d": self.d, "dhat": self.dhat, "dbar": self.dbar, "q": self.q,
            "gamma": self.gamma, "L": self.L, "alpha": self.alpha,
            "eps_phi": self.eps_phi, "iota": self.iota, "eps": self.eps,
            "s": self.s, "zeta": self.zeta, "theta": self.theta, "c": self.c,
            "checks": {name: ok for name, ok in self.checks()},
        }


def estimate_constants(family: MpFamily, alpha: float, eps_phi: float,
                       iota: float, eps: float, samples: int,
                       rng: np.random.Generator | None = None,
                       pair_distance: float = 1e-4,
                       exploratory: bool = False) -> HypothesisConstants:
    """Sample one-step preimage pairs to estimate gamma and L, then derive
    the regime constants and run their inequality checks.

    gamma is the smallest expansion ratio d(images)/d(preimages) seen over
    pairs whose preimage fiber coordinates both avoid the neutral band; L is
    the largest reciprocal ratio over pairs meeting the band, floored at 1
    (the regime assumes L >= 1 and the sampled supremum can dip just below).
    Raises HypothesisViolatedError naming the first failed inequality unless
    ``exploratory`` is set.
    """
    if samples < 1000:
        raise ValueError("need at least 10^3 samples")
    rng = rng or np.random.default_rng(0)

    x = rng.uniform(0.0, 1.0, size=samples)
    # mix pure-base, pure-fiber and diagonal displacements
    mode = rng.integers(0, 3, size=samples)
    dx = np.where(mode != 1, pair_distance, 0.0)
    dy = np.where(mode != 0, pair_distance, 0.0)
    # keep the target pair (y, y+dy) off the wrap point: branch-labeled
    # pairing follows the geodesic lift only when the geodesic avoids 0
    y = rng.uniform(0.0, 1.0, size=samples) * (1.0 - dy)
    x2 = (x + dx) % 1.0
    y2 = y + dy

    d_img = circle_distance((2.0 * x) % 1.0, (2.0 * x2) % 1.0) + circle_distance(y, y2)

    b1, b2 = inverse_branches_for_exponent(family.exponent(x), y)
    b1p, b2p = inverse_branches_for_exponent(family.exponent(x2), y2)
    d_base = circle_distance(x, x2)

    gamma_emp = math.inf
    L_emp = 0.0
    for yb, ybp in ((b1, b1p), (b2, b2p)):
        d_pre = d_base + circle_distance(yb, ybp)
        ratio = d_img / d_pre
        meets = (circle_distance(yb, 0.0) < family.delta_a) | \
                (circle_distance(ybp, 0.0) < family.delta_a)
        if np.any(~meets):
            gamma_emp = min(gamma_emp, float(np.min(ratio[~meets])))
        if np.any(meets):
            L_emp = max(L_emp, float(np.max(1.0 / ratio[meets])))
    if not math.isfinite(gamma_emp):
        raise HypothesisViolatedError("no preimage pairs outside neutral band")
    L_emp = max(L_emp, 1.0)

    constants = HypothesisConstants(d=2, dhat=2, q=1, gamma=gamma_emp,
                                    L=L_emp, alpha=alpha, eps_phi=eps_phi,
                                    iota=iota, eps=eps)
    failure = constants.first_failure()
    if failure is not None and not exploratory:
        raise HypothesisViolatedError(failure)
    return constants
