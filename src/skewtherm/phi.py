"""The transverse base potential: log-ratios of fiber operator cascades.

Phi_n(x) compares an (n+1)-step cascade started on the fiber over x with an
n-step cascade started over f(x), both paired against an anchor measure on
the common image fiber.  The sequence converges geometrically; the limit is
the potential whose base equilibrium state is the pushforward of the full
one.  On a dyadic orbit the limit is computed exactly: the orbit reaches
the fixed point x = 0, whose fiber measure is the left Perron vector of
L_0, and the eigen-equation L_x* nu_f(x) = e^Phi(x) nu_x pulls it back.
One store of pulled-back fiber measures (``_MeasureStore``) serves those
exact values, the depth-n fiber measures of ``measures`` and the stencils
of the cascades.  An exact value's pull is registered in the store when its
hit is decided and filled later: a ``phi_evaluator`` tabulating a base grid
fills 64 points' pulls at a time, with one stencil request per fill.

The anchor has one representation, a read-only vector of node weights
(``anchor_weights``), used on both sides of the duality <L^(n+1) 1, w> =
<1, (L*)^(n+1) w>: the forward cascades of ``PhiSequence`` pair with it,
and the store of the fiber measures starts its pull-back from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import BasePoint
from .errors import CapacityExhaustedError, DegenerateFitError, NoConvergenceError
from .fibers import MpFamily
from .gridfn import GridFn, interp_nodes, pair_log
from .operators import _BLOCK_POINTS, _Stencil, _power_iterate, fiber_stencils
from .potential import TrigPotential

DEFAULT_FIBER_NODES = 512
DEFAULT_ANCHOR_Y = 0.5
CONSERVATIVE_TAU = 0.9
MAX_PHI_DEPTH = 200
# steps compute_phi takes before it has two increments to predict from
_FIRST_BLOCK = 8
# nu_0 is iterated to the floating-point floor; its residual is the bound of
# every Phi value pulled back from it
_NU0_TOL = 1e-15
_NU0_MAX_ITER = 1000
# per-scale median gaps of Phi at or below this are roundoff, not a trend
_HOLDER_DIFF_FLOOR = 1e-12


def _exact(x: BasePoint) -> tuple[int, int]:
    """The value of x as (odd numerator, digit count), (0, 0) for x = 0: one
    value reached at different capacities has one key."""
    tz = (x.num & -x.num).bit_length() - 1
    return (x.num >> tz, x.capacity - tz) if x.num else (0, 0)


class _MeasureStore:
    """Fiber measures pulled back along exact orbits, for one potential,
    family and fiber grid.

    An entry is a pair (node weights summing to 1, log of their mass before
    normalizing), keyed on the exact value of a base point x and the number
    k of adjoint steps left.  With k = 0 it is ``start``; otherwise it is
    L_x^T applied to the entry over f(x) with k - 1 steps left, divided by
    its mass.  So orbits that merge share every entry below the merge, and
    an entry depends neither on the order of lookups nor on the capacity of
    the point it was first reached from.  Stored weights are read-only.

    A request is two steps.  ``register`` walks each chain forward to its
    first stored or registered entry and records the missing keys; a
    registered key counts as known (``knows``) before it is filled.
    ``fill`` fills every registered key: one ``stencils`` request builds a
    stencil per distinct value off zero on the walks, shared by every key of
    that value (a chain can meet one value at several depths), and the
    entries follow in increasing order of steps left.  One fill holds those
    stencils, 4 * n_nodes (index, weight) pairs per value, until it ends:
    the stencils of every chain registered since the last fill, so a caller
    bounds them by how many requests it registers before filling (the
    chains of at most 64 points in ``phi_evaluator``).  ``pull`` is a
    register and a fill.  The fixed point x = 0 is different: ``forward``
    masks digits, so an orbit that reaches it never leaves it, and its one
    stencil is kept.

    Without a ``start`` the store holds exact measures, built on the first
    lookup of 0: the start is nu_0, the left Perron vector of L_0, taken one
    more adjoint step over 0, so that its log-mass is Phi(0).  A dyadic z
    with d digits reaches 0 after d steps, and its entry at k = d is nu_z,
    with log-mass Phi(z) by the eigen-equation L_z* nu_f(z) = e^Phi(z) nu_z.

    With the anchor's weights as start (``anchor_weights``, log-mass 0),
    as in ``measures``, the entry over x with k steps left is the depth-k
    fiber measure, and its log-mass is the Phi_(k-1)(x) of ``PhiSequence``,
    which pairs its forward cascades with the same weights: by the duality
    <L^j 1, w> = <1, (L*)^j w>, at j = k and j = k - 1.
    """

    def __init__(self, pot: TrigPotential, family: MpFamily, n_nodes: int,
                 start: tuple[np.ndarray, float] | None = None):
        self.pot = pot
        self.family = family
        self.n_nodes = n_nodes
        self.start = start
        self.bound = math.inf  # residual of nu_0, once built
        self._zero: _Stencil | None = None
        self._entries: dict = {}
        self._missing: dict = {}  # key -> (point, key it is pulled from)

    def stencils(self, xs: list[BasePoint]) -> list[_Stencil]:
        """The stencils over xs: the kept one over 0, built on first use,
        and a fresh one over every other point, all of those built by one
        ``fiber_stencils`` call, made only when there is one to build."""
        if self._zero is None:
            zeros = [x for x in xs if not x.num]
            if zeros:
                self._zero = fiber_stencils(self.pot, self.family, zeros[:1],
                                            self.n_nodes)[0]
        off_zero = [x for x in xs if x.num]
        fresh = iter(fiber_stencils(self.pot, self.family, off_zero,
                                    self.n_nodes) if off_zero else ())
        return [next(fresh) if x.num else self._zero for x in xs]

    @staticmethod
    def _step(stencil: _Stencil, measure: np.ndarray):
        w = stencil.apply_adjoint(measure)
        mass = float(np.sum(w))
        w /= mass
        w.setflags(write=False)
        return w, math.log(mass)

    def register(self, xs: list[BasePoint], k: int) -> None:
        """Record the keys missing under the entries over xs with k steps
        left: every chain is walked forward to its first stored or
        registered entry."""
        for x in xs:
            key = _exact(x), k
            while (key[1] and key not in self._entries
                   and key not in self._missing):
                y = x.forward(1)
                self._missing[key] = x, (_exact(y), key[1] - 1)
                x, key = y, self._missing[key][1]

    def fill(self, xs=()) -> dict:
        """Fill every registered key, in increasing order of steps left, so
        the entry over f(x) with one step fewer, which each is pulled back
        from, is there first.  Returns the stencils the fill built, by
        exact value: one per value on the registered walks and one per
        point of xs, in one ``stencils`` request."""
        if not (self._missing or xs):
            return {}
        points = {value: x for (value, _), (x, _) in self._missing.items()}
        for x in xs:
            points.setdefault(_exact(x), x)
        built = dict(zip(points, self.stencils(list(points.values()))))
        for key in sorted(self._missing, key=lambda key: key[1]):
            prev = self._missing[key][1]
            entry = self._entries[prev] if prev[1] else self.start
            self._entries[key] = self._step(built[key[0]], entry[0])
        self._missing.clear()
        return built

    def pull(self, xs: list[BasePoint], k: int, stencils: bool = False):
        """The entries over xs with k steps left: a ``register`` and a
        ``fill``.

        With ``stencils``, returns (entries, the stencils over xs): a
        stencil the fill builds anyway is handed back, and the others are
        built in the same block, so every x needs capacity >= 1.
        """
        self.register(xs, k)
        built = self.fill(xs if stencils else ())
        entries = [self._entries[_exact(x), k] if k else self.start
                   for x in xs]
        if stencils:
            return entries, [built[_exact(x)] for x in xs]
        return entries

    def knows(self, z: BasePoint) -> bool:
        """Whether the exact measure over z is stored or registered; the
        first lookup of 0 builds the start.  A point with no digits left is
        where an orbit runs out of capacity, not the fixed point, so it has
        none."""
        if not z.capacity:
            return False
        if z.num:
            value = _exact(z)
            key = value, value[1]
            return key in self._entries or key in self._missing
        if self.start is None:
            (zero,) = self.stencils([z])
            _, _, nu0, self.bound, _ = _power_iterate(zero, _NU0_TOL,
                                                      _NU0_MAX_ITER)
            self.start = self._step(zero, nu0)
        return True


def anchor_weights(anchor: str, anchor_y: float, n_nodes: int) -> np.ndarray:
    """The anchor measure as read-only node weights summing to 1: the
    interpolation weights of delta at anchor_y for "delta", the node
    average for "uniform".  Phi's forward cascades pair with it, and the
    fiber measures are it pulled back (``_MeasureStore`` with it as start)."""
    if anchor == "delta":
        weights = np.bincount(*interp_nodes(anchor_y, n_nodes),
                              minlength=n_nodes)
    elif anchor == "uniform":
        weights = np.full(n_nodes, 1.0 / n_nodes)
    else:
        raise ValueError("anchor must be 'delta' or 'uniform'")
    weights.setflags(write=False)
    return weights


class PhiSequence:
    """Incrementally extended cascades behind the Phi_n values at one x.

    The cascade started over x is one step ahead of the one started over
    f(x): after its first step over x, both apply L_{f(x)}, L_{f^2(x)}, ...
    in lockstep, so each orbit point's stencil is built once and applied to
    both.  Each cascade is a pair (node values, log offset): after every
    step its values are divided by their maximum, which is their sup norm
    since they are never negative, and the log of it goes to the offset.
    Phi_n is the log-ratio of their pairings with the anchor's weights
    (``anchor_weights``), one dot product each (``gridfn.pair_log``).  The
    weights are the vector whose pull-back through the adjoint steps gives
    the same number as a log-mass: <L^(n+1) 1, w> = <1, (L*)^(n+1) w>.  The
    stencils come from a store (a ``_MeasureStore``): the caller's
    ``store``, whose potential, family and grid then replace pot, family
    and n_nodes, or a fresh one.  A dyadic orbit lands on the fixed point
    x = 0 and stays there; from then on every step applies the one L_0
    stencil the store keeps.  ``value(n)`` takes the missing steps, with
    their stencils built in one request to the store, and ``values`` holds
    Phi_0, Phi_1, ... as far as taken.
    """

    def __init__(self, pot: TrigPotential, family: MpFamily, x: BasePoint,
                 n_nodes: int = DEFAULT_FIBER_NODES, anchor: str = "delta",
                 anchor_y: float = DEFAULT_ANCHOR_Y,
                 store: _MeasureStore | None = None):
        self.x = x
        self._store = store or _MeasureStore(pot, family, n_nodes)
        n_nodes = self._store.n_nodes
        self._weights = anchor_weights(anchor, anchor_y, n_nodes)
        # the cascades started over x and over f(x); GridFn checks the grid
        self._top = self._bot = (GridFn.ones(n_nodes).values, 0.0)
        self.values: list[float] = []

    def value(self, n: int) -> float:
        """Phi_n at x: the log-ratio of the two anchored cascade pairings."""
        if self.x.capacity < n + 1:
            raise CapacityExhaustedError(
                f"Phi_{n} needs capacity >= {n + 1}, have {self.x.capacity}")
        first = len(self.values)
        if n >= first:
            for j, stencil in enumerate(self._store.stencils(
                    [self.x.forward(j) for j in range(first, n + 1)]), first):
                self._top = _cascade_step(stencil, *self._top)
                if j:
                    self._bot = _cascade_step(stencil, *self._bot)
                self.values.append(pair_log(self._weights, *self._top)
                                   - pair_log(self._weights, *self._bot))
        return self.values[n]


def _cascade_step(stencil: _Stencil, values: np.ndarray, log_offset: float):
    """One transfer step of a cascade (values >= 0, log offset): apply, then
    divide by the maximum unless it is 0, folding its log into the offset."""
    values = stencil.apply(values)
    m = float(values.max())
    if m == 0.0:
        return values, log_offset
    values /= m
    return values, log_offset + math.log(m)


@dataclass
class PhiEntry:
    value: float
    n_used: int
    bound: float


class PhiTable:
    """The entries one ``phi_evaluator`` has computed, so that a repeated
    point costs nothing: a hit returns the entry a fresh computation would
    give.  It lives as long as the evaluator and is never written out.

    An entry is keyed on everything besides the evaluator's potential,
    family and tolerance that changes the value: the digits of x, the fiber
    grid size and the anchor.
    """

    def __init__(self):
        self.entries: dict[str, PhiEntry] = {}

    @staticmethod
    def key(x: BasePoint, n_nodes: int, anchor: str, anchor_y: float) -> str:
        return f"{x.bit_string()}:{n_nodes}:{anchor}:{anchor_y!r}"

    def __len__(self) -> int:
        return len(self.entries)


def compute_phi(pot: TrigPotential, family: MpFamily, x: BasePoint,
                tol: float = 1e-9, anchor: str = "delta",
                anchor_y: float = DEFAULT_ANCHOR_Y,
                n_nodes: int = DEFAULT_FIBER_NODES) -> tuple[float, int, float]:
    """Iterate Phi_n until the increment certifies the requested tolerance,
    or until the orbit is seen to reach a point whose fiber measure is
    known exactly.

    The certified threshold is tol * (1 - tau) with the fixed rate tau =
    CONSERVATIVE_TAU, so a value depends on its arguments alone.  The
    steps are taken a block at a time, each block one request to the
    ``PhiSequence`` (see ``_block_steps``), and before a block is taken its
    orbit points f^(m+1)(x) are looked up in a store of exact fiber
    measures (``_MeasureStore``), whose stencils the cascades of the loop
    share.  Every stored measure descends from nu_0, so a hit counts when
    the residual of nu_0 (7e-15 at 512 nodes, 9e-15 at 1024) is within the
    threshold.  On the first hit, at step m, no further cascade step is
    taken: Phi(x) is the log-mass of x's entry, pulled back from f^(m+1)(x)
    through the adjoint stencils over x, ..., f^m(x), each entry stored on
    the way.  That is the eigen-equation with no truncation, n_used = m and
    the residual of nu_0 as the bound.  The pull is registered in the store
    when the hit is decided and filled before the value is read, so a later
    look-ahead counts its entries as known.  An x pulled back before hits
    at m = 0 and returns its stored log-mass without a stencil.  A dyadic
    orbit hits within log2 of its denominator steps; a random point's never
    does, and it takes the tolerance loop alone.

    Otherwise the block's steps are taken, and the loop stops at the first
    n of the block with |Phi_n - Phi_{n-1}| within the threshold, with
    bound increment / (1 - tau).  The exact value wins over an increment:
    when a block's look-ahead hits at m, Phi is the pulled-back value even
    if an increment before step m would have certified.  Blocks change no
    other value.  Returns (value, n_used, bound).  Consumers that evaluate
    Phi at many points take a ``phi_evaluator``, whose store and table are
    shared by its points and whose store is filled 64 points at a time;
    this is its evaluation of one point with a fresh store and table.
    """
    (entry,) = _phi_entries([x], tol, PhiTable(), anchor, anchor_y,
                            _MeasureStore(pot, family, n_nodes))
    return entry.value, entry.n_used, entry.bound


def _phi_entries(xs: list[BasePoint], tol: float, table: PhiTable,
                 anchor: str, anchor_y: float,
                 known: _MeasureStore) -> list[PhiEntry]:
    """The entries of Phi at xs, in order, sharing the store ``known`` (see
    ``compute_phi``).  An exact value is pending from its hit until the
    store's next fill, which comes when _BLOCK_POINTS points are pending
    and once at the end; its entry, already in the table, gets its value
    then.  If a point raises, the pending entries leave the table."""
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    entries: list[PhiEntry] = []
    pending: list[tuple[BasePoint, PhiEntry]] = []
    try:
        for x in xs:
            entries.append(_phi_entry(x, tol, table, anchor, anchor_y, known,
                                      pending))
            if len(pending) == _BLOCK_POINTS:
                _fill(known, pending)
        _fill(known, pending)
    except BaseException:
        for x, _ in pending:
            table.entries.pop(PhiTable.key(x, known.n_nodes, anchor,
                                           anchor_y), None)
        raise
    return entries


def _fill(known: _MeasureStore, pending: list) -> None:
    """Fill the store, then give each pending entry its log-mass."""
    if pending:
        known.fill()
        for x, entry in pending:
            ((_, entry.value),) = known.pull([x], _exact(x)[1])
        pending.clear()


def _phi_entry(x: BasePoint, tol: float, table: PhiTable, anchor: str,
               anchor_y: float, known: _MeasureStore,
               pending: list) -> PhiEntry:
    """``compute_phi``'s loop at x.  On an exact hit, x's pull is
    registered in ``known`` and its entry, whose value the next fill
    writes, is appended to ``pending``."""
    key = PhiTable.key(x, known.n_nodes, anchor, anchor_y)
    hit = table.entries.get(key)
    if hit is not None and hit.bound <= tol:
        return hit
    if x.capacity < 1:
        raise CapacityExhaustedError("Phi_0 needs capacity >= 1, have 0")

    n_cap = min(MAX_PHI_DEPTH, x.capacity - 1)
    certified = tol * (1.0 - CONSERVATIVE_TAU)

    def exact(n: int) -> bool:
        return known.knows(x.forward(n + 1)) and known.bound <= certified

    seq = None  # the cascades, started by the first block taken
    incs = []  # |Phi_n - Phi_(n-1)| for n = 1, 2, ...
    n = 0
    while n <= n_cap:
        last = min(n_cap, n - 1 + _block_steps(incs, certified))
        hit = next((m for m in range(n, last + 1) if exact(m)), None)
        if hit is not None:
            known.register([x], _exact(x)[1])
            entry = PhiEntry(math.nan, hit, known.bound)
            pending.append((x, entry))
            break
        seq = seq or PhiSequence(known.pot, known.family, x, anchor=anchor,
                                 anchor_y=anchor_y, store=known)
        seq.value(last)
        block = range(max(n, 1), last + 1)
        incs += [abs(seq.values[m] - seq.values[m - 1]) for m in block]
        n = last + 1
        done = next((m for m in block if incs[m - 1] <= certified), None)
        if done is not None:
            entry = PhiEntry(seq.values[done], done,
                             incs[done - 1] / (1.0 - CONSERVATIVE_TAU))
            break
    else:
        raise NoConvergenceError(
            f"Phi increments above tolerance after n = {n_cap} (capacity "
            f"{x.capacity}); raise capacity or loosen tol")
    table.entries[key] = entry
    return entry


def _block_steps(incs: list[float], certified: float) -> int:
    """How many steps the next block takes, given the increments so far:
    _FIRST_BLOCK at first, then as many as the ratio of the last two
    increments predicts the increments need to fall to the threshold, at
    most as many as were taken (the ratio of two increments is noisy)."""
    if len(incs) < 2 or not incs[-1] < incs[-2]:
        return _FIRST_BLOCK
    steps = math.log(certified / incs[-1]) / math.log(incs[-1] / incs[-2])
    return min(math.ceil(steps), len(incs) + 1)


def phi_evaluator(pot: TrigPotential, family: MpFamily, tol: float = 1e-9,
                  anchor: str = "delta", anchor_y: float = DEFAULT_ANCHOR_Y,
                  n_nodes: int = DEFAULT_FIBER_NODES):
    """A callable giving Phi at one BasePoint, or a list of the values at
    each point of a list: how Phi reaches the base transfer operator, the
    Hölder estimate and the eigen-equation and intertwining checks.

    Its calls share one store of known fiber measures, so the merging orbits
    of a dyadic base grid's preimage nodes resolve each orbit point once,
    and one ``PhiTable`` (``evaluate.table``), so a repeated point costs
    nothing.  A list is evaluated in order, as ``compute_phi`` would one
    point after the other with that store, and gives the same entries; a
    single point is a list of one.  The exact values' pulls are filled
    _BLOCK_POINTS (64) points at a time, so a fill builds the stencils of
    one block's chains in one request and holds them until it ends, 32 KB
    each at 512 fiber nodes: at most 191 stencils (6.1 MB) in a fill of a
    512-node base grid, 223 (7.1 MB) of a 1024-node one.  The store holds
    one n_nodes vector per resolved point and lives as long as the
    evaluator: 2N vectors for an N-node base grid, e.g. 0.5 MB at 64 base
    nodes and 512 fiber nodes, 16 MB at 1024 and 1024.
    """
    table = PhiTable()
    known = _MeasureStore(pot, family, n_nodes)

    def evaluate(x):
        xs = [x] if isinstance(x, BasePoint) else x
        values = [entry.value for entry in
                  _phi_entries(xs, tol, table, anchor, anchor_y, known)]
        return values[0] if isinstance(x, BasePoint) else values

    evaluate.table = table
    return evaluate


@dataclass(frozen=True)
class ConvergenceFit:
    tau_emp: float
    c1_emp: float
    r_squared: float
    n_points: int

    def to_json(self) -> dict:
        return {"tau_emp": self.tau_emp, "c1_emp": self.c1_emp,
                "r_squared": self.r_squared, "n_points": self.n_points}


def _line_fit(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return float(slope), float(intercept), r2


def fit_convergence_rate(pot: TrigPotential, family: MpFamily, x: BasePoint,
                         n_max: int, n_min: int = 0,
                         anchor: str = "delta",
                         anchor_y: float = DEFAULT_ANCHOR_Y,
                         n_nodes: int = DEFAULT_FIBER_NODES,
                         increment_floor: float = 1e-13) -> ConvergenceFit:
    """Least-squares fit of log |Phi_n - Phi_n_max| against n.

    Only gaps above ``increment_floor`` enter the fit; with fewer than three
    usable points (constant potentials converge instantly) the fit is
    degenerate and raises DegenerateFitError, which callers treat as
    already-converged.

    The signed error can cross zero at isolated n, producing gaps far below
    the geometric envelope; since the convergence statement is an upper
    bound, a second pass drops points more than two log-units under the
    first-pass line before refitting.
    """
    if n_max < 15:
        raise ValueError("rate fit needs n_max >= 15")
    seq = PhiSequence(pot, family, x, n_nodes=n_nodes, anchor=anchor,
                      anchor_y=anchor_y)
    seq.value(n_max)
    values = np.array(seq.values)
    gaps = np.abs(values[:-1] - values[-1])
    ns = np.arange(n_max)
    usable = (gaps > increment_floor) & (ns >= n_min)
    if np.count_nonzero(usable) < 3:
        raise DegenerateFitError("increments underflow; sequence already flat")
    xs = ns[usable]
    ys = np.log(gaps[usable])
    slope, intercept, _ = _line_fit(xs, ys)
    keep = ys - (slope * xs + intercept) > -2.0
    if np.count_nonzero(keep) >= 3:
        xs, ys = xs[keep], ys[keep]
    slope, intercept, r2 = _line_fit(xs, ys)
    return ConvergenceFit(tau_emp=math.exp(slope), c1_emp=math.exp(intercept),
                          r_squared=r2, n_points=int(xs.size))


@dataclass(frozen=True)
class HolderEstimate:
    """Empirical regularity exponent of the transverse potential."""

    exponent_emp: float
    seminorm_emp: float
    r_squared: float
    scales: tuple[float, ...]
    medians: tuple[float, ...]
    degenerate: bool = False

    def scale_ratios(self) -> np.ndarray:
        """Per-scale median of |dPhi| / delta^exponent."""
        scales = np.asarray(self.scales)
        return np.asarray(self.medians) / scales ** self.exponent_emp

    def to_json(self) -> dict:
        return {"exponent_emp": self.exponent_emp,
                "seminorm_emp": self.seminorm_emp,
                "r_squared": self.r_squared,
                "scales": list(self.scales), "medians": list(self.medians),
                "degenerate": self.degenerate}


def _dyadic_exponent(delta: float) -> int:
    """The k with delta == 2^-k exactly; ValueError for any other delta."""
    k = round(-math.log2(delta))
    if 2.0 ** -k != delta:
        raise ValueError(f"scale {delta} is not a dyadic 2^-k")
    return k


def estimate_holder(phi_eval, scales: tuple[float, ...],
                    pairs_per_scale: int, rng: np.random.Generator,
                    capacity: int = 80) -> HolderEstimate:
    """Sample |Phi(x) - Phi(x + delta)| at dyadic separations and fit a
    power law in the separation.

    ``phi_eval`` maps a BasePoint to Phi (a ``phi_evaluator``), so the
    tolerance, grid, anchor and table of every value are the evaluator's.
    Pairs are built by exact digit addition from random points with
    ``capacity`` digits, so the base distance is exactly delta.  The power
    law is fitted through the per-scale medians: the pointwise gaps are
    heavy-tailed (the local regularity of the potential varies with
    position), so the median trend is the stable scaling observable.  A
    constant potential gives identically vanishing differences and a
    degenerate estimate (flagged, not raised).
    """
    ks = [_dyadic_exponent(d) for d in scales]
    if not all(4 <= k <= 12 for k in ks):
        raise ValueError("scales must lie in 2^-4 .. 2^-12")
    medians = []
    for delta, k in zip(scales, ks):
        diffs = []
        for _ in range(pairs_per_scale):
            x = BasePoint.random(rng, capacity)
            x2 = x.add_dyadic(1, k)
            diffs.append(abs(phi_eval(x) - phi_eval(x2)))
        medians.append(float(np.median(diffs)))
    usable = [(math.log(d), math.log(m)) for d, m in zip(scales, medians)
              if m > _HOLDER_DIFF_FLOOR]
    if len(usable) < 3:
        return HolderEstimate(exponent_emp=0.0, seminorm_emp=0.0, r_squared=0.0,
                              scales=tuple(scales), medians=tuple(medians),
                              degenerate=True)
    xs, ys = map(np.asarray, zip(*usable))
    slope, intercept, r2 = _line_fit(xs, ys)
    return HolderEstimate(exponent_emp=slope, seminorm_emp=math.exp(intercept),
                          r_squared=r2, scales=tuple(scales),
                          medians=tuple(medians))
