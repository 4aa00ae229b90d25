"""Branch-word bookkeeping: good/bad classification, counting, and the
mass and contraction estimates attached to depth-n preimage trees.
Words are counted by a closed form (``count_I``), which the tests check
against an enumeration of every word.

Words are branch-index sequences over {1, ..., d}; letter i is the branch
chosen at tree depth i counting from the deepest preimage, so the windows in
the good-word condition are suffixes.  For d = 2 a word is packed into the
bits of its tree index (bit i-1 = letter w_i - 1), which lets whole trees be
classified with vectorized popcounts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import BasePoint, circle_distance
from .errors import EmptyGoodSetError
from .fibers import HypothesisConstants, MpFamily, preimage_tree
from .phi import _line_fit
from .potential import TrigPotential

_COUNT_EPS = 1e-9


@dataclass(frozen=True)
class Word:
    letters: tuple[int, ...]
    d: int = 2

    def __post_init__(self):
        if not self.letters:
            raise ValueError("words must be nonempty")
        if any(not 1 <= l <= self.d for l in self.letters):
            raise ValueError(f"letters must lie in 1..{self.d}")

    def __len__(self) -> int:
        return len(self.letters)


def word_from_index(idx: int, n: int, d: int = 2) -> Word:
    """The word whose depth-n tree leaf sits at the given index."""
    if d != 2:
        raise ValueError("index packing is defined for d = 2 only")
    return Word(tuple(((idx >> (i - 1)) & 1) + 1 for i in range(1, n + 1)))


def is_good(word: Word | tuple[int, ...], m: int, iota: float, q: int) -> bool:
    """Whether every trailing window of jm letters has at most iota*jm
    neutral letters (letters <= q).

    The complementary class is taken as strictly-greater so good and bad
    words partition the full set.
    """
    letters = word.letters if isinstance(word, Word) else tuple(word)
    if m < 1:
        raise ValueError("window length m must be >= 1")
    if not 0.0 < iota < 1.0:
        raise ValueError("iota must be in (0, 1)")
    n = len(letters)
    for j in range(1, n // m + 1):
        window = letters[n - j * m:]
        neutral = sum(1 for l in window if l <= q)
        if neutral > iota * j * m + _COUNT_EPS:
            return False
    return True


def good_mask(n: int, m: int, iota: float, q: int = 1) -> np.ndarray:
    """Good/bad classification of all 2^n tree indices at once (d = 2)."""
    if q != 1:
        raise ValueError("vectorized masks cover the two-branch case q = 1")
    idx = np.arange(1 << n, dtype=np.uint64)
    good = np.ones(1 << n, dtype=bool)
    for j in range(1, n // m + 1):
        w = j * m
        suffix = idx >> np.uint64(n - w)
        neutral = w - np.bitwise_count(suffix).astype(np.int64)
        good &= neutral <= iota * w + _COUNT_EPS
    return good


def _min_qualifying_count(iota: float, length: int) -> int:
    """Smallest integer count k with k >= iota * length (float-tolerant)."""
    return max(0, math.ceil(iota * length - _COUNT_EPS))


def count_I(iota: float, n: int, q: int, d: int) -> int:
    """Number of length-n words with at least iota*n neutral letters.

    The closed form sums C(n, k) q^k (d-q)^(n-k) over qualifying neutral
    counts k.  iota = 0 counts every word (the iota -> 0 limit of the
    threshold).
    """
    kmin = _min_qualifying_count(iota, n)
    return sum(math.comb(n, k) * q ** k * (d - q) ** (n - k)
               for k in range(kmin, n + 1))


def _leaf_birkhoff_sums(pot: TrigPotential, family: MpFamily, x: BasePoint,
                        y: float, n: int) -> np.ndarray:
    """Birkhoff sums of the potential along every leaf orbit of the depth-n
    preimage tree of y over x, indexed by tree leaf."""
    levels = preimage_tree(family, x, y, n)
    idx = np.arange(1 << n)
    sums = np.zeros(1 << n)
    for k in range(n):
        vals = pot(x.forward(k), levels[k])
        sums += vals[idx >> k]
    return sums


def bad_mass_ratio(pot: TrigPotential, family: MpFamily, x: BasePoint,
                   y: float, n: int, m: int,
                   constants: HypothesisConstants) -> float:
    """Ratio of bad-word to good-word Birkhoff weight in the depth-n tree.

    With m > n every word is vacuously good and the ratio is 0.  An empty
    good set signals parameters outside the regime and raises.
    """
    if n > 20:
        raise ValueError("exhaustive tree mass capped at n = 20")
    weights = np.exp(_leaf_birkhoff_sums(pot, family, x, y, n))
    good = good_mask(n, m, constants.iota, constants.q)
    if not np.any(good):
        raise EmptyGoodSetError(f"no good words at n={n}, m={m}")
    bad_sum = float(np.sum(weights[~good]))
    good_sum = float(np.sum(weights[good]))
    return bad_sum / good_sum


@dataclass(frozen=True)
class BranchContractionFit:
    """Pooled decay fit of paired-preimage distances along good words."""

    c_emp: float
    q_emp: float
    r_squared: float
    n_points: int
    degenerate: bool = False

    def to_json(self) -> dict:
        return {"c_emp": self.c_emp, "q_emp": self.q_emp,
                "r_squared": self.r_squared, "n_points": self.n_points,
                "degenerate": self.degenerate}


def good_branch_contraction(family: MpFamily, x: BasePoint, x2: BasePoint,
                            y: float, n: int, m: int,
                            constants: HypothesisConstants) -> BranchContractionFit:
    """Fit the backward contraction of paired partial preimages on good words.

    The preimage trees of y over x and x2 are paired by word index, which
    is the preimage pairing for this family: its two branches are globally
    ordered on the circle.  For every good word and every level k the
    distance between the paired partial preimages is recorded; a pooled
    regression of log distance against n - k gives the empirical decay rate
    (returned as c_emp = rate/2) and the prefactor q_emp is set as the
    envelope constant that makes q_emp^m * e^(-2 c_emp (n-k)) *
    d(f^n x, f^n x') dominate every recorded distance.
    """
    t1, t2 = preimage_tree(family, x, y, n), preimage_tree(family, x2, y, n)
    good = good_mask(n, m, constants.iota, constants.q)
    if not np.any(good):
        raise EmptyGoodSetError(f"no good words at n={n}, m={m}")
    d_anchor = circle_distance(float(x.forward(n)), float(x2.forward(n)))
    if d_anchor == 0.0:
        return BranchContractionFit(0.0, 0.0, 0.0, 0, degenerate=True)

    idx = np.arange(1 << n)[good]
    steps = []
    log_gaps = []
    for k in range(n):
        d_base = circle_distance(float(x.forward(k)), float(x2.forward(k)))
        gaps = d_base + circle_distance(t1[k], t2[k])
        picked = gaps[idx >> k]
        ok = picked > 0.0
        steps.append(np.full(int(np.count_nonzero(ok)), n - k, dtype=float))
        log_gaps.append(np.log(picked[ok]))
    steps = np.concatenate(steps)
    log_gaps = np.concatenate(log_gaps)
    if steps.size < 3 or np.ptp(steps) == 0.0:
        return BranchContractionFit(0.0, 0.0, 0.0, int(steps.size), degenerate=True)

    slope, _, r2 = _line_fit(steps, log_gaps)
    rate = -slope
    c_emp = rate / 2.0
    # envelope prefactor: smallest Q with all distances below the bound
    envelope = np.max(log_gaps + rate * steps - math.log(d_anchor))
    q_emp = math.exp(float(envelope) / m)
    return BranchContractionFit(c_emp=c_emp, q_emp=q_emp, r_squared=r2,
                                n_points=int(steps.size))
