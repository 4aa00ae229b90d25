"""Finite trigonometric potentials on the torus and their regularity checks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base import BasePoint
from .errors import CapacityExhaustedError
from .fibers import HypothesisConstants, MpFamily, fiber_forward


@dataclass(frozen=True)
class TrigPotential:
    """phi(x, y) = constant + sum of a * cos(2*pi*(kx*x + ky*y)) terms.

    A finite trig sum evaluates on a whole grid at once, where
    ``check_condition_P`` measures its range and seminorm; near-constant
    defaults keep the potential inside the almost-constant regime the
    operator estimates assume.
    """

    terms: tuple[tuple[int, int, float], ...] = ()
    constant: float = 0.0

    @classmethod
    def constant_potential(cls, c: float) -> "TrigPotential":
        return cls(terms=(), constant=c)

    def __call__(self, x, y):
        """Evaluate at (x, y); x is a BasePoint, a float or an array that
        broadcasts against y."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.full(np.broadcast_shapes(x.shape, y.shape), self.constant)
        for kx, ky, a in self.terms:
            out += a * np.cos(2.0 * math.pi * (kx * x + ky * y))
        if out.ndim == 0:
            return float(out)
        return out

    def to_json(self) -> dict:
        return {"terms": [[kx, ky, a] for kx, ky, a in self.terms],
                "constant": self.constant}

    @classmethod
    def from_json(cls, d: dict) -> "TrigPotential":
        return cls(terms=tuple((int(kx), int(ky), float(a))
                               for kx, ky, a in d.get("terms", [])),
                   constant=float(d.get("constant", 0.0)))


def birkhoff_sum(pot: TrigPotential, family: MpFamily, x: BasePoint,
                 y: float, n: int) -> float:
    """Sum of phi over the first n points of the orbit of (x, y).

    Uses the n-term convention (k = 0..n-1), matching n-fold operator
    cascades.
    """
    if x.capacity < n:
        raise CapacityExhaustedError(f"Birkhoff sum of length {n} needs capacity >= {n}")
    total = 0.0
    cur_y = y
    for k in range(n):
        xk = x.forward(k)
        total += pot(xk, cur_y)
        cur_y = fiber_forward(family, xk, cur_y)
    return total


@dataclass(frozen=True)
class ConditionPReport:
    """Grid-measured quantities behind the almost-constant potential check."""

    sup_phi: float
    inf_phi: float
    exp_seminorm: float
    eps_phi: float
    range_ok: bool
    seminorm_ok: bool
    eps_phi_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.range_ok and self.seminorm_ok and self.eps_phi_ok

    def to_json(self) -> dict:
        return {
            "sup_phi": self.sup_phi, "inf_phi": self.inf_phi,
            "exp_seminorm": self.exp_seminorm, "eps_phi": self.eps_phi,
            "range_ok": self.range_ok, "seminorm_ok": self.seminorm_ok,
            "eps_phi_ok": self.eps_phi_ok, "all_ok": self.all_ok,
        }


def _torus_holder_seminorm(values: np.ndarray, alpha: float) -> float:
    """Max pair quotient |f(z1)-f(z2)| / d(z1,z2)^alpha on a product grid.

    All pairs of an n x n torus grid are scanned by index lag: L1 wraparound
    distance depends only on the lag class, so each class costs one shifted
    comparison instead of an explicit pair enumeration.
    """
    n = values.shape[0]
    half = n // 2
    best = 0.0
    for di in range(half + 1):
        rolled_x = np.roll(values, di, axis=0)
        for dj in range(half + 1):
            if di == 0 and dj == 0:
                continue
            dist = (di + dj) / n
            gaps = np.max(np.abs(values - np.roll(rolled_x, dj, axis=1)))
            if di and dj:  # the two diagonal directions differ
                gaps = max(gaps, np.max(np.abs(values - np.roll(rolled_x, -dj, axis=1))))
            best = max(best, float(gaps) / dist ** alpha)
    return best


def check_condition_P(pot: TrigPotential, constants: HypothesisConstants,
                      grid: int = 128) -> ConditionPReport:
    """Verify the two almost-constant clauses plus the eps_phi range bound.

    Clause 1: sup(phi) - inf(phi) < eps_phi.  Clause 2: the alpha-seminorm of
    e^phi is below eps_phi * e^(inf phi).  Both use grid estimates (lower
    bounds of the true suprema), so a passing report is a sanity check, not a
    proof.
    """
    xs = np.arange(grid, dtype=float) / grid
    vals = pot(xs[:, None], xs)
    sup_phi = float(np.max(vals))
    inf_phi = float(np.min(vals))
    exp_sem = _torus_holder_seminorm(np.exp(vals), constants.alpha)
    eps_phi = constants.eps_phi
    return ConditionPReport(
        sup_phi=sup_phi,
        inf_phi=inf_phi,
        exp_seminorm=exp_sem,
        eps_phi=eps_phi,
        range_ok=sup_phi - inf_phi < eps_phi,
        seminorm_ok=exp_sem < eps_phi * math.exp(inf_phi),
        eps_phi_ok=0.0 < eps_phi < math.log(constants.d) - math.log(constants.q),
    )
