"""The two benchmark workloads: seeded inputs, one unit of work, its check.

A unit is what one wall-time sample covers: every call into skewtherm that
produces the workload's result, followed by the check of that result.  The
worker clears skewtherm's caches before every unit, so each unit starts cold
the way every command-line run does.  Calls go through the skewtherm module
attributes, so the tracer's wrappers see them.

Each workload provides
  build(seed)          the seeded inputs (part of set-up, not of a unit);
  compute(inputs)      the calls into skewtherm, returning a result dict;
  check(inputs, res)   a Tally of checked operations and failures;
  outputs(res)         the numbers whose bytes must repeat exactly.
An operation is one Phi value, one eigensolve or one integral.

Point and grid counts are scaled down from the acceptance suite so that one
unit takes two to four seconds on a 2-vCPU machine; the tolerances are the
suite's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from skewtherm import BasePoint, GridFn2D, MpFamily, TrigPotential, measures, phi

FAMILY = MpFamily(p0=0.5, p1=0.5, delta_a=0.1)

RESIDUAL_MAX = 1e-8        # eigensolve residual, as in tests/test_measures.py
PRESSURE_GAP_MAX = 5e-3    # criterion 5
DISINTEGRATE_GAP_MAX = 1e-3  # criterion 7
ANCHOR_GAP_MAX = 1e-9      # delta- against uniform-anchored Phi
SOLVE_TOL = 1e-12
PHI_SOLVE_TOL = 1e-12
PHI_RANDOM_TOL = 1e-10
SOLVE_CAPACITY = 96

PRESSURE_BASE_NODES = 64
PRESSURE_TORUS_NODES = 256
PHI_RANDOM_POINTS = 64
PHI_RANDOM_CAPACITY = 128
PHI_RANDOM_ANCHOR_SAMPLE = 4
DISINTEGRATE_FUNCTIONS = 2
DISINTEGRATE_DEPTH = 25


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed


def seeded_potential(rng: np.random.Generator) -> TrigPotential:
    """The acceptance suite's default potential with amplitudes jittered by
    up to 10%: new coefficients per seed, the same regime and cost."""
    a, b = 1.0 + 0.1 * rng.uniform(-1.0, 1.0, size=2)
    return TrigPotential(terms=((0, 1, 0.002 * a), (1, 1, 0.0015 * b)))


def phi_ok(value: float, bound: float, tol: float) -> bool:
    return math.isfinite(value) and bound <= tol


def solution_ok(sol) -> bool:
    """Finite pressure, small residual, positive eigenfunction, and weights
    forming a probability vector."""
    h = np.asarray(sol.eigenfunction.values)
    w = np.asarray(sol.weights)
    return (math.isfinite(sol.log_eigenvalue)
            and sol.residual <= RESIDUAL_MAX
            and bool(np.all(np.isfinite(h)) and np.all(h > 0.0))
            and bool(np.all(w >= 0.0)) and abs(float(np.sum(w)) - 1.0) <= 1e-9)


def check_phi_table(table, expected: int, tol: float) -> Tally:
    """Every Phi value the base solve tabulated; a missing one is a failure."""
    entries = list(table.entries.values())
    tally = Tally()
    for e in entries:
        tally.check(phi_ok(e.value, e.bound, tol))
    for _ in range(expected - len(entries)):
        tally.check(False)
    return tally


def _solution_outputs(sol) -> list:
    return [sol.log_eigenvalue, sol.residual, sol.iterations,
            sol.eigenfunction.values, sol.weights]


def _table_outputs(table) -> list:
    return [[e.value, e.n_used, e.bound]
            for _, e in sorted(table.entries.items())]


# --- pressure: criterion 5's default_solutions and criterion 7 on them ---

def build_pressure(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    pot = seeded_potential(rng)
    n = PRESSURE_TORUS_NODES
    psis = []
    for _ in range(DISINTEGRATE_FUNCTIONS):
        a, b = rng.uniform(-0.4, 0.4, size=2)
        k = int(rng.integers(1, 3))
        psis.append(GridFn2D.from_callable(
            lambda X, Y, a=a, b=b, k=k: 1.0 + a * np.cos(2 * np.pi * X)
            + b * np.sin(2 * np.pi * (X + k * Y)), n, n))
    return {"pot": pot, "psis": psis}


def compute_pressure(inp: dict) -> dict:
    pot = inp["pot"]
    ev = phi.phi_evaluator(pot, FAMILY, tol=PHI_SOLVE_TOL)
    base = measures.rpf_base_solve(ev, PRESSURE_BASE_NODES, tol=SOLVE_TOL,
                                   capacity=SOLVE_CAPACITY)
    full = measures.rpf_full_solve(pot, FAMILY, PRESSURE_TORUS_NODES,
                                   PRESSURE_TORUS_NODES, tol=SOLVE_TOL)
    direct, disint = [], []
    for psi in inp["psis"]:
        direct.append(measures.direct_integral(psi, full))
        disint.append(measures.disintegrate_integral(
            pot, FAMILY, psi, full, base, DISINTEGRATE_DEPTH,
            capacity=SOLVE_CAPACITY))
    return {"table": ev.table, "base": base, "full": full,
            "direct": direct, "disint": disint}


def check_pressure(inp: dict, res: dict) -> Tally:
    tally = check_phi_table(res["table"], 2 * PRESSURE_BASE_NODES, PHI_SOLVE_TOL)
    gap = abs(res["base"].log_eigenvalue - res["full"].log_eigenvalue)
    tally.check(solution_ok(res["base"]))
    tally.check(solution_ok(res["full"]) and gap <= PRESSURE_GAP_MAX)
    for d, q in zip(res["direct"], res["disint"]):
        tally.check(math.isfinite(d))
        tally.check(math.isfinite(q) and abs(d - q) <= DISINTEGRATE_GAP_MAX)
    for _ in range(DISINTEGRATE_FUNCTIONS - len(res["disint"])):
        tally.check(False)
    return tally


def outputs_pressure(res: dict) -> list:
    return (_table_outputs(res["table"]) + _solution_outputs(res["base"])
            + _solution_outputs(res["full"]) + [res["direct"], res["disint"]])


# --- phi-random: Phi at random capacity-128 points -------------------------

def build_phi_random(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    pot = seeded_potential(rng)
    points = [BasePoint.random(rng, PHI_RANDOM_CAPACITY)
              for _ in range(PHI_RANDOM_POINTS)]
    return {"pot": pot, "points": points}


def compute_phi_random(inp: dict) -> dict:
    pot, points = inp["pot"], inp["points"]
    values = [phi.compute_phi(pot, FAMILY, x, tol=PHI_RANDOM_TOL)
              for x in points]
    uniform = [phi.compute_phi(pot, FAMILY, x, tol=PHI_RANDOM_TOL,
                               anchor="uniform")
               for x in points[:PHI_RANDOM_ANCHOR_SAMPLE]]
    return {"values": values, "uniform": uniform}


def check_phi_random(inp: dict, res: dict) -> Tally:
    tally = Tally()
    for value, _, bound in res["values"]:
        tally.check(phi_ok(value, bound, PHI_RANDOM_TOL))
    for (value, _, _), (u_value, _, u_bound) in zip(res["values"], res["uniform"]):
        tally.check(phi_ok(u_value, u_bound, PHI_RANDOM_TOL)
                    and abs(u_value - value) <= ANCHOR_GAP_MAX)
    return tally


def outputs_phi_random(res: dict) -> list:
    return [list(v) for v in res["values"] + res["uniform"]]


@dataclass(frozen=True)
class Workload:
    build: object
    compute: object
    check: object
    outputs: object
    planned: int   # operations one unit checks; all fail if the unit raises


WORKLOADS = {
    "pressure": Workload(build_pressure, compute_pressure, check_pressure,
                         outputs_pressure,
                         2 * PRESSURE_BASE_NODES + 2
                         + 2 * DISINTEGRATE_FUNCTIONS),
    "phi-random": Workload(build_phi_random, compute_phi_random,
                           check_phi_random, outputs_phi_random,
                           PHI_RANDOM_POINTS + PHI_RANDOM_ANCHOR_SAMPLE),
}
