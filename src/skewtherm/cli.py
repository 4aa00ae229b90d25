"""Command-line harness: runs the experiments and emits JSON/CSV artifacts.

Each solve and each check is one ``Runner`` step, and the subcommands are
built from these steps: ``hypotheses`` (check-hypotheses),
``convergence_fit`` (compute-phi), ``cone_report`` (cones),
``eigen_residuals`` (fiber-measures), ``base_solve`` (rpf-base) and
``full_solve`` (rpf-full).  ``pressure`` runs the two solves and ``verify``
the four checks, so either reports what the single-check subcommands would.
``eigen_residuals`` holds the eigen-equation check's one Phi tolerance,
``min(phi_tol, 1e-12)``.

Every output file carries the config hash and seed.  CSV floats are printed
at 15 significant digits, JSON floats as Python's shortest repr; either way
a rerun with the same config reproduces the files byte for byte.  Exit
codes: 0 ok, 1 check failed, 2 bad usage or config, 3 numerical failure; a
failure also writes ``error.json`` (see ``_FAILURES``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .base import BasePoint
from .cones import image_diameter
from .config import ExperimentConfig
from .errors import (
    CapacityExhaustedError,
    ConfigError,
    DegenerateFitError,
    HypothesisViolatedError,
    NoConvergenceError,
    NonpositiveFunctionError,
    SkewthermError,
)
from .fibers import estimate_constants
from .gridfn import GridFn, GridFn2D
from .measures import (
    eigen_equation_residual,
    intertwine_residual,
    rpf_base_solve,
    rpf_full_solve,
)
from .phi import compute_phi, estimate_holder, fit_convergence_rate, phi_evaluator
from .potential import check_condition_P
from .words import bad_mass_ratio, good_mask, is_good, word_from_index

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# the first row whose types match a failure gives its error.json kind (None:
# the exception's class name), its stderr label and the exit code.  Capacity
# is a config field, so a run that needs more of it than the config gives
# (say, a --depth beyond it) is a usage error.  e^phi overflowing, or
# underflowing to a zero that is divided by or logged, is numerical.
_FAILURES = (
    ((ConfigError, CapacityExhaustedError), "config", "config error",
     EXIT_USAGE),
    ((HypothesisViolatedError,), "hypothesis", "hypothesis check failed",
     EXIT_CHECK_FAILED),
    ((NoConvergenceError, NonpositiveFunctionError, ArithmeticError),
     "numerical", "numerical failure", EXIT_NUMERICAL),
    ((SkewthermError,), None, "error", EXIT_NUMERICAL),
)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.15g}"
    return str(v)


class Runner:
    def __init__(self, cfg: ExperimentConfig, out_dir: Path):
        self.cfg = cfg
        self.out = out_dir
        try:
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create --out {out_dir}: {exc}") from exc
        self.hash = cfg.config_hash()

    # -- helpers ---------------------------------------------------------

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.cfg.seed)

    def write_json(self, name: str, payload: dict) -> None:
        """Write one artifact; a non-finite float raises FloatingPointError
        before the file is opened, so no partial artifact is left behind."""
        try:
            text = json.dumps({"config_hash": self.hash, "seed": self.cfg.seed,
                               **payload}, indent=2, default=_fmt,
                              allow_nan=False)
        except ValueError as exc:
            raise FloatingPointError(f"{name}: non-finite value ({exc})") from exc
        with open(self.out / name, "w") as fh:
            fh.write(text + "\n")

    def write_csv(self, name: str, header: list[str], rows: list[tuple]) -> None:
        with open(self.out / name, "w") as fh:
            fh.write(f"# config_hash,{self.hash},seed,{self.cfg.seed}\n")
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")

    def constants(self, exploratory: bool | None = None):
        return estimate_constants(
            self.cfg.family, self.cfg.alpha, self.cfg.eps_phi, self.cfg.iota,
            self.cfg.eps, self.cfg.constants_samples, rng=self.rng(),
            pair_distance=self.cfg.pair_distance,
            exploratory=self.cfg.exploratory if exploratory is None else exploratory)

    def evaluator(self, tol: float | None = None, n_nodes: int | None = None):
        """A fresh Phi evaluator at ``tol`` (default phi_tol) on n_nodes
        fiber nodes (default n_fiber): every value a step reports is
        computed in the step's own evaluator."""
        return phi_evaluator(self.cfg.potential, self.cfg.family,
                             tol=self.cfg.phi_tol if tol is None else tol,
                             anchor_y=self.cfg.anchor_y,
                             n_nodes=n_nodes or self.cfg.n_fiber)

    def sample_points(self, count: int, rng=None) -> list[BasePoint]:
        rng = rng or self.rng()
        return [BasePoint.random(rng, self.cfg.capacity) for _ in range(count)]

    def fiber_fn(self, amps) -> GridFn:
        """1 + sum_k amps[k] cos(2 pi (k + 1) y) on the n_fiber grid."""
        ys = np.arange(self.cfg.n_fiber) / self.cfg.n_fiber
        return GridFn(1.0 + sum(a * np.cos(2 * np.pi * (k + 1) * ys)
                                for k, a in enumerate(amps)))

    # -- steps: one per solve and per check, shared by the subcommands ---

    def hypotheses(self):
        """(regime constants, condition-(P) report); the constants are
        sampled in exploratory mode, so a failed inequality is reported."""
        consts = self.constants(exploratory=True)
        return consts, check_condition_P(self.cfg.potential, consts)

    def convergence_fit(self, x: BasePoint, n_max: int):
        """Phi's geometric-convergence fit at x up to depth n_max (at most
        capacity - 1), or None for a potential that converges at once."""
        try:
            return fit_convergence_rate(
                self.cfg.potential, self.cfg.family, x,
                n_max=min(n_max, self.cfg.capacity - 1),
                n_nodes=self.cfg.n_fiber, anchor_y=self.cfg.anchor_y)
        except DegenerateFitError:
            return None

    def cone_report(self, x: BasePoint, rng, zeta: float):
        return image_diameter(self.cfg.potential, self.cfg.family, x,
                              self.cfg.cone, rng=rng, zeta=zeta,
                              n_nodes=self.cfg.n_fiber, n_theta=self.cfg.n_theta)

    def eigen_residuals(self, x: BasePoint, psis: list[GridFn],
                        depth: int) -> list[float]:
        """The fiber eigen-equation residuals at x, one per psi, with Phi(x)
        at the check's one tolerance, min(phi_tol, 1e-12)."""
        return eigen_equation_residual(
            self.cfg.potential, self.cfg.family, x, psis, depth,
            self.evaluator(tol=min(self.cfg.phi_tol, 1e-12)),
            anchor_y=self.cfg.anchor_y)

    def base_solve(self):
        return rpf_base_solve(self.evaluator(), self.cfg.n_x_base,
                              tol=self.cfg.power_tol,
                              max_iter=self.cfg.max_power_iter,
                              capacity=self.cfg.capacity)

    def full_solve(self):
        return rpf_full_solve(self.cfg.potential, self.cfg.family, self.cfg.n_x,
                              self.cfg.n_y, tol=self.cfg.power_tol,
                              max_iter=self.cfg.max_power_iter)

    def write_rpf(self, kind: str, sol, coords: dict) -> None:
        """rpf_<kind>.json, rpf_<kind>_eigendata.csv (a row per grid node:
        its coordinates, h and the nu weight) and the pressure line."""
        self.write_json(f"rpf_{kind}.json", sol.to_json())
        rows = list(zip(*coords.values(), sol.eigenfunction.values.ravel(),
                        sol.weights.ravel()))
        self.write_csv(f"rpf_{kind}_eigendata.csv",
                       [*coords, "h", "nu_weight"], rows)
        print(f"{kind} pressure {sol.log_eigenvalue:.12g} "
              f"(residual {sol.residual:.2e}, {sol.iterations} iterations)")

    # -- subcommands -----------------------------------------------------

    def cmd_check_hypotheses(self, args) -> int:
        consts, cond_p = self.hypotheses()
        ok = consts.all_pass() and cond_p.all_ok
        self.write_json("hypotheses.json", {
            "constants": consts.to_json(),
            "condition_p": cond_p.to_json(),
            "all_ok": ok,
            "exploratory": self.cfg.exploratory,
        })
        for name, passed in [*consts.checks(),
                             ("condition (P) range", cond_p.range_ok),
                             ("condition (P) seminorm", cond_p.seminorm_ok),
                             ("eps_phi below branch-count gap", cond_p.eps_phi_ok)]:
            print(f"{'PASS' if passed else 'FAIL'} {name}")
        if not ok and not self.cfg.exploratory:
            return EXIT_CHECK_FAILED
        if not ok:
            print("WARN hypotheses failed; continuing (exploratory mode)")
        return EXIT_OK

    def cmd_compute_phi(self, args) -> int:
        points = self.sample_points(args.points)
        rows = [(x.bit_string(),
                 *compute_phi(self.cfg.potential, self.cfg.family, x,
                              tol=self.cfg.phi_tol, anchor_y=self.cfg.anchor_y,
                              n_nodes=self.cfg.n_fiber))
                for x in points]
        self.write_csv("phi_values.csv", ["bits", "value", "n_used", "bound"], rows)
        fit = self.convergence_fit(points[0], 35)
        self.write_json("phi_fit.json",
                        {"degenerate": True} if fit is None else fit.to_json())
        print(f"computed {len(points)} potential values")
        return EXIT_OK

    def cmd_holder(self, args) -> int:
        scales = tuple(2.0 ** -k for k in range(4, 13))
        est = estimate_holder(self.evaluator(), scales, args.pairs, self.rng(),
                              capacity=self.cfg.capacity)
        self.write_json("holder.json", est.to_json())
        rows = list(zip(est.scales, est.medians))
        self.write_csv("holder_scales.csv", ["scale", "median_gap"], rows)
        print(f"holder exponent {est.exponent_emp:.6g} (r^2 {est.r_squared:.4f})"
              + (" [degenerate]" if est.degenerate else ""))
        return EXIT_OK

    def cmd_cones(self, args) -> int:
        consts = self.constants()
        rng = self.rng()
        reports = [{"bits": x.bit_string(),
                    **self.cone_report(x, rng, consts.zeta).to_json()}
                   for x in self.sample_points(args.points, rng)]
        self.write_json("cones.json", {"reports": reports,
                                       "zeta_analytic": consts.zeta})
        worst = max(r["zeta_emp"] for r in reports)
        print(f"max zeta_emp {worst:.6g} vs analytic {consts.zeta:.6g}")
        return EXIT_OK if worst < 1.0 else EXIT_CHECK_FAILED

    def cmd_fiber_measures(self, args) -> int:
        rng = self.rng()
        points = self.sample_points(args.points, rng)
        test_fns = [self.fiber_fn(rng.uniform(-0.3, 0.3, size=3))
                    for _ in range(args.functions)]
        rows = []
        for x in points:
            resids = self.eigen_residuals(x, test_fns, args.depth)
            rows += [(x.bit_string(), trial, args.depth, r)
                     for trial, r in enumerate(resids)]
        self.write_csv("eigen_residuals.csv",
                       ["bits", "function", "depth", "residual"], rows)
        worst = max(r[-1] for r in rows)
        print(f"max eigen-equation residual {worst:.3e}")
        return EXIT_OK

    def cmd_rpf_base(self, args) -> int:
        sol = self.base_solve()
        self.write_rpf("base", sol, {"node": sol.eigenfunction.nodes})
        return EXIT_OK

    def cmd_rpf_full(self, args) -> int:
        sol = self.full_solve()
        x, y = np.meshgrid(*(np.arange(n) / n for n in sol.eigenfunction.shape),
                           indexing="ij")
        self.write_rpf("full", sol, {"x": x.ravel(), "y": y.ravel()})
        return EXIT_OK

    def cmd_pressure(self, args) -> int:
        base, full = self.base_solve(), self.full_solve()
        gap = abs(base.log_eigenvalue - full.log_eigenvalue)
        self.write_json("pressure.json", {
            "P_phi": full.log_eigenvalue,
            "P_Phi": base.log_eigenvalue,
            "gap": gap,
        })
        print(f"P(phi) {full.log_eigenvalue:.12g}  P(Phi) "
              f"{base.log_eigenvalue:.12g}  gap {gap:.3e}")
        return EXIT_OK

    def cmd_intertwine(self, args) -> int:
        rng = self.rng()
        xs = self.sample_points(args.points, rng)
        psis = []
        for trial in range(args.functions):
            a, b = rng.uniform(-0.4, 0.4, size=2)
            psis.append(GridFn2D.from_callable(
                lambda X, Y: 1.0 + a * np.cos(2 * np.pi * (X + Y))
                + b * np.sin(2 * np.pi * Y), self.cfg.n_x, self.cfg.n_y))
        # Phi on the n_y grid of the measures and columns it is paired with
        worst = intertwine_residual(self.cfg.potential, self.cfg.family, psis,
                                    xs, args.depth,
                                    self.evaluator(n_nodes=self.cfg.n_y),
                                    anchor_y=self.cfg.anchor_y)
        self.write_json("intertwine.json", {"max_residual": worst,
                                            "depth": args.depth})
        print(f"max intertwining residual {worst:.3e}")
        return EXIT_OK

    def cmd_words(self, args) -> int:
        if args.m_min > args.m_max:
            raise ConfigError(f"empty word range: --m-min {args.m_min} "
                              f"exceeds --m-max {args.m_max}")
        rng = self.rng()
        consts = self.constants()
        x = BasePoint.random(rng, self.cfg.capacity)
        y = float(rng.uniform(0, 1))
        rows = []
        for m in range(args.m_min, args.m_max + 1):
            mask = good_mask(args.n, m, consts.iota, consts.q)
            good_count = int(mask.sum())
            ratio = bad_mass_ratio(self.cfg.potential, self.cfg.family, x, y,
                                   args.n, m, consts)
            rows.append((args.n, m, consts.iota, good_count,
                         (1 << args.n) - good_count, ratio))
        self.write_csv("words.csv",
                       ["n", "m", "iota", "good_count", "bad_count",
                        "mass_ratio"], rows)
        print(f"word table written for n={args.n}, m in "
              f"[{args.m_min}, {args.m_max}]")
        return EXIT_OK

    def cmd_verify(self, args) -> int:
        """The steps of check-hypotheses, then those of compute-phi's fit
        (to depth 30), cones and fiber-measures at one random base point,
        and a word partition."""
        consts, cond_p = self.hypotheses()
        checks = [("expansion constants", consts.all_pass(),
                   consts.first_failure() or "all inequalities hold"),
                  ("condition (P)", cond_p.all_ok,
                   f"range {cond_p.sup_phi - cond_p.inf_phi:.3g}, "
                   f"seminorm {cond_p.exp_seminorm:.3g}")]

        rng = self.rng()
        x = BasePoint.random(rng, self.cfg.capacity)
        fit = self.convergence_fit(x, 30)
        if fit is None:
            checks.append(("geometric convergence", True,
                           "constant potential: converged immediately"))
        else:
            checks.append(("geometric convergence", 0 < fit.tau_emp < 1,
                           f"tau_emp {fit.tau_emp:.4g}, r^2 {fit.r_squared:.4f}"))

        rep = self.cone_report(x, rng, consts.zeta)
        checks.append(("cone contraction", rep.zeta_emp < 1.0 and rep.tau < 1.0,
                       f"M_emp {rep.m_emp:.4g}, zeta_emp {rep.zeta_emp:.4g}"))

        (resid,) = self.eigen_residuals(x, [self.fiber_fn([0.25])], 20)
        checks.append(("fiber eigen-equation", resid <= 1e-6,
                       f"residual {resid:.3e}"))

        # the vectorized mask against the scalar test of every word
        mask = good_mask(12, 3, consts.iota, consts.q)
        good = sum(is_good(word_from_index(i, 12), 3, consts.iota, consts.q)
                   for i in range(mask.size))
        checks.append(("word partition", int(mask.sum()) == good,
                       f"good {int(mask.sum())} of {mask.size}"))

        all_ok = all(ok for _, ok, _ in checks)
        self.write_json("verify.json", {
            "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks],
            "all_ok": all_ok,
        })
        for name, ok, detail in checks:
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def _int_in(lo: int, hi: float = math.inf):
    """argparse type for an integer in [lo, hi]; out of range exits 2."""
    def parse(text: str) -> int:
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{value} is not in [{lo}, {hi}]")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewtherm",
        description="Transfer-operator thermodynamics experiments")
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON experiment config (defaults used if absent)")
    parser.add_argument("--out", type=Path, default=Path("out"),
                        help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("check-hypotheses")
    p = sub.add_parser("compute-phi")
    p.add_argument("--points", type=_int_in(1), default=20)
    p = sub.add_parser("holder")
    p.add_argument("--pairs", type=_int_in(1), default=8)
    p = sub.add_parser("cones")
    p.add_argument("--points", type=_int_in(1), default=3)
    p = sub.add_parser("fiber-measures")
    p.add_argument("--points", type=_int_in(1), default=5)
    p.add_argument("--functions", type=_int_in(1), default=5)
    p.add_argument("--depth", type=_int_in(0), default=30)
    sub.add_parser("rpf-base")
    sub.add_parser("rpf-full")
    sub.add_parser("pressure")
    p = sub.add_parser("intertwine")
    p.add_argument("--points", type=_int_in(1), default=10)
    p.add_argument("--functions", type=_int_in(1), default=5)
    p.add_argument("--depth", type=_int_in(0), default=30)
    p = sub.add_parser("words")
    p.add_argument("--n", type=_int_in(0, 20), default=14)
    p.add_argument("--m-min", type=_int_in(1), default=2)
    p.add_argument("--m-max", type=_int_in(1), default=7)
    sub.add_parser("verify")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0

    try:
        cfg = (ExperimentConfig.load(args.config) if args.config is not None
               else ExperimentConfig())
        if args.seed is not None:
            cfg = cfg.with_seed(args.seed)
        runner = Runner(cfg, args.out)
        handler = getattr(runner, "cmd_" + args.command.replace("-", "_"))
        # a NaN or overflow anywhere aborts the run instead of reaching an
        # artifact; underflow to zero is routine in cascades and stays quiet
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return handler(args)
    except (SkewthermError, ArithmeticError) as exc:
        kind, label, code = next(row[1:] for row in _FAILURES
                                 if isinstance(exc, row[0]))
        _write_error(args.out, kind or type(exc).__name__, str(exc))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


def _write_error(out_dir: Path, kind: str, message: str) -> None:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "error.json", "w") as fh:
            json.dump({"error": kind, "message": message}, fh, indent=2)
            fh.write("\n")
    except OSError:
        pass


if __name__ == "__main__":
    sys.exit(main())
