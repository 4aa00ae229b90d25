"""Command-line harness: runs the experiments and emits JSON/CSV artifacts.

Every output file carries the config hash and seed, and floating fields are
printed at 15 significant digits so a rerun with the same config reproduces
byte-identical numeric columns.  Exit codes: 0 ok, 1 check failed, 2 bad
usage or config, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .base import BasePoint
from .cones import ConeParams, image_diameter
from .config import ExperimentConfig
from .errors import (
    ConfigError,
    DegenerateFitError,
    HypothesisViolatedError,
    NoConvergenceError,
    SkewthermError,
)
from .fibers import estimate_constants
from .gridfn import GridFn2D
from .measures import (
    eigen_equation_residual,
    intertwine_residual,
    rpf_base_solve,
    rpf_full_solve,
)
from .phi import PhiTable, compute_phi, estimate_holder, fit_convergence_rate, phi_evaluator
from .potential import check_condition_P
from .words import bad_mass_ratio, good_mask

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.15g}"
    return str(v)


class Runner:
    def __init__(self, cfg: ExperimentConfig, out_dir: Path,
                 phi_cache: Path | None):
        self.cfg = cfg
        self.out = out_dir
        self.out.mkdir(parents=True, exist_ok=True)
        self.hash = cfg.config_hash()
        self.phi_cache_path = phi_cache
        self.phi_table = (PhiTable.load(phi_cache, self.hash)
                          if phi_cache is not None else PhiTable(self.hash))
        if self.phi_table.discarded is not None:
            print(f"warning: --phi-cache {phi_cache} discarded, starting an "
                  f"empty table: {self.phi_table.discarded}", file=sys.stderr)

    # -- helpers ---------------------------------------------------------

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.cfg.seed)

    def stamp(self, payload: dict) -> dict:
        return {"config_hash": self.hash, "seed": self.cfg.seed, **payload}

    def write_json(self, name: str, payload: dict) -> None:
        """Write one artifact; a non-finite float raises FloatingPointError
        before the file is opened, so no partial artifact is left behind."""
        try:
            text = json.dumps(self.stamp(payload), indent=2, default=_fmt,
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

    def save_phi_cache(self) -> None:
        try:
            if self.phi_cache_path is not None:
                self.phi_table.save(self.phi_cache_path)
        except OSError as exc:
            raise ConfigError(f"cannot write --phi-cache {self.phi_cache_path}: "
                              f"{exc}") from exc

    def constants(self, exploratory: bool | None = None):
        return estimate_constants(
            self.cfg.family, self.cfg.alpha, self.cfg.eps_phi, self.cfg.iota,
            self.cfg.eps, self.cfg.constants_samples, rng=self.rng(),
            pair_distance=self.cfg.pair_distance,
            exploratory=self.cfg.exploratory if exploratory is None else exploratory)

    def evaluator(self):
        return phi_evaluator(self.cfg.potential, self.cfg.family,
                             tol=self.cfg.phi_tol, table=self.phi_table,
                             anchor_y=self.cfg.anchor_y,
                             n_nodes=self.cfg.n_fiber)

    def sample_points(self, count: int, rng=None) -> list[BasePoint]:
        rng = rng or self.rng()
        return [BasePoint.random(rng, self.cfg.capacity) for _ in range(count)]

    # -- subcommands -----------------------------------------------------

    def cmd_check_hypotheses(self, args) -> int:
        consts = self.constants(exploratory=True)
        cond_p = check_condition_P(self.cfg.potential, consts)
        ok = consts.all_pass() and cond_p.all_ok
        self.write_json("hypotheses.json", {
            "constants": consts.to_json(),
            "condition_p": cond_p.to_json(),
            "all_ok": ok,
            "exploratory": self.cfg.exploratory,
        })
        for name, passed in consts.checks():
            print(f"{'PASS' if passed else 'FAIL'} {name}")
        for name, passed in (("condition (P) range", cond_p.range_ok),
                             ("condition (P) seminorm", cond_p.seminorm_ok),
                             ("eps_phi below branch-count gap", cond_p.eps_phi_ok)):
            print(f"{'PASS' if passed else 'FAIL'} {name}")
        if not ok and not self.cfg.exploratory:
            return EXIT_CHECK_FAILED
        if not ok:
            print("WARN hypotheses failed; continuing (exploratory mode)")
        return EXIT_OK

    def cmd_compute_phi(self, args) -> int:
        points = self.sample_points(args.points)
        rows = []
        for x in points:
            v, n, b = compute_phi(self.cfg.potential, self.cfg.family, x,
                                  tol=self.cfg.phi_tol, table=self.phi_table,
                                  anchor_y=self.cfg.anchor_y,
                                  n_nodes=self.cfg.n_fiber)
            rows.append((x.bit_string(), v, n, b))
        self.write_csv("phi_values.csv", ["bits", "value", "n_used", "bound"], rows)
        try:
            fit = fit_convergence_rate(self.cfg.potential, self.cfg.family,
                                       points[0], n_max=min(35, self.cfg.capacity - 1),
                                       n_nodes=self.cfg.n_fiber,
                                       anchor_y=self.cfg.anchor_y)
            self.phi_table.tau_emp = fit.tau_emp
            self.phi_table.c1_emp = fit.c1_emp
            self.write_json("phi_fit.json", fit.to_json())
        except DegenerateFitError:
            self.write_json("phi_fit.json", {"degenerate": True})
        self.save_phi_cache()
        print(f"computed {len(points)} potential values")
        return EXIT_OK

    def cmd_holder(self, args) -> int:
        scales = tuple(2.0 ** -k for k in range(4, 13))
        est = estimate_holder(self.cfg.potential, self.cfg.family, scales,
                              args.pairs, self.rng(), tol=self.cfg.phi_tol,
                              capacity=self.cfg.capacity, table=self.phi_table,
                              n_nodes=self.cfg.n_fiber)
        self.write_json("holder.json", est.to_json())
        rows = list(zip(est.scales, est.medians))
        self.write_csv("holder_scales.csv", ["scale", "median_gap"], rows)
        self.save_phi_cache()
        print(f"holder exponent {est.exponent_emp:.6g} (r^2 {est.r_squared:.4f})"
              + (" [degenerate]" if est.degenerate else ""))
        return EXIT_OK

    def cmd_cones(self, args) -> int:
        consts = self.constants()
        cone = ConeParams(K=self.cfg.cone_k, alpha=self.cfg.alpha)
        rng = self.rng()
        reports = []
        for x in self.sample_points(args.points, rng):
            rep = image_diameter(self.cfg.potential, self.cfg.family, x, cone,
                                 samples=20, rng=rng, zeta=consts.zeta,
                                 n_nodes=self.cfg.n_fiber,
                                 n_theta=self.cfg.n_theta)
            reports.append({"bits": x.bit_string(), **rep.to_json()})
        self.write_json("cones.json", {"reports": reports,
                                       "zeta_analytic": consts.zeta})
        worst = max(r["zeta_emp"] for r in reports)
        print(f"max zeta_emp {worst:.6g} vs analytic {consts.zeta:.6g}")
        return EXIT_OK if worst < 1.0 else EXIT_CHECK_FAILED

    def cmd_fiber_measures(self, args) -> int:
        from .gridfn import GridFn
        rng = self.rng()
        points = self.sample_points(args.points, rng)
        ys = np.arange(self.cfg.n_fiber) / self.cfg.n_fiber
        test_fns = []
        for trial in range(args.functions):
            amps = rng.uniform(-0.3, 0.3, size=3)
            vals = 1.0 + sum(a * np.cos(2 * np.pi * (k + 1) * ys)
                             for k, a in enumerate(amps))
            test_fns.append(GridFn(vals))

        rows = []
        for x in points:
            phi_val = compute_phi(self.cfg.potential, self.cfg.family, x,
                                  tol=min(self.cfg.phi_tol, 1e-12),
                                  table=None, anchor_y=self.cfg.anchor_y,
                                  n_nodes=self.cfg.n_fiber)[0]
            for trial, fn in enumerate(test_fns):
                r = eigen_equation_residual(self.cfg.potential, self.cfg.family,
                                            x, fn, args.depth,
                                            anchor_y=self.cfg.anchor_y,
                                            phi_value=phi_val)
                rows.append((x.bit_string(), trial, args.depth, r))
        self.write_csv("eigen_residuals.csv",
                       ["bits", "function", "depth", "residual"], rows)
        worst = max(r[-1] for r in rows)
        print(f"max eigen-equation residual {worst:.3e}")
        return EXIT_OK

    def cmd_rpf_base(self, args) -> int:
        sol = rpf_base_solve(self.evaluator(), self.cfg.n_x_base,
                             tol=self.cfg.power_tol,
                             max_iter=self.cfg.max_power_iter,
                             capacity=self.cfg.capacity)
        self.save_phi_cache()
        self.write_json("rpf_base.json", sol.to_json())
        rows = list(zip(sol.eigenfunction.nodes, sol.eigenfunction.values,
                        sol.weights))
        self.write_csv("rpf_base_eigendata.csv", ["node", "h", "nu_weight"], rows)
        print(f"base pressure {sol.log_eigenvalue:.12g} "
              f"(residual {sol.residual:.2e}, {sol.iterations} iterations)")
        return EXIT_OK

    def cmd_rpf_full(self, args) -> int:
        sol = rpf_full_solve(self.cfg.potential, self.cfg.family, self.cfg.n_x,
                             self.cfg.n_y, tol=self.cfg.power_tol,
                             max_iter=self.cfg.max_power_iter)
        self.write_json("rpf_full.json", sol.to_json())
        n_x, n_y = sol.eigenfunction.shape
        rows = []
        for i in range(n_x):
            for j in range(n_y):
                rows.append((i / n_x, j / n_y, sol.eigenfunction.values[i, j],
                             sol.weights[i, j]))
        self.write_csv("rpf_full_eigendata.csv", ["x", "y", "h", "nu_weight"], rows)
        print(f"full pressure {sol.log_eigenvalue:.12g} "
              f"(residual {sol.residual:.2e}, {sol.iterations} iterations)")
        return EXIT_OK

    def cmd_pressure(self, args) -> int:
        base = rpf_base_solve(self.evaluator(), self.cfg.n_x_base,
                              tol=self.cfg.power_tol,
                              max_iter=self.cfg.max_power_iter,
                              capacity=self.cfg.capacity)
        full = rpf_full_solve(self.cfg.potential, self.cfg.family, self.cfg.n_x,
                              self.cfg.n_y, tol=self.cfg.power_tol,
                              max_iter=self.cfg.max_power_iter)
        self.save_phi_cache()
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
        worst = 0.0
        for trial in range(args.functions):
            a, b = rng.uniform(-0.4, 0.4, size=2)
            psi = GridFn2D.from_callable(
                lambda X, Y: 1.0 + a * np.cos(2 * np.pi * (X + Y))
                + b * np.sin(2 * np.pi * Y), self.cfg.n_x, self.cfg.n_y)
            worst = max(worst, intertwine_residual(
                self.cfg.potential, self.cfg.family, psi, xs, args.depth,
                self.evaluator(), anchor_y=self.cfg.anchor_y))
        self.save_phi_cache()
        self.write_json("intertwine.json", {"max_residual": worst,
                                            "depth": args.depth})
        print(f"max intertwining residual {worst:.3e}")
        return EXIT_OK

    def cmd_words(self, args) -> int:
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
        checks: list[tuple[str, bool, str]] = []

        consts = self.constants(exploratory=True)
        checks.append(("expansion constants", consts.all_pass(),
                       consts.first_failure() or "all inequalities hold"))
        cond_p = check_condition_P(self.cfg.potential, consts)
        checks.append(("condition (P)", cond_p.all_ok,
                       f"range {cond_p.sup_phi - cond_p.inf_phi:.3g}, "
                       f"seminorm {cond_p.exp_seminorm:.3g}"))

        rng = self.rng()
        x = BasePoint.random(rng, self.cfg.capacity)
        try:
            fit = fit_convergence_rate(self.cfg.potential, self.cfg.family, x,
                                       n_max=min(30, self.cfg.capacity - 1),
                                       n_nodes=self.cfg.n_fiber,
                                       anchor_y=self.cfg.anchor_y)
            checks.append(("geometric convergence", 0 < fit.tau_emp < 1,
                           f"tau_emp {fit.tau_emp:.4g}, r^2 {fit.r_squared:.4f}"))
        except DegenerateFitError:
            checks.append(("geometric convergence", True,
                           "constant potential: converged immediately"))

        cone = ConeParams(K=self.cfg.cone_k, alpha=self.cfg.alpha)
        rep = image_diameter(self.cfg.potential, self.cfg.family, x, cone,
                             samples=20, rng=rng, zeta=consts.zeta,
                             n_nodes=self.cfg.n_fiber, n_theta=self.cfg.n_theta)
        checks.append(("cone contraction", rep.zeta_emp < 1.0 and rep.tau < 1.0,
                       f"M_emp {rep.m_emp:.4g}, zeta_emp {rep.zeta_emp:.4g}"))

        from .gridfn import GridFn
        ys = np.arange(self.cfg.n_fiber) / self.cfg.n_fiber
        psi = GridFn(1.0 + 0.25 * np.cos(2 * np.pi * ys))
        resid = eigen_equation_residual(self.cfg.potential, self.cfg.family, x,
                                        psi, 20, anchor_y=self.cfg.anchor_y,
                                        phi_tol=1e-12)
        checks.append(("fiber eigen-equation", resid <= 1e-6,
                       f"residual {resid:.3e}"))

        mask = good_mask(12, 3, consts.iota, consts.q)
        checks.append(("word partition", mask.size == 1 << 12,
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
    parser.add_argument("--phi-cache", type=Path, default=None,
                        help="path of the transverse-potential cache file")
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
    p.add_argument("--depth", type=int, default=30)
    sub.add_parser("rpf-base")
    sub.add_parser("rpf-full")
    sub.add_parser("pressure")
    p = sub.add_parser("intertwine")
    p.add_argument("--points", type=_int_in(1), default=10)
    p.add_argument("--functions", type=_int_in(1), default=5)
    p.add_argument("--depth", type=int, default=30)
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
        runner = Runner(cfg, args.out, args.phi_cache)
        handler = getattr(runner, "cmd_" + args.command.replace("-", "_"))
        # a NaN or overflow anywhere aborts the run instead of reaching an
        # artifact; underflow to zero is routine in cascades and stays quiet
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            return handler(args)
    except ConfigError as exc:
        _write_error(args.out, "config", str(exc))
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HypothesisViolatedError as exc:
        _write_error(args.out, "hypothesis", str(exc))
        print(f"hypothesis check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (NoConvergenceError, FloatingPointError) as exc:
        _write_error(args.out, "numerical", str(exc))
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except SkewthermError as exc:
        _write_error(args.out, type(exc).__name__, str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


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
