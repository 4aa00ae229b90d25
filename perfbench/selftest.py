"""Self-test of the benchmark's result checks.

  python3 perfbench/selftest.py

Runs each workload's unit once on seed 0, requires the unperturbed result to
pass, then perturbs one number at a time (a shifted pressure, a NaN Phi, a
negative weight, a moved integral, a drifted anchor value) and requires the
check to count a failure.  A unit that raises must count every planned
operation as failed.  A traced unit must give the untraced unit's output
bytes and leave every skewtherm name as it found it.  Exits 0 when every case
behaves, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402

caches = worker.import_program()

import workloads  # noqa: E402
from tracer import SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def shift_pressure(sol, delta=1e-2):
    return dataclasses.replace(sol, log_eigenvalue=sol.log_eigenvalue + delta)


def nan_phi(table):
    entries = dict(table.entries)
    key = next(iter(entries))
    entries[key] = dataclasses.replace(entries[key], value=float("nan"))
    return types.SimpleNamespace(entries=entries)


def negative_weight(sol):
    weights = sol.weights.copy()
    weights.flat[0] = -weights.flat[0]
    return dataclasses.replace(sol, weights=weights)


def drifted(values, delta):
    (value, n, bound), *rest = values
    return [(value + delta, n, bound), *rest]


PERTURBATIONS = {
    "pressure": {
        "shifted full pressure": lambda r: {**r, "full": shift_pressure(r["full"])},
        "NaN Phi in the base table": lambda r: {**r, "table": nan_phi(r["table"])},
        "negative base weight": lambda r: {**r, "base": negative_weight(r["base"])},
        "disintegrated integral moved by 1e-2":
            lambda r: {**r, "disint": [r["disint"][0] + 1e-2, *r["disint"][1:]]},
        "NaN direct integral":
            lambda r: {**r, "direct": [float("nan"), *r["direct"][1:]]},
        "missing disintegrated integral":
            lambda r: {**r, "disint": r["disint"][:-1]},
    },
    "phi-random": {
        "NaN Phi": lambda r: {**r, "values": drifted(r["values"], float("nan"))},
        "uniform anchor drifted by 1e-8":
            lambda r: {**r, "uniform": drifted(r["uniform"], 1e-8)},
    },
}


class _Raises:
    """A workload whose unit raises after the first call into skewtherm."""

    def __init__(self, base):
        self.base = base
        self.planned = base.planned
        self.check = base.check
        self.outputs = base.outputs

    def compute(self, inputs):
        self.base.compute(inputs)
        raise FloatingPointError("injected")


def _bindings() -> dict:
    """Every name of every skewtherm module and traced class."""
    out = {}
    for key, mod in list(sys.modules.items()):
        if key == "skewtherm" or key.startswith("skewtherm."):
            out.update({(key, k): v for k, v in vars(mod).items()})
    for _, module, path, _ in SPANS:
        if "." in path:
            cls = getattr(sys.modules[module], path.split(".")[0])
            out.update({(cls, k): v for k, v in vars(cls).items()})
    return out


def check_tracer() -> list[str]:
    """A traced unit gives bit-identical outputs, and leaves every
    skewtherm name bound to its original afterwards."""
    before = _bindings()
    workload = WORKLOADS["phi-random"]
    inputs = workload.build(0)
    _, _, plain = worker.run_unit(workload, inputs, caches)
    _, _, traced = worker.run_unit(workload, inputs, caches, Tracer())
    after = _bindings()
    bad = []
    if plain is None or plain != traced:
        bad.append("traced outputs differ from untraced")
    if before.keys() != after.keys() or any(before[k] is not after[k]
                                            for k in before):
        bad.append("tracer left a name rebound")
    print(f"tracer: bit-identical outputs and restored names"
          f" -> {'BAD' if bad else 'ok'}")
    return bad


def main() -> int:
    bad = check_tracer()
    for name, workload in WORKLOADS.items():
        inputs = workload.build(0)
        for cache in caches.values():
            cache.cache_clear()
        result = workload.compute(inputs)
        clean = workload.check(inputs, result)
        ok = clean.failed == 0 and clean.attempted == workload.planned
        print(f"{name}: clean result, {clean.failed}/{clean.attempted} failed"
              f" -> {'ok' if ok else 'BAD'}")
        if not ok:
            bad.append(f"{name}: clean")
        for label, perturb in PERTURBATIONS[name].items():
            tally = workload.check(inputs, perturb(result))
            ok = tally.failed >= 1
            print(f"{name}: {label}, {tally.failed}/{tally.attempted} failed"
                  f" -> {'ok' if ok else 'BAD'}")
            if not ok:
                bad.append(f"{name}: {label}")
    raising = _Raises(WORKLOADS["phi-random"])
    _, tally, dig = worker.run_unit(raising, workloads.build_phi_random(0),
                                    caches)
    ok = dig is None and tally.failed == tally.attempted == raising.planned
    print(f"phi-random: raised exception, {tally.failed}/{tally.attempted}"
          f" failed -> {'ok' if ok else 'BAD'}")
    if not ok:
        bad.append("phi-random: raised exception")
    if bad:
        print("self-test FAILED: " + "; ".join(bad))
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
