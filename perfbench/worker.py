"""One benchmark process: set up, run units for a fixed time, report.

Started by run.py in a fresh process with the numeric-library thread
variables set to 1.  Prints one JSON object as its last stdout line.

  worker.py --workload W --seed N --seconds S --trace 0|1 --t0 T [--setup-only]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process; set-up time runs from there until skewtherm is imported and the
seeded inputs are built.  With ``--setup-only`` the worker reports that time
and exits.

The untraced worker (``--trace 0``) runs units back to back until
``--seconds`` have passed, with a fixed reference loop (``reference_loop``,
no skewtherm code) timed before the first unit and after every unit.  It
reports each unit's wall time divided by the mean of the two reference
timings around it (run.py reports the median of these as ``wall_ref``), and
the process's peak RSS.  Other tenants of a shared host change the speed of
the whole process, unit and reference loop alike, for tens of seconds at a
time; the quotient cancels that, while a change to skewtherm moves it by the
same factor as the unit's wall time.  The raw wall times go to the record.

The traced worker (``--trace 1``) alternates an untraced and a traced unit on
the same inputs, requires their outputs to be bit-identical, and reports
per-layer metrics as medians over the traced units.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_UNITS = 2


def reference_loop() -> float:
    """A fixed mix of interpreter and small-array numpy work, like the
    program's own mix, taking about a tenth of a second; returns its wall
    time."""
    import numpy as np
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(400_000):
        acc += (i % 7) * 0.5
    x = np.linspace(0.5, 1.5, 64)
    for _ in range(15_000):
        x = np.sqrt(x * 0.999 + 0.001)
    wall = time.perf_counter() - t0
    if not (acc > 0.0 and np.all(np.isfinite(x))):
        raise ArithmeticError("reference loop went wrong")
    return wall


def import_program():
    """Import skewtherm from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import skewtherm
    if Path(skewtherm.__file__).resolve().parent != src / "skewtherm":
        raise ImportError(f"skewtherm imported from {skewtherm.__file__}, "
                          f"not from {src}")
    from skewtherm import fibers, operators
    # the original lru objects, captured before any tracer wrapper exists
    caches = {"preimage": fibers._grid_preimage_tables,
              "full_stencil": operators._full_stencil,
              "base_geometry": operators._base_stencil_geometry}
    return caches


def digest(outputs) -> str:
    import numpy as np
    h = hashlib.sha256()
    for item in outputs:
        h.update(np.asarray(item, dtype=np.float64).tobytes())
    return h.hexdigest()


def run_unit(workload, inputs, caches, tracer=None):
    """One cold unit: returns (wall_s, tally, digest or None)."""
    from workloads import Tally
    for cache in caches.values():
        cache.cache_clear()
    gc.collect()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = workload.compute(inputs)
        else:
            with tracer:
                result = workload.compute(inputs)
        tally = workload.check(inputs, result)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        failed = Tally(workload.planned, workload.planned)
        return time.perf_counter() - t0, failed, None
    wall = time.perf_counter() - t0
    return wall, tally, digest(workload.outputs(result))


def layer_metrics(tracer, caches, wall: float) -> dict:
    """Per-layer numbers of one traced unit (computed byte counts labelled)."""
    from tracer import quantile_ms, summarize
    summary = summarize(tracer.spans)
    layers = summary["layers"]
    counters = tracer.counters

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0)

    info = caches["preimage"].cache_info()
    lookups = info.hits + info.misses
    depths = counters["phi_depths"]
    phi_durations = layers.get("phi.compute_phi", {}).get("durations", [])
    out = {}
    for name in ("fibers.grid_preimages", "potential.eval", "gridfn.interp",
                 "base.value", "base.validate", "operators.fiber_step",
                 "operators.stencil.apply", "operators.stencil.apply_adjoint",
                 "phi.compute_phi", "measures.fiber_integrate"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    out.update({
        "fibers.preimage_cache.hit_ratio": info.hits / lookups if lookups else 0.0,
        "fibers.preimage_cache.misses": info.misses,
        "fibers.preimage_cache.bytes": sum(counters["preimage_tables"].values()),
        "base.forward.calls": calls("base.forward"),
        "operators.full_stencil.build_s":
            layers.get("operators.full_stencil", {}).get("incl_s", 0.0),
        "operators.full_stencil.bytes": counters.get("full_stencil_bytes", 0),
        "operators.stencil.bytes_per_apply": counters.get("bytes_per_apply", 0),
        "phi.compute_phi.p50_ms": quantile_ms(phi_durations, 0.50),
        "phi.compute_phi.p95_ms": quantile_ms(phi_durations, 0.95),
        "phi.depth.mean": statistics.fmean(depths) if depths else 0.0,
        "phi.depth.max": max(depths, default=0),
        "measures.power.base_iterations": counters["base_iterations"],
        "measures.power.full_iterations": counters["full_iterations"],
        "measures.rpf_base_solve.self_s": self_s("measures.rpf_base_solve"),
        "measures.rpf_full_solve.self_s": self_s("measures.rpf_full_solve"),
        "trace.wall_s": wall,
        "trace.unattributed_frac": max(wall - summary["top_s"], 0.0) / wall,
    })
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--spans-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    caches = import_program()
    import numpy as np
    from workloads import WORKLOADS, Tally
    workload = WORKLOADS[args.workload]
    inputs = workload.build(args.seed)
    setup_s = time.monotonic() - args.t0
    env = {"python": sys.version.split()[0], "numpy": np.__version__}
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "env": env}))
        return 0

    from tracer import Tracer
    tracer = Tracer() if args.trace else None
    total = Tally()
    walls, traced_walls, layer_runs, digests = [], [], [], set()
    refs = []
    first_spans = None
    if tracer is None:
        reference_loop()   # warm-up: the first loops of a process run slow
        reference_loop()
        refs.append(reference_loop())
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds
           or len(walls) < MIN_UNITS):
        wall, tally, dig = run_unit(workload, inputs, caches)
        walls.append(wall)
        total.add(tally)
        digests.add(dig)
        if tracer is None:
            refs.append(reference_loop())
            continue
        wall, tally, dig = run_unit(workload, inputs, caches, tracer)
        traced_walls.append(wall)
        total.add(tally)
        digests.add(dig)
        layer_runs.append(layer_metrics(tracer, caches, wall))
        if first_spans is None:
            first_spans = list(tracer.spans)
    # one more operation: every unit, traced or not, gave the same output bytes
    digests.discard(None)
    total.check(len(digests) <= 1)
    if len(digests) > 1:
        print(f"outputs differ between units: {sorted(digests)}", file=sys.stderr)

    if tracer is None:
        metrics = {"peak_rss_mb":
                   resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    else:
        metrics = {key: statistics.median(run[key] for run in layer_runs)
                   for key in layer_runs[0]}
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(walls) - 1.0)
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent"],
                           "spans": first_spans}, fh, separators=(",", ":"))
    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    if bad:
        print(f"non-finite metrics: {bad}", file=sys.stderr)
        return 1
    print(json.dumps({
        "attempted": total.attempted, "failed": total.failed,
        "digest": digests.pop() if len(digests) == 1 else None,
        "walls_s": walls, "traced_walls_s": traced_walls, "reference_s": refs,
        "wall_ratios": [2.0 * w / (r0 + r1)
                        for w, r0, r1 in zip(walls, refs, refs[1:])],
        "setup_s": setup_s, "env": env, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
