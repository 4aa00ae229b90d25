"""Outside-in span tracer for skewtherm's layers.

The tracer replaces the names each layer is reached through with timing
wrappers while a traced unit runs, and puts the originals back afterwards.
A module-level function is replaced in every skewtherm module that binds it
(``from .fibers import grid_preimages`` makes ``skewtherm.operators`` hold
its own reference), a method on its class.  No program file is changed.

Every call records one span ``(name, start, end, parent)``; spans stay in
memory until the benchmark writes them out.  A span's self time is its
duration minus the time covered by its child spans.  Calls are synchronous
and single-threaded, so child spans never overlap and that cover is the sum
of their durations.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict


def _stencil_bytes(st) -> int:
    return int(st.idx.nbytes + st.wgt.nbytes)


def _on_grid_preimages(counters, out):
    # computed, not measured: one (y1, y2) table pair per distinct cache entry
    y1, y2 = out
    counters["preimage_tables"][id(y1)] = int(y1.nbytes + y2.nbytes)


def _on_full_stencil(counters, out):
    counters["full_stencil_bytes"] = max(counters.get("full_stencil_bytes", 0),
                                         _stencil_bytes(out))
    # computed: index and weight arrays, the gathered sources, the output
    counters["bytes_per_apply"] = max(
        counters.get("bytes_per_apply", 0),
        _stencil_bytes(out) + 8 * out.idx.size + 8 * out.size)


def _on_compute_phi(counters, out):
    counters["phi_depths"].append(int(out[1]))


def _on_base_solve(counters, out):
    counters["base_iterations"] += int(out.iterations)


def _on_full_solve(counters, out):
    counters["full_iterations"] += int(out.iterations)


# (span name, module, attribute path, return hook).  The set covers every
# layer on the hot path; the measures entry points are spans too so that a
# workload's time falls inside some named span.
SPANS = (
    ("base.value", "skewtherm.base", "BasePoint.value", None),
    ("base.validate", "skewtherm.base", "BasePoint.__post_init__", None),
    ("base.forward", "skewtherm.base", "BasePoint.forward", None),
    ("fibers.grid_preimages", "skewtherm.fibers", "grid_preimages",
     _on_grid_preimages),
    ("potential.eval", "skewtherm.potential", "TrigPotential.__call__", None),
    ("gridfn.interp", "skewtherm.gridfn", "GridFn.interp", None),
    ("gridfn.interp", "skewtherm.gridfn", "GridFn2D.interp", None),
    ("operators.fiber_step", "skewtherm.operators", "apply_fiber_operator",
     None),
    ("operators.full_stencil", "skewtherm.operators", "_full_stencil",
     _on_full_stencil),
    ("operators.stencil.apply", "skewtherm.operators", "_Stencil.apply", None),
    ("operators.stencil.apply_adjoint", "skewtherm.operators",
     "_Stencil.apply_adjoint", None),
    ("phi.compute_phi", "skewtherm.phi", "compute_phi", _on_compute_phi),
    ("measures.fiber_integrate", "skewtherm.measures", "fiber_integrate", None),
    ("measures.rpf_base_solve", "skewtherm.measures", "rpf_base_solve",
     _on_base_solve),
    ("measures.rpf_full_solve", "skewtherm.measures", "rpf_full_solve",
     _on_full_solve),
    ("measures.disintegrate_integral", "skewtherm.measures",
     "disintegrate_integral", None),
    ("measures.direct_integral", "skewtherm.measures", "direct_integral", None),
)


class Tracer:
    """Installs the span wrappers for one traced unit at a time."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = {}
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name, fn, hook):
        spans = self.spans
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[i] = (name, t0, t1, parent)
            if hook is not None:
                hook(counters, out)
            return out

        return traced

    def __enter__(self):
        self.spans.clear()
        self._stack.clear()
        self.counters.clear()
        self.counters.update(preimage_tables={}, phi_depths=[],
                             base_iterations=0, full_iterations=0)
        modules = [m for key, m in list(sys.modules.items())
                   if key == "skewtherm" or key.startswith("skewtherm.")]
        for name, module, path, hook in SPANS:
            owner = sys.modules[module]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                original = owner.__dict__[attr]
                self._patch(owner, attr, original,
                            self._wrap(name, original, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)
        return self

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False


def summarize(spans) -> dict:
    """Per-name call counts, self and inclusive times, and top-level cover.

    Returns ``{"layers": {name: {"calls", "self_s", "incl_s", "durations"}},
    "top_s": float}``, where ``top_s`` is the time covered by spans without a
    parent.
    """
    child = [0.0] * len(spans)
    for _, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    layers = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0,
                                  "durations": []})
    top = 0.0
    for i, (name, t0, t1, parent) in enumerate(spans):
        dur = t1 - t0
        rec = layers[name]
        rec["calls"] += 1
        rec["self_s"] += dur - child[i]
        rec["incl_s"] += dur
        rec["durations"].append(dur)
        if parent < 0:
            top += dur
    return {"layers": dict(layers), "top_s": top}


def quantile_ms(durations, q: float) -> float:
    """The q-quantile of span durations in milliseconds (0 when empty)."""
    if not durations:
        return 0.0
    if len(durations) == 1:
        return 1e3 * durations[0]
    cuts = statistics.quantiles(durations, n=100, method="inclusive")
    return 1e3 * cuts[round(q * 100) - 1]
