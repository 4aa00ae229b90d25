"""skewtherm benchmark: one workload, one seed, one measured run.

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; skewtherm is imported from its
``src/``.  The workloads, their sizes and checks are in workloads.py, the
layer spans in tracer.py, and BENCHMARK.json names every metric.

Every measurement runs in a fresh single-threaded process (worker.py) with
OMP/OpenBLAS/MKL thread counts set to 1, one process at a time.  An untraced
run splits its seconds over three measuring processes (segments), and starts
two processes that only set up before the first segment and after each one.
``wall_ref`` is the median over all segments' units, ``setup_s`` the median
of all set-ups, measuring processes included, so that both sample the whole
run rather than one moment of a host whose speed drifts.  A traced run is
one process.  The last stdout line is the result:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones.  A full record, with the machine and versions, goes to
``perfbench/results/``; a traced run also writes its first traced unit's
spans there.  The exit code is non-zero, and no result is printed, when the
run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SEGMENTS = 3       # measuring processes in an untraced run
SETUP_PROBES = 2   # set-up-only processes before and after each segment
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    return env


def worker(args, deadline: float, seconds: float, *extra) -> dict:
    """Run one worker process to completion and parse its last stdout line."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace), *extra]
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=child_env(),
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - t0, 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def setup_probes(args, deadline: float) -> list:
    return [worker(args, deadline, 0.0, "--setup-only")["setup_s"]
            for _ in range(SETUP_PROBES)]


def git_commit() -> str:
    """HEAD of the checkout, read without starting git; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def expected_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("pressure", "phi-random"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "skewtherm" / "__init__.py").is_file():
        print(f"no skewtherm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = expected_metrics(args.trace)

    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = RESULTS / f"spans-{tag}.json"
    try:
        if args.trace:
            runs = [worker(args, deadline, args.seconds,
                           "--spans-out", str(spans_path))]
            setups = [runs[0]["setup_s"]]
        else:
            runs, setups = [], setup_probes(args, deadline)
            for _ in range(SEGMENTS):
                runs.append(worker(args, deadline, args.seconds / SEGMENTS))
                setups += setup_probes(args, deadline) + [runs[-1]["setup_s"]]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    # one more operation: every segment gave the same output bytes
    digests = {r["digest"] for r in runs}
    attempted += 1
    failed += not (len(digests) == 1 and None not in digests)
    if args.trace:
        metrics = dict(runs[0]["metrics"])
    else:
        metrics = {
            "wall_ref": statistics.median(
                x for r in runs for x in r["wall_ratios"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(r["metrics"]["peak_rss_mb"] for r in runs),
        }
    if set(metrics) != set(expected):
        print(f"metrics {sorted(set(metrics) ^ set(expected))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in expected.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "walls_s": [r["walls_s"] for r in runs],
        "traced_walls_s": [r["traced_walls_s"] for r in runs],
        "reference_s": [r["reference_s"] for r in runs],
        "setup_samples_s": setups,
        "env": {**runs[0]["env"], "nproc": len(os.sched_getaffinity(0)),
                "cpu": cpu_model(), "commit": git_commit(),
                "platform": platform.platform()},
        "error_rate": failed / attempted,
        "result": result,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({key: record[key] for key in
                      ("env", "walls_s", "traced_walls_s", "setup_samples_s")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
