"""Run the CLI with two source trees and compare what each run leaves.

    python tools/cli_artifacts.py [--config CONFIG] OLD_SRC NEW_SRC OUT

OLD_SRC and NEW_SRC are directories holding the ``skewtherm`` package (a
checkout's ``src``).  Each of the eleven subcommands runs at its defaults,
``verify`` once more with ``--seed 777``, and ``rpf-base`` and ``pressure``
once more with a ``--phi-cache`` file in their run directory, under both
trees, writing to OUT/old/<run> and OUT/new/<run>.  Every artifact (a
cache file's values, n_used and bounds among them), the stdout and the
exit code of each run are compared byte for byte; each difference is
printed.  Each run's peak RSS under both trees (``ru_maxrss`` of the child
process) is printed too, as a line that is not a difference.  Exits 1 if
there is a difference, 0 if the two trees give the same bytes.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

# (run name, CLI arguments after the global options)
RUNS = [(command, [command]) for command in (
    "check-hypotheses", "compute-phi", "holder", "cones", "fiber-measures",
    "rpf-base", "rpf-full", "pressure", "intertwine", "words", "verify")]
RUNS.append(("verify-seed-777", ["--seed", "777", "verify"]))
# "{out}" stands for the run's directory
RUNS += [(f"{command}-phi-cache",
          ["--phi-cache", "{out}/phi_cache.json", command])
         for command in ("rpf-base", "pressure")]


def run(src: Path, out: Path, args: list[str],
        config: Path | None) -> tuple[int, bytes, float]:
    """Run the CLI from src with --out out; returns (exit code, stdout,
    peak RSS in MB)."""
    env = {**os.environ, "PYTHONPATH": str(src.resolve()),
           "PYTHONHASHSEED": "0"}
    options = ["--config", str(config.resolve())] if config else []
    args = [arg.replace("{out}", str(out.resolve())) for arg in args]
    with subprocess.Popen(
            [sys.executable, "-m", "skewtherm.cli", *options,
             "--out", str(out.resolve()), *args],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as proc:
        stdout = proc.stdout.read()
        # wait4 reaps the child with its own resource usage; ru_maxrss is in KB
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout, usage.ru_maxrss / 1024


def differences(name: str, old: tuple, new: tuple,
                old_dir: Path, new_dir: Path) -> list[str]:
    """Every way the new run of ``name`` differs from the old one."""
    found = []
    if old[0] != new[0]:
        found.append(f"{name}: exit code {old[0]} -> {new[0]}")
    if old[1] != new[1]:
        found.append(f"{name}: stdout differs")
    files = {p.relative_to(d) for d in (old_dir, new_dir) if d.is_dir()
             for p in d.rglob("*") if p.is_file()}
    for rel in sorted(files):
        a, b = old_dir / rel, new_dir / rel
        if not a.is_file() or not b.is_file():
            found.append(f"{name}: {rel} only in {'new' if b.is_file() else 'old'}")
        elif a.read_bytes() != b.read_bytes():
            found.append(f"{name}: {rel} differs")
    return found


def compare(old_src: Path, new_src: Path, out: Path,
            config: Path | None = None, runs=RUNS) -> list[str]:
    """Run every run under both trees, printing each run's peak RSS;
    returns the differences found."""
    found = []
    for name, args in runs:
        dirs = out / "old" / name, out / "new" / name
        results = [run(src, d, args, config)
                   for src, d in zip((old_src, new_src), dirs)]
        print(f"{name}: peak RSS {results[0][2]:.1f} MB old, "
              f"{results[1][2]:.1f} MB new", flush=True)
        found += differences(name, *results, *dirs)
    return found


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", type=Path, default=None)
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("out", type=Path)
    args = parser.parse_args(argv)
    found = compare(args.old_src, args.new_src, args.out, args.config)
    for line in found:
        print(line)
    print(f"{len(RUNS)} runs, {len(found)} differences")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
