"""Benchmark of the bound pipeline: one workload, one seed, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-tables --seed 0 --seconds 30 --trace 0

Workloads: ``paper-tables``, ``exact-brackets``, ``corpus-pool`` (see
``perfbench/README.md``).  Each run starts fresh interpreters with a fixed
hash seed, one BLAS/OpenMP thread and no ``REPRO_*`` settings: several
set-up-only cold starts (``setup_s`` is their median, with the workload
interpreter's own start), then one interpreter that runs timed passes of
the workload for ``--seconds`` and judges the outputs with independent
oracles.  ``--trace 1`` runs alternating untraced and traced passes and
reports per-layer metrics instead of end-to-end ones.

It prints every metric by name and unit, any failing bound and check, and
as its last line ``{"correct", "attempted", "failed", "metrics"}``.  It
exits non-zero without a result when the program under test is missing or
a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORKLOADS = ("paper-tables", "exact-brackets", "corpus-pool")
#: set-up-only cold starts before and again after the workload interpreter,
#: whose own start is one more sample: spreading them over the run keeps
#: one burst of machine noise from setting the median
SETUP_STARTS_EACH_SIDE = 3
#: a cold start takes about 1 s; one that takes this long has failed
SETUP_TIMEOUT_S = 20.0
#: the whole run must end within this many seconds
RUN_LIMIT_S = 175.0

PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    # SciPy warns on many SLSQP solves; the noise goes to stderr, not results
    "PYTHONWARNINGS": "ignore",
}



def declared_units(section: str) -> dict:
    """name -> unit of every metric ``BENCHMARK.json`` declares in ``section``."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in bench[section]}


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PINNED_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list, timeout: float):
    """Run child.py; returns (setup_s, ready, result) where setup_s runs from
    spawn to the child's ready mark (perf_counter is system-wide on Linux)."""
    spawned = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *args],
        cwd=str(ROOT),
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed(f"child {args} exceeded {timeout:.0f}s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise ChildFailed(f"child {args} exited with {proc.returncode}")
    ready = result = None
    for line in out.splitlines():
        if line.startswith("PERFBENCH-READY "):
            ready = json.loads(line.split(" ", 1)[1])
        elif line.startswith("PERFBENCH-RESULT "):
            result = json.loads(line.split(" ", 1)[1])
    if ready is None:
        raise ChildFailed(f"child {args} never became ready")
    return ready["ready_at"] - spawned, ready, result


def host_line() -> str:
    import importlib.metadata as md

    def version(pkg):
        try:
            return md.version(pkg)
        except md.PackageNotFoundError:
            return "absent"

    return (
        f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
        f"numpy {version('numpy')}, scipy {version('scipy')}, "
        "OpenBLAS/OpenMP threads 1, PYTHONHASHSEED 0"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program under test at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    units = declared_units("per_layer" if args.trace else "end_to_end")

    deadline = time.perf_counter() + RUN_LIMIT_S
    setups, imports, warmups = [], [], []

    def sample(setup, ready):
        setups.append(setup)
        imports.append(ready["import_s"])
        warmups.append(ready["warmup_s"])

    try:
        for _ in range(SETUP_STARTS_EACH_SIDE):
            sample(*run_child(["--setup-only"], SETUP_TIMEOUT_S)[:2])
        setup, ready, res = run_child(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            deadline - time.perf_counter() - SETUP_STARTS_EACH_SIDE * SETUP_TIMEOUT_S,
        )
        sample(setup, ready)
        if res is None:
            raise ChildFailed("workload child printed no result")
        for _ in range(SETUP_STARTS_EACH_SIDE):
            sample(*run_child(["--setup-only"], min(SETUP_TIMEOUT_S, deadline - time.perf_counter()))[:2])
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload  {args.workload}  seed {args.seed}  trace {args.trace}  passes {res['passes']}")
    print(f"host      {host_line()}")
    if args.trace:
        metrics = dict(res["layers"])
        metrics["setup.import_s"] = statistics.median(imports)
        metrics["setup.warmup_s"] = statistics.median(warmups)
        print(res["layer_table"])
        print("trace files: " + ", ".join(res["trace_files"]))
    else:
        metrics = dict(res["quality"])
        metrics["setup_s"] = statistics.median(setups)
        metrics["wall_s"] = res["wall_s"]
        metrics["peak_rss_mb"] = res["peak_rss_mb"]
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json", file=sys.stderr)
        return 1
    explain = {**res["quality_counts"], "setup_s": f"median of {len(setups)} cold starts",
             "wall_s": f"median of {len(res['pass_walls'])} passes "
                       + " ".join(f"{w:.3f}" for w in res["pass_walls"])}
    for name in sorted(metrics):
        note = "" if args.trace else explain.get(name, "")
        print(f"  {name:<26} {metrics[name]:>14.6g} {units[name]:<7} {note}")
    for line in res["notes"]:
        print(f"result: {line}")
    for line in res["unsound"]:
        print(f"unsound bound: {line}")
    for line in res["failures"]:
        print(f"failed check: {line}")
    for line in res["incorrect"]:
        print(f"INCORRECT: {line}")
    summary = {
        "correct": not res["incorrect"],
        "attempted": res["attempted"] * res["passes"],
        "failed": res["missing"] * res["passes"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in sorted(metrics)},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
