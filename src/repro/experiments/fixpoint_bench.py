"""Shared fixpoint-benchmark workloads and the BENCH_fixpoint.json writer.

Both producers of the perf trajectory — the ``repro bench`` CLI subcommand
and ``benchmarks/bench_fixpoint.py`` — import the workload table and the
append helper from here, so the two entry points measure the same state
spaces and write the same schema (see ``PERFORMANCE.md``).
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Tuple

__all__ = [
    "FIXPOINT_WORKLOADS",
    "SLOW_MIXING_WORKLOADS",
    "SLOW_MIXING_ANALYTIC_VPF",
    "append_bench_run",
    "best_recorded_seconds",
    "best_recorded_sparse_seconds",
    "explore_timings",
]

#: name -> (source, default max_states, integer_mode): small /
#: iteration-heavy / state-heavy, covering CSR sweeps from 13 to 100k
#: states, plus two 100k-state all-integer Table 1 shapes where the
#: lattice frontier explorer shows its headroom over the exact Fraction BFS,
#: and the three fractional Table 1 shapes the scaled-lattice (fixed-point
#: int64) admission opened up (see ``PERFORMANCE.md``).  ``integer_mode``
#: mirrors the program registry: fractional-step programs must keep their
#: strict guards un-tightened.
FIXPOINT_WORKLOADS: Dict[str, Tuple[str, int, bool]] = {
    "gambler": (
        "x := 3\nwhile x >= 1 and x <= 9:\n    switch:\n"
        "        prob(0.5): x := x + 1\n        prob(0.5): x := x - 1\n"
        "assert x <= 0",
        20_000,
        True,
    ),
    "gambler-200": (
        "x := 50\nwhile x >= 1 and x <= 199:\n    switch:\n"
        "        prob(0.5): x := x + 1\n        prob(0.5): x := x - 1\n"
        "assert x <= 0",
        20_000,
        True,
    ),
    # the slow-mixing gambler-N ladder: fair walks whose sweep counts grow
    # ~N^2 (76k sweeps at N=200, ~1.9M at N=1000), the regime the
    # solve-then-certify oracles target.  The assert fires on the *rich*
    # exit (x = N), so from x := N/4 the exact violation probability is
    # (N/4)/N = 1/4 — the analytic check the bench twin uses instead of
    # the (hours-slow at these sweep counts) pure-Python reference engine
    "gambler-500": (
        "x := 125\nwhile x >= 1 and x <= 499:\n    switch:\n"
        "        prob(0.5): x := x + 1\n        prob(0.5): x := x - 1\n"
        "assert x <= 0",
        20_000,
        True,
    ),
    "gambler-1000": (
        "x := 250\nwhile x >= 1 and x <= 999:\n    switch:\n"
        "        prob(0.5): x := x + 1\n        prob(0.5): x := x - 1\n"
        "assert x <= 0",
        20_000,
        True,
    ),
    "asym-walk": (
        "x := 0\nt := 0\nwhile x <= 19:\n    switch:\n"
        "        prob(0.75): x, t := x + 1, t + 1\n"
        "        prob(0.25): x, t := x - 1, t + 1\n"
        "assert t <= 60",
        20_000,
        True,
    ),
    # Table 1's asymmetric-walk shape scaled to a 100k-state exploration
    "asym-walk-100k": (
        "x := 0\nt := 0\nwhile x <= 60:\n    switch:\n"
        "        prob(0.75): x, t := x + 1, t + 1\n"
        "        prob(0.25): x, t := x - 1, t + 1\n"
        "assert t <= 600",
        100_000,
        True,
    ),
    # Table 1's RdAdder (500 fair-coin increments), truncated at 100k states
    "rdadder-100k": (
        "i := 0\nx := 0\nwhile i <= 499:\n    if prob(0.5):\n"
        "        i, x := i + 1, x + 1\n    else:\n        i := i + 1\n"
        "assert x <= 275",
        100_000,
        True,
    ),
    # Table 1's 3DWalk (repro.programs.stoinv.walk_3d defaults): 0.1-steps
    # put it on the scale-10 fixed-point lattice
    "3dwalk-100k": (
        "x := 100\ny := 100\nz := 100\n"
        "while x >= 0 and y >= 0 and z >= 0:\n"
        "    assert x + y + z <= 1000\n"
        "    if prob(0.9):\n        switch:\n"
        "            prob(0.5): x, y := x - 1, y - 1\n"
        "            prob(0.5): z := z - 1\n"
        "    else:\n        switch:\n"
        "            prob(0.5): x, y := x + 0.1, y + 0.1\n"
        "            prob(0.5): z := z + 0.1\n",
        100_000,
        False,
    ),
    # Table 1's Robot (repro.programs.deviation.robot defaults): 1.414
    # displacements and +-0.05 actuator noise, scale-500 lattice on x/ex
    "robot-100k": (
        "noise ~ discrete((0.5, -0.05), (0.5, 0.05))\n"
        "i := 0\nx := 0\nex := 0\n"
        "while i <= 59:\n    switch:\n"
        "        prob(0.2): i, x, ex := i + 1, x - 1.414 + noise, ex - 1.414\n"
        "        prob(0.2): i, x, ex := i + 1, x + 1.414 + noise, ex + 1.414\n"
        "        prob(0.2): i, x, ex := i + 1, x - 1 + noise, ex - 1\n"
        "        prob(0.2): i, x, ex := i + 1, x + 1 + noise, ex + 1\n"
        "        prob(0.2): i, x, ex := i + 1, x + noise, ex\n"
        "assert x - ex <= 1.8",
        100_000,
        False,
    ),
    # Table 2's M1DWalk (repro.programs.hardware.m1dwalk, p=1e-7): integer
    # lattice (fork probabilities never enter a state), but a width-2 chain
    # — the thin-frontier bailout keeps it on the scalar engine under auto.
    # Budgeted at 5k states: the chain is slow-mixing, and the reference
    # engine's pure-Python sweeps grow superlinearly with the budget
    "m1dwalk-5k": (
        "const p = 1e-7\nx := 1\nwhile x <= 99:\n    switch:\n"
        "        prob(p): exit\n"
        "        prob(0.75 * (1 - p)): x := x + 1\n"
        "        prob(0.25 * (1 - p)): x := x - 1\n"
        "assert false",
        5_000,
        True,
    ),
}

# promoted finds from the fuzzing farm's generated corpus (see
# repro.programs.fuzzed for the replay triples): frozen text shared with
# the registry so benchmark and program can never drift apart.  Small
# state spaces — the pure-Python reference comparison stays cheap, and
# the perf gate is untouched (no recorded baseline means no gate).
from repro.programs.fuzzed import FUZZED_SOURCES as _FUZZED_SOURCES  # noqa: E402

FIXPOINT_WORKLOADS.update(
    {
        "fz-queue-surge": (_FUZZED_SOURCES["fz-queue-surge"], 5_000, True),
        "fz-grid-trap": (_FUZZED_SOURCES["fz-grid-trap"], 5_000, True),
        "fz-lattice-strain": (_FUZZED_SOURCES["fz-lattice-strain"], 5_000, False),
    }
)

#: workloads whose pure-sweep iteration counts make the pure-Python
#: reference engine impractical (minutes to hours): both bench producers
#: skip the reference comparison here and validate the bracket against
#: the analytic violation probability instead (all ladder entries start
#: at x = N/4 and violate on the rich exit x = N, so vpf = 1/4 exactly)
SLOW_MIXING_WORKLOADS = frozenset({"gambler-500", "gambler-1000"})

#: exact violation probability of every SLOW_MIXING_WORKLOADS entry
SLOW_MIXING_ANALYTIC_VPF = 0.25


def explore_timings(
    pts, max_states: int, explore: str = "auto", compare: bool = True
) -> Dict[str, object]:
    """Time the exploration phase alone and return its bench-entry fields.

    Shared by the ``repro bench`` CLI and ``benchmarks/bench_fixpoint.py``
    so both producers emit the same schema: always ``explorer`` and
    ``explore_seconds``; when the lattice engine ran (``"int64"`` or
    ``"scaled-int64"``, and ``compare`` is true), also the exact
    Fraction-BFS comparison ``explore_fraction_seconds`` and (whenever the
    timer resolved a nonzero frontier time) ``explore_speedup``; when it
    ran as ``"scaled-int64"``, additionally the per-variable fixed-point
    denominators as ``scale_factors``.  Keys are *omitted*, never null,
    when inapplicable.  Pass ``compare=False`` to skip the slow Fraction
    re-exploration (``repro bench --skip-reference``).
    """
    import time

    from repro.core.fixpoint import build_sparse_model

    start = time.perf_counter()
    model = build_sparse_model(pts, max_states=max_states, explore=explore)
    explore_seconds = time.perf_counter() - start
    fields: Dict[str, object] = {
        "explorer": model.explored_via,
        "explore_seconds": round(explore_seconds, 6),
    }
    if model.explored_via == "scaled-int64":
        scale = pts.integrality().scale or ()
        fields["scale_factors"] = {
            v: int(s) for v, s in zip(pts.program_vars, scale)
        }
    if compare and model.explored_via in ("int64", "scaled-int64"):
        start = time.perf_counter()
        build_sparse_model(pts, max_states=max_states, explore="fraction")
        fraction_seconds = time.perf_counter() - start
        fields["explore_fraction_seconds"] = round(fraction_seconds, 6)
        if explore_seconds > 0:
            fields["explore_speedup"] = round(fraction_seconds / explore_seconds, 2)
    return fields


def append_bench_run(
    path, results: List[dict], source: Optional[str] = None
) -> int:
    """Append one timestamped run to the ``{"runs": [...]}`` history at
    ``path`` (creating or resetting it if absent/corrupt); returns the new
    run count."""
    out = Path(path)
    history = {"runs": []}
    if out.exists():
        try:
            history = json.loads(out.read_text())
        except (json.JSONDecodeError, OSError):
            history = {"runs": []}
    run = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "results": list(results),
    }
    if source is not None:
        run["source"] = source
    runs = history.setdefault("runs", [])
    runs.append(run)
    out.write_text(json.dumps(history, indent=2) + "\n")
    return len(runs)


def best_recorded_seconds(
    path, program: str, max_states: int, field: str = "sparse_seconds"
) -> Optional[float]:
    """Fastest ``field`` timing ever recorded for this exact workload
    (same program name *and* state budget), or ``None`` if the trajectory
    has no comparable entry.  This is the baseline of the ``-m bench``
    regression gate: degrading more than 2x against the best known run —
    in the end-to-end ``sparse_seconds`` or the value-iteration-phase
    ``vi_seconds`` — fails the benchmark suite.
    """
    source = Path(path)
    if not source.exists():
        return None
    try:
        history = json.loads(source.read_text())
    except (json.JSONDecodeError, OSError):
        return None
    best: Optional[float] = None
    for run in history.get("runs", []):
        for entry in run.get("results", []):
            if entry.get("program") != program:
                continue
            if entry.get("max_states") != max_states:
                continue
            seconds = entry.get(field)
            if isinstance(seconds, (int, float)) and seconds > 0:
                best = seconds if best is None else min(best, seconds)
    return best


def best_recorded_sparse_seconds(
    path, program: str, max_states: int
) -> Optional[float]:
    """Backwards-compatible alias of :func:`best_recorded_seconds` for the
    end-to-end ``sparse_seconds`` field."""
    return best_recorded_seconds(path, program, max_states, "sparse_seconds")
