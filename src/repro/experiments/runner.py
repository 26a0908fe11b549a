"""Command-line experiment runner.

Usage (installed package)::

    python -m repro.experiments.runner table1 [family ...]
    python -m repro.experiments.runner table2
    python -m repro.experiments.runner symbolic
    python -m repro.experiments.runner all

``table1`` accepts optional family filters (``Deviation``,
``Concentration``, ``StoInv``).  ``--jobs N`` fans the independent engine
tasks of *every* target — Table 1 triples, Table 2 rows, the symbolic
appendix — out over a process pool (``0`` = one worker per CPU, clamped to
the number of runnable tasks); dispatch is completion-driven, so a slow
Hoeffding task delays only its own row's downstream tasks, never the
whole table.  ``--cache [DIR]`` replays identical tasks from an on-disk
result cache across targets and runs.  Results print next to the paper-reported
numbers; absolute agreement is not expected (our substrate is a
from-scratch Python stack), but orderings and magnitudes should match —
see ``EXPERIMENTS.md``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.experiments.table1 import format_table1, run_table1
from repro.experiments.table2 import format_table2, run_table2
from repro.experiments.symbolic_tables import format_symbolic, run_symbolic_tables

__all__ = ["main"]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner", description=__doc__
    )
    parser.add_argument(
        "target",
        choices=["table1", "table2", "symbolic", "all"],
        help="which table(s) to regenerate",
    )
    parser.add_argument(
        "families",
        nargs="*",
        help="optional Table 1 family filter (Deviation/Concentration/StoInv)",
    )
    parser.add_argument(
        "--no-hoeffding",
        action="store_true",
        help="skip the Section 5.1 algorithm",
    )
    parser.add_argument(
        "--no-baseline", action="store_true", help="skip previous-work baselines"
    )
    from repro.engine.args import add_engine_args, engine_from_args

    add_engine_args(
        parser,
        jobs_help="run engine tasks (synthesis runs, baselines) on up to N "
        "worker processes; 0 = one worker per CPU",
    )
    args = parser.parse_args(argv)

    from repro.errors import ReproError

    try:
        engine = engine_from_args(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    cache = engine.cache

    start = time.perf_counter()
    try:
        if args.target in ("table1", "all"):
            rows = run_table1(
                families=args.families or None,
                with_hoeffding=not args.no_hoeffding,
                with_baseline=not args.no_baseline,
                engine=engine,
            )
            print("\n== Table 1: upper bounds on assertion violation ==")
            print(format_table1(rows))
        if args.target in ("table2", "all"):
            rows2 = run_table2(engine=engine)
            print("\n== Table 2: lower bounds on assertion violation ==")
            print(format_table2(rows2))
        if args.target in ("symbolic", "all"):
            rows3 = run_symbolic_tables(engine=engine)
            print("\n== Tables 3-5: symbolic bounds ==")
            print(format_symbolic(rows3))
    finally:
        # a degraded run (retries, pool rebuilds, backend switches) still
        # prints identical tables, but never silently
        for line in engine.degradation.render():
            print(f"note: {line}", file=sys.stderr)
        engine.close()
    print(f"\ntotal {time.perf_counter() - start:.1f}s")
    if cache is not None:
        print(f"cache: {cache.hits} hit(s), {cache.stores} store(s) in {cache.directory}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
