"""Shared argparse wiring for entry points that own an ``AnalysisEngine``.

``repro analyze`` and the experiments runner accept the same engine
surface (``--cache`` / ``--task-timeout`` / ``--retries``, plus ``--jobs``
on the runner, which has independent tasks to fan out); keeping the
argument definitions and their env fallbacks here means the two entry
points cannot drift.  The engine itself, with its pool → serial
degradation chain, is built by :meth:`AnalysisEngine.with_jobs`.
"""

from __future__ import annotations

import os
import sys
from typing import Optional

__all__ = ["add_engine_args", "engine_from_args"]

#: environment fallbacks for the fault-tolerance knobs, so CI and batch
#: scripts can tighten deadlines without threading flags through wrappers
ENV_TASK_TIMEOUT = "REPRO_TASK_TIMEOUT"
ENV_RETRIES = "REPRO_RETRIES"


def add_engine_args(parser, jobs_help: Optional[str] = None) -> None:
    """Add the shared engine options to ``parser``; ``--jobs`` only with a
    ``jobs_help`` (``analyze`` runs one task at a time, serially)."""
    from repro.engine.cache import DEFAULT_CACHE_DIR

    if jobs_help is not None:
        parser.add_argument("--jobs", type=int, default=1, metavar="N", help=jobs_help)
    parser.add_argument(
        "--cache",
        nargs="?",
        const=DEFAULT_CACHE_DIR,
        default=None,
        metavar="DIR",
        help="replay identical tasks from an on-disk result cache "
        f"(default DIR: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline per engine task; an expired task is "
        "retried like an infrastructure failure (default: env "
        f"{ENV_TASK_TIMEOUT} or 3600; 0 disables deadlines)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="re-attempts per task for infrastructure failures (dead "
        "worker, deadline) before degrading to a fallback backend "
        f"(default: env {ENV_RETRIES} or 2)",
    )


def _env_float(name: str):
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError:
        print(f"note: ignoring non-numeric {name}={raw!r}", file=sys.stderr)
        return None


def engine_from_args(args):
    """Build the engine an entry point's parsed ``args`` describe: flags
    first, then the ``REPRO_*`` env fallbacks, then the engine defaults."""
    from repro.engine import AnalysisEngine, ResultCache, RetryPolicy

    task_timeout = args.task_timeout
    if task_timeout is None:
        task_timeout = _env_float(ENV_TASK_TIMEOUT)
    retries = args.retries
    if retries is None:
        env_retries = _env_float(ENV_RETRIES)
        retries = int(env_retries) if env_retries is not None else None
    retry_policy = RetryPolicy(retries=max(0, retries)) if retries is not None else None

    return AnalysisEngine.with_jobs(
        getattr(args, "jobs", 1),
        ResultCache(args.cache) if args.cache else None,
        retry_policy=retry_policy,
        task_timeout=task_timeout,
    )
