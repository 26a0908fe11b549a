"""Deterministic fault injection for the analysis engine.

The fault-tolerance layer (deadlines, retries, pool self-healing, the
degradation chain — see ``docs/ARCHITECTURE.md`` "Failure semantics") is
only trustworthy if every failure mode it promises to absorb is *provoked*
in tests, not hoped about.  This module is the provocation harness: a
seeded :class:`FaultPlan` — a list of :class:`FaultRule`\\ s — injected via
the ``REPRO_FAULTS`` environment variable, which forked pool workers
inherit, so one plan drives faults across every process of a run.

Injection sites (``FaultRule.site``):

``task.latency``
    sleep ``delay`` seconds at the task boundary before executing.
``task.transient``
    raise :class:`InjectedFault` (an infrastructure-class
    :class:`~repro.errors.TaskError`) at the task boundary — the shape of
    a transient runtime error.
``worker.kill``
    ``os._exit(137)`` at the task boundary — the shape of a SIGKILL/OOM
    kill.  Fires **only inside multiprocessing child processes** (pool
    workers), never in the process that owns the plan, so a plan can
    never take down the test runner or the user's shell; in a serial run
    the site simply never fires.

Determinism is the whole design: a rule fires iff its ``match`` substring
occurs in the fault key (a ``task_id``; ``"*"`` matches everything) and
the *attempt index* is below ``times``.  Attempt indices come from the
engine's retry layer — they are part of the submitted payload — so which
attempts fail is a pure function of the plan, independent of process
identity, scheduling, or wall-clock.  A plan with ``times=1`` therefore
means exactly: "the first attempt fails, the retry succeeds", in every
backend.  ``seed`` perturbs injected latency only (never whether a rule
fires).

Usage::

    plan = FaultPlan([FaultRule("worker.kill", match="victim", times=1)])
    with plan.installed():           # sets REPRO_FAULTS for this process
        engine.run(tasks)            # ...and everything it forks

or from a shell: ``REPRO_FAULTS='{"rules":[{"site":"task.transient"}]}'``.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import EngineError, TaskError

__all__ = [
    "ENV_VAR",
    "FAULT_SITES",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "active_plan",
    "task_boundary",
]

ENV_VAR = "REPRO_FAULTS"

FAULT_SITES = (
    "task.latency",
    "task.transient",
    "worker.kill",
)


class InjectedFault(TaskError):
    """A transient infrastructure failure injected by a :class:`FaultPlan`.

    Subclasses :class:`~repro.errors.TaskError` deliberately: the retry
    layer must classify it exactly like a real dead worker or expired
    deadline, or the harness would be testing a code path production never
    takes."""


@dataclass(frozen=True)
class FaultRule:
    """One injection: fire ``site`` for keys containing ``match`` on
    attempts ``0 .. times-1``."""

    site: str
    match: str = "*"
    times: int = 1
    delay: float = 0.0

    def __post_init__(self):
        if self.site not in FAULT_SITES:
            raise EngineError(
                f"unknown fault site {self.site!r}; known: {list(FAULT_SITES)}"
            )
        if self.times < 1:
            raise EngineError(f"fault rule times must be >= 1, got {self.times}")

    def applies(self, key: str, attempt: int) -> bool:
        return attempt < self.times and (self.match == "*" or self.match in key)


class FaultPlan:
    """A seeded, immutable set of :class:`FaultRule`\\ s."""

    def __init__(self, rules: Sequence[FaultRule], seed: int = 0):
        self.rules: List[FaultRule] = list(rules)
        self.seed = int(seed)

    # -- (de)serialization ------------------------------------------------------
    @staticmethod
    def parse(spec: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` JSON form; malformed specs are loud
        (a chaos harness that silently injects nothing proves nothing)."""
        try:
            payload = json.loads(spec)
        except ValueError as exc:
            raise EngineError(f"{ENV_VAR} is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict) or not isinstance(payload.get("rules"), list):
            raise EngineError(
                f'{ENV_VAR} must be an object like {{"seed": 0, "rules": [...]}}'
            )
        rules = []
        for raw in payload["rules"]:
            if not isinstance(raw, dict) or "site" not in raw:
                raise EngineError(f"{ENV_VAR} rule missing 'site': {raw!r}")
            rules.append(
                FaultRule(
                    site=str(raw["site"]),
                    match=str(raw.get("match", "*")),
                    times=int(raw.get("times", 1)),
                    delay=float(raw.get("delay", 0.0)),
                )
            )
        return FaultPlan(rules, seed=int(payload.get("seed", 0)))

    def to_spec(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "rules": [
                    {
                        "site": r.site,
                        "match": r.match,
                        "times": r.times,
                        "delay": r.delay,
                    }
                    for r in self.rules
                ],
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    # -- decisions --------------------------------------------------------------
    def rule_for(self, site: str, key: str, attempt: int) -> Optional[FaultRule]:
        for rule in self.rules:
            if rule.site == site and rule.applies(key, attempt):
                return rule
        return None

    def jittered_delay(self, rule: FaultRule, key: str) -> float:
        """Deterministic per-key latency: ``delay`` scaled by up to +10%
        derived from ``sha256(seed, key)`` — seeded, but reproducible."""
        digest = hashlib.sha256(f"{self.seed}:{key}".encode("utf-8")).hexdigest()
        unit = int(digest[:8], 16) / 0xFFFFFFFF
        return rule.delay * (1.0 + 0.1 * unit)

    @contextmanager
    def installed(self):
        """Set ``REPRO_FAULTS`` for this process (and everything it spawns
        or forks) for the duration of the block."""
        previous = os.environ.get(ENV_VAR)
        os.environ[ENV_VAR] = self.to_spec()
        try:
            yield self
        finally:
            if previous is None:
                os.environ.pop(ENV_VAR, None)
            else:
                os.environ[ENV_VAR] = previous

    def __repr__(self) -> str:
        return f"FaultPlan(rules={self.rules!r}, seed={self.seed})"


#: parse cache keyed by the raw env string — task boundaries are hot
_PARSED: dict = {}


def active_plan() -> Optional[FaultPlan]:
    """The plan currently installed via ``REPRO_FAULTS``, or ``None``."""
    spec = os.environ.get(ENV_VAR, "")
    if not spec:
        return None
    plan = _PARSED.get(spec)
    if plan is None:
        plan = FaultPlan.parse(spec)
        _PARSED.clear()  # env flips atomically; keep exactly one entry
        _PARSED[spec] = plan
    return plan


def _in_worker_process() -> bool:
    # a multiprocessing child (pool worker) — the only place worker.kill
    # may fire; the plan's owner is safe
    return multiprocessing.parent_process() is not None


def task_boundary(key: str, attempt: int) -> None:
    """The per-task injection point, called by the engine's execution
    wrappers with the task id and the retry layer's attempt index.

    Order matters and is fixed: latency first (a slow task is still a
    task), then the kill (nothing after an OOM kill runs), then the
    transient exception."""
    plan = active_plan()
    if plan is None:
        return
    rule = plan.rule_for("task.latency", key, attempt)
    if rule is not None and rule.delay > 0:
        time.sleep(plan.jittered_delay(rule, key))
    if plan.rule_for("worker.kill", key, attempt) is not None and _in_worker_process():
        os._exit(137)  # simulate SIGKILL: no unwinding, no cleanup
    if plan.rule_for("task.transient", key, attempt) is not None:
        raise InjectedFault(
            f"injected transient fault at task {key!r} (attempt {attempt})"
        )
