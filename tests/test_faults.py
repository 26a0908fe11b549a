"""Deterministic fault injection and the engine's fault-tolerance layer.

Two tiers live here:

* plain unit tests of the :mod:`repro.engine.faults` harness itself
  (parsing, matching, the worker-kill safety gate) — these run everywhere;
* ``@pytest.mark.chaos`` tests that *provoke* every failure mode the
  engine promises to absorb — worker kills, transient faults, deadlines,
  pool-rebuild exhaustion — and assert the two load-bearing properties of
  ``docs/ARCHITECTURE.md`` "Failure semantics":

  1. **no unbounded waits**: every provoked failure surfaces or recovers
     within seconds;
  2. **retry determinism**: a fault-forced retry produces results
     canonically identical (all fields except wall-clock ``seconds`` and
     the ``cached`` flag) to a fault-free serial run, including the
     on-disk cache entries it leaves behind.

Determinism notes: fault rules fire on (task_id substring, attempt index)
only, and attempt indices travel in the submitted payload, so which
attempts fail is a pure function of the plan.  Kill-target tasks are
listed *first* in their DAGs: broken in-flight futures settle in
submission order, so the faulting task — not an innocent bystander — is
deterministically the one charged with the attempt.
"""

import os
import time
from dataclasses import asdict

import pytest

from repro.errors import EngineError, TaskError, TaskTimeoutError
from repro.engine import (
    AnalysisEngine,
    AnalysisTask,
    FaultPlan,
    FaultRule,
    InjectedFault,
    ProcessPoolScheduler,
    ProgramSpec,
    ResultCache,
    RetryPolicy,
    SerialScheduler,
)
from repro.engine.faults import ENV_VAR, active_plan, task_boundary
from repro.engine.task import CertificateResult

SPEC = ProgramSpec.from_source("x := 0\nassert false", name="faults-dummy")

RACE_SOURCE = """\
x := 40
y := 0
while x <= 99 and y <= 99:
    if prob(0.5):
        x, y := x + 1, y + 2
    else:
        x := x + 1
assert x >= 100
"""


# -- helper algorithm (module-level: pool workers resolve it by name) -------------


def synthesize_value(task, deps=None, engine=None):
    """Pure function of its params (plus an optional sleep), so canonical
    equality across backends/retries is a meaningful assertion."""
    time.sleep(float(task.param("sleep", 0.0)))
    x = float(task.param("x", 1.0))
    return CertificateResult(
        algorithm=task.algorithm,
        status="ok",
        log_bound=3.0 * x,
        details={"x": x, "deps_seen": sorted(deps or {})},
    )


@pytest.fixture
def scratch_algorithms():
    from repro.engine import engine as engine_mod

    added = {"t_value": "test_faults:synthesize_value"}
    engine_mod.ALGORITHMS.update(added)
    yield
    for name in added:
        engine_mod.ALGORITHMS.pop(name, None)
        engine_mod._RESOLVED.pop(name, None)


def _value_task(task_id, x=1.0, sleep=0.0, depends_on=(), cacheable=False):
    return AnalysisTask.make(
        "t_value",
        SPEC,
        params={"x": x, "sleep": sleep, "tag": task_id},
        task_id=task_id,
        depends_on=depends_on,
        cacheable=cacheable,
    )


def canon(result):
    """Everything but wall-clock: the bit-identity comparison form."""
    data = asdict(result)
    data.pop("seconds")
    data.pop("cached")
    return data


def _serial_baseline(tasks, cache=None):
    engine = AnalysisEngine(SerialScheduler(), cache=cache)
    try:
        return {tid: canon(r) for tid, r in engine.run(tasks).items()}
    finally:
        engine.close()


# -- the harness itself -----------------------------------------------------------


class TestFaultPlan:
    def test_spec_round_trip(self):
        plan = FaultPlan(
            [
                FaultRule("worker.kill", match="victim", times=2),
                FaultRule("task.latency", delay=1.5),
            ],
            seed=7,
        )
        parsed = FaultPlan.parse(plan.to_spec())
        assert parsed.seed == 7
        assert parsed.rules == plan.rules

    def test_unknown_site_is_rejected(self):
        with pytest.raises(EngineError, match="unknown fault site"):
            FaultRule("task.meteor")

    def test_nonpositive_times_is_rejected(self):
        with pytest.raises(EngineError, match="times must be >= 1"):
            FaultRule("task.transient", times=0)

    def test_malformed_specs_are_loud(self):
        with pytest.raises(EngineError, match="not valid JSON"):
            FaultPlan.parse("{nope")
        with pytest.raises(EngineError, match="must be an object"):
            FaultPlan.parse('["task.transient"]')
        with pytest.raises(EngineError, match="missing 'site'"):
            FaultPlan.parse('{"rules": [{"match": "x"}]}')

    def test_rules_fire_on_match_and_attempt_only(self):
        rule = FaultRule("task.transient", match="victim", times=2)
        assert rule.applies("the-victim-task", 0)
        assert rule.applies("the-victim-task", 1)
        assert not rule.applies("the-victim-task", 2)  # attempts exhausted
        assert not rule.applies("bystander", 0)  # no substring match
        assert FaultRule("task.transient").applies("anything", 0)  # "*"

    def test_installed_sets_and_restores_env(self):
        plan = FaultPlan([FaultRule("task.transient")])
        assert os.environ.get(ENV_VAR) is None
        with plan.installed():
            assert active_plan() is not None
            assert active_plan().rules == plan.rules
        assert os.environ.get(ENV_VAR) is None
        assert active_plan() is None

    def test_task_boundary_is_a_noop_without_a_plan(self):
        task_boundary("anything", 0)  # must not raise

    def test_task_boundary_raises_transient_on_injected_attempts(self):
        plan = FaultPlan([FaultRule("task.transient", match="victim", times=1)])
        with plan.installed():
            with pytest.raises(InjectedFault, match="attempt 0"):
                task_boundary("victim", 0)
            task_boundary("victim", 1)  # the retry sails through
            task_boundary("bystander", 0)

    def test_worker_kill_never_fires_in_the_owning_process(self):
        # the safety gate: a kill rule in the process that installed the
        # plan must be inert, or a chaos test could take pytest down
        plan = FaultPlan([FaultRule("worker.kill", match="victim")])
        with plan.installed():
            task_boundary("victim", 0)  # still alive iff the gate holds

    def test_jittered_delay_is_deterministic_and_bounded(self):
        plan = FaultPlan([FaultRule("task.latency", delay=1.0)], seed=3)
        rule = plan.rules[0]
        once = plan.jittered_delay(rule, "some-task")
        assert once == plan.jittered_delay(rule, "some-task")
        assert 1.0 <= once <= 1.1
        assert plan.jittered_delay(rule, "other-task") != once


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(backoff=0.1, backoff_factor=2.0, jitter=0.0, max_delay=0.3)
        assert policy.delay("k", 1) == pytest.approx(0.1)
        assert policy.delay("k", 2) == pytest.approx(0.2)
        assert policy.delay("k", 5) == 0.3  # capped

    def test_jitter_is_deterministic_per_key(self):
        policy = RetryPolicy(backoff=0.1, jitter=0.5)
        assert policy.delay("a", 1) == policy.delay("a", 1)
        assert policy.delay("a", 1) != policy.delay("b", 1)


# -- chaos: pool backends ---------------------------------------------------------


@pytest.mark.chaos
class TestPoolChaos:
    def test_worker_kill_is_healed_and_results_identical(self, scratch_algorithms):
        # victim first: broken futures settle in submit order, so the kill
        # is deterministically charged to the victim, not the sleeper
        tasks = [
            _value_task("victim", x=2.0),
            _value_task("sleeper", x=3.0, sleep=1.0),
            _value_task("child", x=5.0, depends_on=("victim",)),
        ]
        baseline = _serial_baseline(tasks)
        plan = FaultPlan([FaultRule("worker.kill", match="victim", times=1)])
        engine = AnalysisEngine(ProcessPoolScheduler(jobs=2))
        with plan.installed():
            try:
                results = engine.run(tasks)
            finally:
                engine.close()
        assert {tid: canon(r) for tid, r in results.items()} == baseline
        assert engine.degradation.count("pool-rebuild") == 1
        assert engine.degradation.count("backend-switch") == 0

    def test_transient_fault_is_retried_to_identical_result(self, scratch_algorithms):
        tasks = [_value_task("flaky", x=4.0), _value_task("steady", x=1.0)]
        baseline = _serial_baseline(tasks)
        plan = FaultPlan([FaultRule("task.transient", match="flaky", times=2)])
        engine = AnalysisEngine(SerialScheduler())
        with plan.installed():
            results = engine.run(tasks)
        engine.close()
        assert {tid: canon(r) for tid, r in results.items()} == baseline
        retries = [e for e in engine.degradation.events if e.kind == "retry"]
        assert len(retries) == 2
        assert all(e.task_id == "flaky" for e in retries)

    def test_retries_exhausted_fails_with_attempt_count(self, scratch_algorithms):
        plan = FaultPlan([FaultRule("task.transient", match="doomed", times=99)])
        engine = AnalysisEngine(SerialScheduler())  # no fallbacks to hide behind
        with plan.installed():
            with pytest.raises(TaskError, match="failed after 3 attempt"):
                engine.run([_value_task("doomed")])
        engine.close()

    def test_degradation_chain_pool_to_serial(self, scratch_algorithms):
        # the kill rule never stops firing, so the pool backend can never
        # finish the victim; the engine must burn its rebuild budget, fall
        # back to serial (where worker.kill is inert by design) and still
        # produce the fault-free results
        tasks = [
            _value_task("victim", x=2.0),
            _value_task("sleeper", x=3.0, sleep=1.5),
        ]
        baseline = _serial_baseline(tasks)
        plan = FaultPlan([FaultRule("worker.kill", match="victim", times=99)])
        engine = AnalysisEngine(
            ProcessPoolScheduler(jobs=2),
            fallbacks=[SerialScheduler],
            max_pool_rebuilds=1,
        )
        with plan.installed():
            try:
                results = engine.run(tasks)
            finally:
                engine.close()
        assert {tid: canon(r) for tid, r in results.items()} == baseline
        assert engine.degradation.count("backend-switch") == 1
        switch = [e for e in engine.degradation.events if e.kind == "backend-switch"][0]
        assert switch.backend == "pool -> serial"

    def test_deadline_expiry_is_retried_to_identical_result(self, scratch_algorithms):
        # injected latency (5 s) on the victim's first attempt only; the
        # 0.6 s deadline expires it, the rebuild reclaims the sleeping
        # worker, and the retry — without latency — matches the baseline
        tasks = [_value_task("slowpoke", x=2.0), _value_task("quick", x=1.0)]
        baseline = _serial_baseline(tasks)
        plan = FaultPlan(
            [FaultRule("task.latency", match="slowpoke", times=1, delay=5.0)]
        )
        engine = AnalysisEngine(ProcessPoolScheduler(jobs=2), task_timeout=0.6)
        start = time.monotonic()
        with plan.installed():
            try:
                results = engine.run(tasks)
            finally:
                engine.close()
        assert time.monotonic() - start < 10.0  # far less than the 5 s sleep x3
        assert {tid: canon(r) for tid, r in results.items()} == baseline
        retries = [e for e in engine.degradation.events if e.kind == "retry"]
        assert any("deadline" in e.detail for e in retries)

    def test_deadlines_exhausted_raise_timeout_error(self, scratch_algorithms):
        plan = FaultPlan(
            [FaultRule("task.latency", match="glacial", times=99, delay=5.0)]
        )
        engine = AnalysisEngine(
            ProcessPoolScheduler(jobs=2),
            task_timeout=0.3,
            retry_policy=RetryPolicy(retries=1),
        )
        tasks = [_value_task("glacial"), _value_task("companion", sleep=0.05)]
        start = time.monotonic()
        with plan.installed():
            with pytest.raises(TaskTimeoutError, match="failed after 2 attempt"):
                try:
                    engine.run(tasks)
                finally:
                    engine.close()
        assert time.monotonic() - start < 10.0


# -- chaos: retry determinism (results and cache) ---------------------------------


@pytest.mark.chaos
class TestRetryDeterminism:
    def test_faulted_pool_run_matches_clean_serial_run_and_cache(
        self, scratch_algorithms, tmp_path
    ):
        def tasks():
            return [
                _value_task("det/a", x=2.0, cacheable=True),
                _value_task("det/b", x=3.0, depends_on=("det/a",), cacheable=True),
                _value_task("det/c", x=5.0, cacheable=True),
            ]

        clean_cache = ResultCache(tmp_path / "clean")
        baseline = _serial_baseline(tasks(), cache=clean_cache)

        chaos_cache = ResultCache(tmp_path / "chaos")
        plan = FaultPlan(
            [
                FaultRule("worker.kill", match="det/a", times=1),
                FaultRule("task.transient", match="det/b", times=1),
                FaultRule("task.latency", match="det/c", times=1, delay=0.1),
            ]
        )
        engine = AnalysisEngine(ProcessPoolScheduler(jobs=2), cache=chaos_cache)
        with plan.installed():
            try:
                results = engine.run(tasks())
            finally:
                engine.close()
        assert {tid: canon(r) for tid, r in results.items()} == baseline

        clean_keys = {p.name for p in (tmp_path / "clean").glob("*.pkl")}
        chaos_keys = {p.name for p in (tmp_path / "chaos").glob("*.pkl")}
        assert clean_keys == chaos_keys and len(clean_keys) == 3
        for name in clean_keys:
            key = name[: -len(".pkl")]
            assert canon(clean_cache.get(key)) == canon(chaos_cache.get(key))

    def test_real_synthesis_retry_is_bit_identical(self):
        # the paper-facing acceptance check: a Hoeffding synthesis whose
        # first attempt is killed by an injected transient re-runs to the
        # same certificate a fault-free engine produces
        spec = ProgramSpec.from_source(RACE_SOURCE, name="chaos-race")
        task = AnalysisTask.make("hoeffding", spec, task_id="chaos/race")
        clean_engine = AnalysisEngine(SerialScheduler())
        baseline = canon(clean_engine.run_inline(task))
        clean_engine.close()

        plan = FaultPlan([FaultRule("task.transient", match="chaos/race", times=1)])
        engine = AnalysisEngine(SerialScheduler())
        with plan.installed():
            retried = canon(engine.run_inline(task))
        engine.close()
        assert retried == baseline
        assert engine.degradation.count("retry") == 1
