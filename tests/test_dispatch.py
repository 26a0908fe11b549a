"""Completion-driven dispatch and pool lifecycle.

The load-bearing properties, in order of importance:

* **pipelining** — one artificially slow task must not delay an
  independent dependency chain (the acceptance criterion of the
  completion-driven rewrite; the old wave barrier fails this by
  construction);
* **crash containment** — a worker process dying mid-task surfaces a
  :class:`TaskError` instead of hanging the ready-set;
* **interrupt hygiene** — a ``KeyboardInterrupt`` during dispatch cancels
  queued work and shuts the pool down;
* **one clamp** — ``jobs`` semantics (``0`` = per CPU, negatives rejected)
  live only in :func:`repro.engine.scheduler.resolve_jobs`.

The ``t_*`` helper algorithms below are registered into ``ALGORITHMS`` by
a fixture; pool workers are forked, so they inherit the registration and
can re-import this module by its pytest-inserted top-level name.
"""

import os
import time

import pytest

from repro.errors import TaskError
from repro.engine import (
    AnalysisEngine,
    AnalysisTask,
    ProcessPoolScheduler,
    ProgramSpec,
    SerialScheduler,
    resolve_jobs,
)
from repro.engine.task import CertificateResult

SPEC = ProgramSpec.from_source("x := 0\nassert false", name="dispatch-dummy")


# -- helper algorithms (must be module-level: workers resolve them by name) -------


def synthesize_sleep(task, deps=None, engine=None):
    time.sleep(float(task.param("seconds", 0.0)))
    return CertificateResult(
        algorithm=task.algorithm,
        status="ok",
        details={"finished_at": time.time(), "deps_seen": sorted(deps or {})},
    )


def synthesize_crash(task, deps=None, engine=None):
    os._exit(13)  # simulate a segfault/OOM kill: no Python unwinding


def synthesize_interrupt(task, deps=None, engine=None):
    raise KeyboardInterrupt


def synthesize_touch(task, deps=None, engine=None):
    with open(task.param("path"), "w") as fh:
        fh.write("ran")
    return CertificateResult(algorithm=task.algorithm, status="ok")


def _double(payload):
    return 2 * payload


def _slow_double(payload):
    time.sleep(1.5)
    return 2 * payload


@pytest.fixture
def scratch_algorithms():
    from repro.engine import engine as engine_mod

    added = {
        "t_sleep": "test_dispatch:synthesize_sleep",
        "t_crash": "test_dispatch:synthesize_crash",
        "t_interrupt": "test_dispatch:synthesize_interrupt",
        "t_touch": "test_dispatch:synthesize_touch",
    }
    engine_mod.ALGORITHMS.update(added)
    yield
    for name in added:
        engine_mod.ALGORITHMS.pop(name, None)
        engine_mod._RESOLVED.pop(name, None)


def _sleep_task(task_id, seconds, depends_on=()):
    return AnalysisTask.make(
        "t_sleep",
        SPEC,
        params={"seconds": seconds, "tag": task_id},
        task_id=task_id,
        depends_on=depends_on,
        cacheable=False,
    )


class TestCompletionDrivenDispatch:
    def test_slow_task_does_not_delay_independent_chain(self, scratch_algorithms):
        # DAG: `slow` (wave 1, 2 s) alongside the chain a -> b (~0.1 s).
        # Under the old wave barrier, b could not start before slow
        # finished; completion-driven dispatch finishes the chain while
        # slow is still running.
        slow = _sleep_task("slow", 2.0)
        a = _sleep_task("a", 0.05)
        b = _sleep_task("b", 0.05, depends_on=("a",))
        with ProcessPoolScheduler(jobs=2) as scheduler:
            results = AnalysisEngine(scheduler).run([slow, a, b])
        assert all(r.ok for r in results.values())
        assert (
            results["b"].details["finished_at"]
            < results["slow"].details["finished_at"]
        )

    def test_dependencies_are_delivered(self, scratch_algorithms):
        a = _sleep_task("a", 0.0)
        b = _sleep_task("b", 0.0, depends_on=("a",))
        results = AnalysisEngine(SerialScheduler()).run([b, a])
        assert results["b"].details["deps_seen"] == ["a"]

    def test_worker_crash_surfaces_task_error(self, scratch_algorithms):
        boom = AnalysisTask.make("t_crash", SPEC, task_id="boom", cacheable=False)
        with ProcessPoolScheduler(jobs=2) as scheduler:
            with pytest.raises(TaskError, match="worker process died"):
                AnalysisEngine(scheduler).run([boom, _sleep_task("ok", 0.0)])

    def test_keyboard_interrupt_shuts_pool_down(self, scratch_algorithms):
        scheduler = ProcessPoolScheduler(jobs=2)
        tasks = [
            AnalysisTask.make("t_interrupt", SPEC, task_id="ctrl-c", cacheable=False),
            _sleep_task("bystander", 0.05),
        ]
        with pytest.raises(KeyboardInterrupt):
            AnalysisEngine(scheduler).run(tasks)
        # the engine took the pool down on the way out — nothing to leak
        assert scheduler._executor is None
        assert scheduler.resolved_workers == 0

    def test_keyboard_interrupt_serial_propagates(self, scratch_algorithms):
        with pytest.raises(KeyboardInterrupt):
            AnalysisEngine(SerialScheduler()).run(
                [AnalysisTask.make("t_interrupt", SPEC, task_id="c", cacheable=False)]
            )

    def test_keyboard_interrupt_serial_skips_remaining_tasks(
        self, scratch_algorithms, tmp_path
    ):
        # Ctrl-C during an inline (serial) task must surface immediately —
        # not after the ready-set has inline-executed the rest of the table
        witness = tmp_path / "later-task-ran"
        tasks = [
            AnalysisTask.make("t_interrupt", SPEC, task_id="ctrl-c", cacheable=False),
            AnalysisTask.make(
                "t_touch",
                SPEC,
                params={"path": str(witness)},
                task_id="later",
                cacheable=False,
            ),
        ]
        with pytest.raises(KeyboardInterrupt):
            AnalysisEngine(SerialScheduler()).run(tasks)
        assert not witness.exists()

    def test_single_task_and_linear_chain_never_fork_a_pool(
        self, scratch_algorithms
    ):
        scheduler = ProcessPoolScheduler(jobs=4)
        try:
            engine = AnalysisEngine(scheduler)
            engine.run([_sleep_task("only", 0.0)])
            assert scheduler.resolved_workers == 0  # ran inline
            chain = [
                _sleep_task("c1", 0.0),
                _sleep_task("c2", 0.0, depends_on=("c1",)),
                _sleep_task("c3", 0.0, depends_on=("c2",)),
            ]
            results = engine.run(chain)
            assert scheduler.resolved_workers == 0  # width-1 throughout
            assert all(r.ok for r in results.values())
        finally:
            scheduler.close()


class TestPoolRegrow:
    def test_regrow_handover_does_not_block_on_running_tasks(self):
        # a wider batch arriving while a narrow pool is busy must not wait
        # for the running task: the old pool drains in the background
        scheduler = ProcessPoolScheduler(jobs=3)
        try:
            slow = scheduler.submit(_slow_double, 1, width_hint=2)
            start = time.monotonic()
            quick = [scheduler.submit(_double, i, width_hint=3) for i in range(3)]
            assert [f.result() for f in quick] == [0, 2, 4]
            assert time.monotonic() - start < 1.2  # not serialized behind slow
            assert slow.result() == 2  # the drained pool still delivered
        finally:
            scheduler.close()


@pytest.mark.smoke
class TestJobsClampSingleSource:
    def test_resolve_jobs_contract(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7
        with pytest.raises(ValueError, match="jobs"):
            resolve_jobs(-1)

    def test_every_pool_backend_uses_it(self):
        assert ProcessPoolScheduler(jobs=0).jobs == resolve_jobs(0)
        with pytest.raises(ValueError):
            ProcessPoolScheduler(jobs=-2)
