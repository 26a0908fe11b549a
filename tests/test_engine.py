"""Tests for the unified analysis engine (task graph + schedulers + cache).

The load-bearing properties:

* **scheduler determinism** — serial and process-pool execution produce
  bit-identical certificates/bounds (the scheduler may only change
  wall-clock time, never results);
* **one task, one process** — a Hoeffding synthesis solves its few Ser
  LPs in sequence inside its own task (no probe subtasks), so a pooled
  Hoeffding result is the serial one, pinned by the family-wide
  scheduler-determinism test;
* **cache correctness** — unchanged task hashes hit, changed parameters
  miss, and replayed results equal fresh ones;
* **worker clamping** — ``jobs=0``/oversized pools never spawn more
  processes than there are runnable tasks.
"""


import pytest

from repro.errors import EngineError
from repro.engine import (
    AnalysisEngine,
    AnalysisTask,
    ProcessPoolScheduler,
    ProgramSpec,
    ResultCache,
    SerialScheduler,
    execute_task,
    make_scheduler,
)

RACE = """\
x := 40
y := 0
while x <= 99 and y <= 99:
    if prob(0.5):
        x, y := x + 1, y + 2
    else:
        x := x + 1
assert x >= 100
"""

CHAIN = """\
const p = 0.01
i := 0
while i <= 9:
    if prob(1 - p):
        i := i + 1
    else:
        exit
assert false
"""

#: a symmetric walk with no ranking supermartingale: ExpLowSyn cannot
#: prove termination and fails with ``SynthesisError``
WALK = """\
x := 0
while x <= 10:
    if prob(0.5):
        x := x + 1
    else:
        x := x - 1
assert x <= 5
"""

RACE_SPEC = ProgramSpec.from_source(RACE, name="race")
CHAIN_SPEC = ProgramSpec.from_source(CHAIN, name="chain")
WALK_SPEC = ProgramSpec.from_source(WALK, name="walk")


def family_tasks():
    """One task per synthesis family, on small programs."""
    return [
        AnalysisTask.make("hoeffding", RACE_SPEC, task_id="hoeffding"),
        AnalysisTask.make("explinsyn", RACE_SPEC, task_id="explinsyn"),
        AnalysisTask.make("explowsyn", CHAIN_SPEC, task_id="explowsyn"),
    ]


@pytest.mark.smoke
class TestTaskIdentity:
    def test_cache_key_deterministic(self):
        a = AnalysisTask.make("explowsyn", CHAIN_SPEC)
        b = AnalysisTask.make("explowsyn", ProgramSpec.from_source(CHAIN, name="chain"))
        assert a.cache_key == b.cache_key

    def test_cache_key_sensitive_to_content(self):
        base = AnalysisTask.make("explowsyn", CHAIN_SPEC)
        keys = {
            base.cache_key,
            AnalysisTask.make("explinsyn", CHAIN_SPEC).cache_key,
            AnalysisTask.make("explowsyn", RACE_SPEC).cache_key,
            AnalysisTask.make(
                "explowsyn", CHAIN_SPEC, params={"verify": False}
            ).cache_key,
        }
        assert len(keys) == 4

    def test_task_ids_default_to_key_prefix(self):
        task = AnalysisTask.make("explowsyn", CHAIN_SPEC)
        assert task.task_id == task.cache_key[:16]

    def test_tasks_are_picklable(self):
        import pickle

        task = AnalysisTask.make("hoeffding", RACE_SPEC, params={"eps_cap": 10.0})
        clone = pickle.loads(pickle.dumps(task))
        assert clone == task and clone.cache_key == task.cache_key


@pytest.mark.smoke
class TestGraphValidation:
    def test_unknown_algorithm_is_an_error_result(self):
        result = execute_task(AnalysisTask.make("frobnicate", CHAIN_SPEC))
        assert not result.ok and result.error_type == "EngineError"

    def test_duplicate_ids_rejected(self):
        tasks = [
            AnalysisTask.make("explowsyn", CHAIN_SPEC, task_id="dup"),
            AnalysisTask.make("explinsyn", CHAIN_SPEC, task_id="dup"),
        ]
        with pytest.raises(EngineError, match="duplicate"):
            AnalysisEngine().run(tasks)

    def test_missing_dependency_rejected(self):
        task = AnalysisTask.make(
            "explowsyn", CHAIN_SPEC, task_id="t", depends_on=("ghost",)
        )
        with pytest.raises(EngineError, match="unknown"):
            AnalysisEngine().run([task])

    def test_cycle_rejected(self):
        tasks = [
            AnalysisTask.make("explowsyn", CHAIN_SPEC, task_id="a", depends_on=("b",)),
            AnalysisTask.make("explowsyn", CHAIN_SPEC, task_id="b", depends_on=("a",)),
        ]
        with pytest.raises(EngineError, match="cycle"):
            AnalysisEngine().run(tasks)

    def test_synthesis_failure_becomes_error_result(self):
        result = AnalysisEngine().run_inline(AnalysisTask.make("explowsyn", WALK_SPEC))
        assert not result.ok and result.error_type == "SynthesisError"


class TestSchedulerDeterminism:
    def test_process_pool_matches_serial_across_families(self):
        tasks = family_tasks()
        serial = AnalysisEngine(SerialScheduler()).map(tasks)
        with ProcessPoolScheduler(jobs=2) as scheduler:
            pooled = AnalysisEngine(scheduler).map(tasks)
        for s, p in zip(serial, pooled):
            assert s.ok and p.ok
            assert s.log_bound == p.log_bound  # bit-identical
            assert s.template_renders == p.template_renders


@pytest.mark.smoke
class TestWorkerClamping:
    def test_pool_never_wider_than_batch(self):
        scheduler = ProcessPoolScheduler(jobs=5)
        try:
            futures = [scheduler.submit(abs, item, width_hint=2) for item in (-1, 2)]
            assert [f.result() for f in futures] == [1, 2]
            # workers fork on demand: a 2-task batch can never have forked
            # more than 2 processes, however generous --jobs is
            assert 1 <= scheduler.resolved_workers <= 2
        finally:
            scheduler.close()

    def test_jobs_zero_resolves_to_cpu_count(self):
        import os

        scheduler = ProcessPoolScheduler(jobs=0)
        assert scheduler.jobs == (os.cpu_count() or 1)
        scheduler.close()

    def test_single_item_runs_in_process(self):
        scheduler = ProcessPoolScheduler(jobs=4)
        try:
            assert scheduler.submit(abs, -7, width_hint=1).result() == 7
            assert scheduler.resolved_workers == 0  # no pool was forked
        finally:
            scheduler.close()

    def test_make_scheduler(self):
        assert isinstance(make_scheduler(1), SerialScheduler)
        assert isinstance(make_scheduler(-1), SerialScheduler)  # legacy runner contract
        pool = make_scheduler(3)
        assert isinstance(pool, ProcessPoolScheduler) and pool.jobs == 3
        pool.close()
        assert isinstance(make_scheduler(0), ProcessPoolScheduler)


@pytest.mark.smoke
class TestResultCache:
    def test_unchanged_hash_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        engine = AnalysisEngine(SerialScheduler(), cache=cache)
        task = AnalysisTask.make("explowsyn", CHAIN_SPEC)
        fresh = engine.run_inline(task)
        replay = engine.run_inline(task)
        assert fresh.ok and not fresh.cached
        assert replay.cached
        assert replay.log_bound == fresh.log_bound
        assert replay.template_renders == fresh.template_renders
        assert cache.hits == 1 and cache.stores == 1

    def test_changed_params_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        engine = AnalysisEngine(SerialScheduler(), cache=cache)
        engine.run_inline(AnalysisTask.make("explowsyn", CHAIN_SPEC))
        other = engine.run_inline(
            AnalysisTask.make("explowsyn", CHAIN_SPEC, params={"verify": False})
        )
        assert not other.cached

    def test_error_results_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        engine = AnalysisEngine(SerialScheduler(), cache=cache)
        task = AnalysisTask.make("explowsyn", WALK_SPEC)
        assert not engine.run_inline(task).ok
        assert not engine.run_inline(task).cached  # re-executed, not replayed

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        task = AnalysisTask.make("explowsyn", CHAIN_SPEC)
        (tmp_path / "cache").mkdir()
        (tmp_path / "cache" / f"{task.cache_key}.pkl").write_bytes(b"not a pickle")
        assert cache.get(task.cache_key) is None



class TestTableHarnessOnEngine:
    def test_table1_row_tasks_are_independent(self):
        from repro.experiments.table1 import row_tasks

        tasks = row_tasks("Race", dict(x0=40, y0=0), "(40,0)", with_baseline=False)
        assert [t.algorithm for t in tasks] == ["hoeffding", "explinsyn"]
        assert all(t.depends_on == () and t.params == () for t in tasks)
        results = AnalysisEngine().run(tasks)
        sec51, sec52 = (results[t.task_id] for t in tasks)
        assert sec51.ok and sec52.ok
        # completeness: the complete algorithm is at least as tight as the
        # Hoeffding certificate, which lies in its template class
        assert sec52.log_bound <= sec51.log_bound + 1e-9

    def test_table4_replays_table1_sec52_solves(self):
        # the symbolic appendix's explinsyn task and Table 1's sec5.2 task
        # are one computation, so a shared cache serves one from the other
        from repro.experiments.table1 import row_tasks

        _, sec52, _ = row_tasks("Race", dict(x0=40, y0=0), "(40,0)")
        table4 = AnalysisTask.make("explinsyn", ProgramSpec.benchmark("Race", x0=40, y0=0))
        assert sec52.cache_key == table4.cache_key

    def test_table2_serial_and_pooled_rows_identical(self):
        from repro.experiments.table2 import TABLE2_SPECS, format_table2, run_table2

        specs = [s for s in TABLE2_SPECS if s[0] == "M1DWalk"][:2]
        serial = run_table2(specs=specs)
        pooled = run_table2(specs=specs, jobs=2)
        assert [r.sec6_ln for r in serial] == [r.sec6_ln for r in pooled]
        for row in serial + pooled:
            row.sec6_seconds = 0.0  # wall time is the one legitimate difference
        assert format_table2(serial) == format_table2(pooled)

    def test_symbolic_serial_and_pooled_bytes_identical(self):
        from repro.experiments.symbolic_tables import (
            format_symbolic,
            run_symbolic_tables,
        )

        specs1 = [("Race", dict(x0=40, y0=0), "(40,0)")]
        specs2 = [("M1DWalk", dict(p="1e-4"), "p=1e-4")]
        serial = run_symbolic_tables(specs1=specs1, specs2=specs2)
        pooled = run_symbolic_tables(specs1=specs1, specs2=specs2, jobs=2)
        assert format_symbolic(serial) == format_symbolic(pooled)


@pytest.mark.smoke
class TestBenchRegressionGate:
    def test_best_recorded_sparse_seconds(self, tmp_path):
        import json

        from repro.experiments.fixpoint_bench import best_recorded_sparse_seconds

        path = tmp_path / "bench.json"
        assert best_recorded_sparse_seconds(path, "gambler", 100) is None
        path.write_text(
            json.dumps(
                {
                    "runs": [
                        {"results": [
                            {"program": "gambler", "max_states": 100,
                             "sparse_seconds": 0.5},
                            {"program": "gambler", "max_states": 200,
                             "sparse_seconds": 0.1},
                        ]},
                        {"results": [
                            {"program": "gambler", "max_states": 100,
                             "sparse_seconds": 0.3},
                        ]},
                    ]
                }
            )
        )
        # best across runs, matching on program AND state budget
        assert best_recorded_sparse_seconds(path, "gambler", 100) == 0.3
        assert best_recorded_sparse_seconds(path, "gambler", 200) == 0.1
        assert best_recorded_sparse_seconds(path, "other", 100) is None
        path.write_text("not json")
        assert best_recorded_sparse_seconds(path, "gambler", 100) is None
