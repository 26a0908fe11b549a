"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main

RACE = """
x := 40
y := 0
while x <= 99 and y <= 99:
    if prob(0.5):
        x, y := x + 1, y + 2
    else:
        x := x + 1
assert x >= 100
"""

CHAIN = """
const p = 0.01
i := 0
while i <= 9:
    if prob(1 - p):
        i := i + 1
    else:
        exit
assert false
"""


@pytest.fixture
def race_file(tmp_path):
    f = tmp_path / "race.prob"
    f.write_text(RACE)
    return str(f)


@pytest.fixture
def chain_file(tmp_path):
    f = tmp_path / "chain.prob"
    f.write_text(CHAIN)
    return str(f)


class TestCompile:
    def test_prints_pts(self, race_file, capsys):
        assert main(["compile", race_file]) == 0
        out = capsys.readouterr().out
        assert "program vars : x, y" in out
        assert "w.p. 1/2" in out

    def test_validate_flag(self, race_file, capsys):
        assert main(["compile", race_file, "--validate"]) == 0
        assert "validation: ok" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["compile", "/nonexistent.prob"]) == 1
        assert "error" in capsys.readouterr().err

    def test_parse_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.prob"
        bad.write_text("x := := 1")
        assert main(["compile", str(bad)]) == 1
        assert "error" in capsys.readouterr().err


class TestAnalyze:
    def test_upper_default(self, race_file, capsys):
        assert main(["analyze", race_file]) == 0
        out = capsys.readouterr().out
        assert "upper bound (explinsyn)" in out
        assert "e-07" in out

    def test_hoeffding_method(self, race_file, capsys):
        assert main(["analyze", race_file, "--method", "hoeffding"]) == 0
        out = capsys.readouterr().out
        assert "upper bound (hoeffding)" in out

    def test_lower(self, chain_file, capsys):
        assert main(["analyze", chain_file, "--lower"]) == 0
        out = capsys.readouterr().out
        assert "lower bound (explowsyn)" in out
        assert "almost-sure termination proved" in out

    def test_upper_and_lower(self, chain_file, capsys):
        assert main(["analyze", chain_file, "--upper", "--lower"]) == 0
        out = capsys.readouterr().out
        assert "upper bound" in out and "lower bound" in out


class TestSimulateExact:
    def test_simulate(self, race_file, capsys):
        assert main(["simulate", race_file, "--episodes", "500"]) == 0
        out = capsys.readouterr().out
        assert "violation rate" in out
        assert "episodes            : 500" in out

    def test_exact(self, race_file, capsys):
        assert main(["exact", race_file]) == 0
        out = capsys.readouterr().out
        assert "vpf bracket" in out
        assert "truncated" not in out.split("vpf")[0] or True

    def test_exact_truncation_reported(self, chain_file, capsys):
        assert main(["exact", chain_file, "--max-states", "100000"]) == 0
        out = capsys.readouterr().out
        assert "vpf bracket" in out

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_exact_rejects_a_budget_below_one(self, race_file, budget, capsys):
        # a budget of 0 used to print "explored states : 2 (truncated)"
        with pytest.raises(SystemExit) as exc:
            main(["exact", race_file, "--max-states", budget, "--explore", "scaled"])
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    def test_bench_rejects_a_budget_below_one(self, capsys):
        # 0 used to mean "each workload's own budget", and a negative
        # budget reached the explorer
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--max-states", "-5", "--skip-reference"])
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    def test_exact_rejects_the_deleted_int64_mode(self, race_file, capsys):
        # one lattice explorer: integer programs run on it at scale 1
        with pytest.raises(SystemExit) as exc:
            main(["exact", race_file, "--explore", "int64"])
        assert exc.value.code == 2
        assert "invalid choice: 'int64'" in capsys.readouterr().err
        assert main(["exact", race_file, "--explore", "scaled"]) == 0
        assert "vpf bracket" in capsys.readouterr().out


class TestAnalyzeEngineFlags:
    def test_cache_replays_analysis(self, race_file, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache_dir = str(tmp_path / "cache")
        assert main(["analyze", race_file, "--cache", cache_dir]) == 0
        first = capsys.readouterr().out
        assert main(["analyze", race_file, "--cache", cache_dir]) == 0
        second = capsys.readouterr().out
        assert "(cached)" not in first and "(cached)" in second
        assert first.splitlines()[0] == second.splitlines()[0]  # same bound


class TestSharedEngineArgs:
    """The engine options ``analyze`` and the runner share: flags, then the
    ``REPRO_*`` env fallbacks, then the engine defaults.  ``--jobs`` is the
    runner's alone."""

    @pytest.fixture(autouse=True)
    def clean_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_TASK_TIMEOUT", raising=False)
        monkeypatch.delenv("REPRO_RETRIES", raising=False)

    @staticmethod
    def engine(*flags):
        from repro.cli import build_parser
        from repro.engine.args import engine_from_args

        return engine_from_args(build_parser().parse_args(["analyze", "p.prob", *flags]))

    @staticmethod
    def runner_engine(*flags):
        import argparse

        from repro.engine.args import add_engine_args, engine_from_args

        parser = argparse.ArgumentParser()
        add_engine_args(parser, jobs_help="workers")
        return engine_from_args(parser.parse_args(list(flags)))

    def test_jobs_one_is_serial_without_fallbacks(self):
        from repro.engine import SerialScheduler

        engine = self.runner_engine("--jobs", "1")
        assert isinstance(engine.scheduler, SerialScheduler)
        assert engine._fallbacks == []

    def test_analyze_runs_serially_without_a_jobs_flag(self):
        from repro.engine import SerialScheduler

        assert isinstance(self.engine().scheduler, SerialScheduler)
        with pytest.raises(SystemExit):
            self.engine("--jobs", "2")

    def test_jobs_two_is_a_pool_falling_back_to_serial(self):
        from repro.engine import ProcessPoolScheduler, SerialScheduler

        with self.runner_engine("--jobs", "2") as engine:
            assert isinstance(engine.scheduler, ProcessPoolScheduler)
            assert engine.scheduler.jobs == 2
            assert engine._fallbacks == [SerialScheduler]

    def test_task_timeout_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "5")
        assert self.engine().task_timeout == 5.0

    def test_task_timeout_zero_disables_deadlines_despite_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "5")
        assert self.engine("--task-timeout", "0").task_timeout is None

    def test_non_numeric_env_retries_keeps_default_policy(self, monkeypatch, capsys):
        from repro.engine import RetryPolicy

        monkeypatch.setenv("REPRO_RETRIES", "abc")
        assert self.engine().retry_policy == RetryPolicy()
        assert "note: ignoring non-numeric" in capsys.readouterr().err

    def test_negative_retries_clamp_to_zero(self):
        assert self.engine("--retries", "-1").retry_policy.retries == 0


@pytest.mark.smoke
class TestSelftest:
    def test_all_families_pass(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        for family in ("hoeffding", "explinsyn", "explowsyn"):
            assert family in out
        assert "3/3 families ok" in out


@pytest.mark.chaos
def test_selftest_finishes_serially_when_the_pool_keeps_dying(capsys):
    # every pool attempt is killed: the run must walk pool -> serial and
    # still pass, like analyze, runner and fuzz do
    from repro.engine import FaultPlan, FaultRule

    plan = FaultPlan([FaultRule("worker.kill", match="selftest/", times=99)])
    with plan.installed():
        assert main(["selftest", "--jobs", "2"]) == 0
    assert "3/3 families ok" in capsys.readouterr().out


class TestBench:
    def test_skip_reference_appends_one_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "trajectory.json"
        earlier = {"timestamp": "earlier", "results": []}
        out.write_text(json.dumps({"runs": [earlier]}))
        argv = ["bench", "--skip-reference", "--max-states", "200", "--out", str(out)]
        assert main(argv) == 0
        runs = json.loads(out.read_text())["runs"]
        assert len(runs) == 2 and runs[0] == earlier
        run = runs[1]
        assert run["host"] and run["source"] == "repro bench"
        assert len(run["results"]) == 13
        for entry in run["results"]:
            assert entry["max_states"] == 200 and "reference_seconds" not in entry
            assert 0.0 <= entry["lower"] <= entry["upper"] <= 1.0, entry["program"]
        assert [p.name for p in tmp_path.iterdir()] == ["trajectory.json"]
        assert "perf trajectory appended" in capsys.readouterr().out


class TestCache:
    @pytest.fixture(autouse=True)
    def _no_env_budget(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_MAX_BYTES", raising=False)

    def _populate(self, directory):
        from repro.engine import AnalysisEngine, AnalysisTask, ProgramSpec, ResultCache

        spec = ProgramSpec.from_source(CHAIN, name="cli-cache")
        with AnalysisEngine(cache=ResultCache(directory)) as engine:
            for algorithm in ("exact", "hoeffding"):
                assert engine.run_inline(AnalysisTask.make(algorithm, spec)).ok
        return sorted(p.name for p in directory.iterdir() if p.suffix == ".pkl")

    def test_stats_on_an_empty_directory(self, tmp_path, capsys):
        assert main(["cache", "stats", "--dir", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "entries         : 0" in out
        assert "total size      : 0 B" in out
        assert "byte budget     : unbounded" in out

    def test_stats_and_gc_on_a_populated_directory(self, tmp_path, capsys):
        directory = tmp_path / "c"
        entries = self._populate(directory)
        assert len(entries) == 2
        assert main(["cache", "stats", "--dir", str(directory)]) == 0
        out = capsys.readouterr().out
        assert "entries         : 2" in out
        assert "certificates    : 1 of 2 entries (1 without)" in out
        assert main(["cache", "gc", "--dir", str(directory), "--max-bytes", "1"]) == 0
        assert "evicted 2 entries" in capsys.readouterr().out
        assert not [p for p in directory.iterdir() if p.suffix == ".pkl"]

    @pytest.mark.parametrize("budget", [[], ["--max-bytes", "bogus"]], ids=["unset", "bogus"])
    def test_gc_needs_a_valid_budget(self, tmp_path, capsys, budget):
        assert main(["cache", "gc", "--dir", str(tmp_path / "c"), *budget]) == 2
        assert capsys.readouterr().err.startswith("error: ")
