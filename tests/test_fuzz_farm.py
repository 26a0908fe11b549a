"""The differential-fuzzing farm: grid, oracles, shrinking, archiving.

The seeded smoke slice (`-m fuzz_smoke`) is the PR-blocking tier; the
nightly bench workflow runs the open-ended budgeted farm on fresh seeds
(``tools/run_fuzz_farm.py``).
"""

import json

import pytest

from repro.fuzz import (
    GENERATOR_VERSION,
    check_source,
    cross_check_cells,
    generate,
    run_farm,
    shrink_source,
)
from repro.cli import main

pytestmark = pytest.mark.fuzz_smoke


def _ok_cell(explore, solver, lower, upper, states=10, truncated=False):
    return {
        "explore": explore,
        "solver": solver,
        "expected": "ok",
        "ok": True,
        "error": "",
        "error_type": "",
        "lower": lower,
        "upper": upper,
        "states": states,
        "iterations": 5,
        "truncated": truncated,
        "certified": True,
        "explorer": explore,
    }


class TestCrossCheck:
    """Unit drills: every oracle must fire on a synthetic violation."""

    def test_clean_cells_pass(self):
        cells = [
            _ok_cell("fraction", "sweep", 0.25, 0.25),
            _ok_cell("scaled", "sweep", 0.25, 0.25),
        ]
        assert cross_check_cells(cells) == []

    def test_bracket_overlap_violation_detected(self):
        cells = [
            _ok_cell("fraction", "sweep", 0.2, 0.21),
            _ok_cell("scaled", "sweep", 0.4, 0.41),
        ]
        kinds = [k for k, _ in cross_check_cells(cells)]
        assert "bracket-overlap" in kinds

    def test_explorer_divergence_detected(self):
        cells = [
            _ok_cell("fraction", "sweep", 0.25, 0.25, states=10),
            _ok_cell("scaled", "sweep", 0.25, 0.25, states=11),
        ]
        kinds = [k for k, _ in cross_check_cells(cells)]
        assert "explorer-divergence" in kinds

    def test_outward_escape_detected(self):
        cells = [
            _ok_cell("fraction", "sweep", 0.25, 0.25),
            _ok_cell("fraction", "auto", 0.2, 0.3),
        ]
        kinds = [k for k, _ in cross_check_cells(cells)]
        assert "outward-escape" in kinds

    def test_escape_tolerance_is_the_certifier_slack_budget(self):
        from repro.core.solvers import SLACK_CAP
        from repro.fuzz.farm import ESCAPE_TOL

        assert ESCAPE_TOL == SLACK_CAP
        # an escape a few slack budgets wide is a finding, not noise
        cells = [
            _ok_cell("fraction", "sweep", 0.25, 0.25),
            _ok_cell("fraction", "auto", 0.25 - 8 * SLACK_CAP, 0.25),
        ]
        kinds = [k for k, _ in cross_check_cells(cells)]
        assert "outward-escape" in kinds

    def test_admission_mismatch_detected(self):
        ran_anyway = dict(_ok_cell("scaled", "sweep", 0.25, 0.25), expected="refuse")
        kinds = [
            k
            for k, _ in cross_check_cells(
                [ran_anyway], admission_reason="not lattice-admissible"
            )
        ]
        assert "admission-mismatch" in kinds

    def test_refusal_with_wrong_error_type_detected(self):
        cell = {
            "explore": "scaled",
            "solver": "sweep",
            "expected": "refuse",
            "ok": False,
            "error": "boom",
            "error_type": "ValueError",
        }
        kinds = [k for k, _ in cross_check_cells([cell])]
        assert "task-error" in kinds

    def test_runtime_overflow_is_not_a_discrepancy(self):
        cell = {
            "explore": "scaled",
            "solver": "sweep",
            "expected": "ok",
            "ok": False,
            "error": "state values overflowed the int64 frontier limit",
            "error_type": "ModelError",
        }
        assert cross_check_cells([cell]) == []
        assert cell.get("overflow_refusal") is True

    def test_injection_corrupts_the_baseline(self):
        cells = [_ok_cell("fraction", "sweep", 0.25, 0.25)]
        kinds = [k for k, _ in cross_check_cells(cells, inject=True)]
        assert "bracket-overlap" in kinds
        assert cells[0]["injected"] is True


class TestCheckSource:
    def test_clean_program_has_no_findings(self):
        program = generate("inventory", 1)
        assert (
            check_source(program.source, program.integer_mode, max_states=2048) == []
        )

    def test_compile_error_is_a_finding(self):
        kinds = [k for k, _ in check_source("x := (", True, max_states=64)]
        assert kinds == ["compile-error"]

    def test_injection_is_a_finding(self):
        program = generate("birth-death", 1)
        kinds = [
            k
            for k, _ in check_source(
                program.source, program.integer_mode, max_states=2048, inject=True
            )
        ]
        assert "bracket-overlap" in kinds


class TestShrinker:
    def test_shrinks_to_local_minimum(self):
        source = "a := 5\nb := 7\nwhile a >= 1:\n    a := a - 1\nassert b <= 9"
        # predicate: program mentions b in an assert — everything else
        # (the loop, the literals) must shrink away
        shrunk = shrink_source(source, lambda s: "assert b" in s)
        assert shrunk is not None
        assert len(shrunk.split("\n")) < len(source.split("\n"))
        assert "while" not in shrunk
        assert "assert b" in shrunk

    def test_returns_none_when_predicate_never_held(self):
        assert shrink_source("a := 1", lambda s: False) is None

    def test_predicate_exceptions_reject_the_candidate(self):
        # a predicate that crashes on candidates missing line 1 still
        # shrinks literals on the surviving text instead of crashing
        def predicate(s):
            if "a := " not in s:
                raise RuntimeError("boom")
            return True

        shrunk = shrink_source("a := 9\nb := 8", predicate)
        assert shrunk is not None and "a := " in shrunk


class TestFarm:
    def test_smoke_farm_is_clean_and_archives_the_corpus(self, tmp_path):
        report = run_farm(
            seed=5, count=4, jobs=1, max_states=2048, out_dir=tmp_path
        )
        assert report.ok, "\n".join(report.render())
        assert len(report.verdicts) == 4
        assert {v.program.family for v in report.verdicts} == {
            "birth-death",
            "gridworld",
            "inventory",
            "mixed-lattice",
        }
        # every successful run's certificate was verified by the checker
        for verdict in report.verdicts:
            for cell in verdict.cells:
                if cell["ok"]:
                    assert cell.get("cert_ok") is True, cell
        # corpus entries carry the replay triple
        entries = sorted((tmp_path / "corpus").glob("*.json"))
        assert len(entries) == 4
        for path in entries:
            entry = json.loads(path.read_text())
            assert entry["generator_version"] == GENERATOR_VERSION
            assert isinstance(entry["seed"], int)
            assert entry["farm"]["farm_seed"] == 5

    def test_forced_modes_follow_the_admission_differential(self):
        # farm seed 2 draws the over-cap mixed-lattice variant: the
        # checker predicts refusal of the forced lattice mode and the farm
        # confirms it run by run
        report = run_farm(
            seed=2, count=1, families=("mixed-lattice",), jobs=1, max_states=2048
        )
        assert report.ok, "\n".join(report.render())
        verdict = report.verdicts[0]
        assert verdict.program.params["over_cap"] is True
        assert verdict.admission == "none"
        assert verdict.refusals_confirmed == 1  # scaled

    def test_scaled_admission_with_near_cap_multiplier(self):
        # farm seed 9 draws den=999983 — admitted scaled, so no forced
        # mode may refuse
        report = run_farm(
            seed=9, count=1, families=("mixed-lattice",), jobs=1, max_states=2048
        )
        assert report.ok, "\n".join(report.render())
        verdict = report.verdicts[0]
        assert verdict.program.params["den"] == 999_983
        assert verdict.admission == "scaled"
        assert verdict.refusals_confirmed == 0

    def test_injected_discrepancy_is_shrunk_and_archived(self, tmp_path):
        report = run_farm(
            seed=2,
            count=1,
            families=("birth-death",),
            jobs=1,
            max_states=2048,
            out_dir=tmp_path,
            inject="*",
        )
        assert not report.ok
        kinds = {d.kind for d in report.discrepancies}
        assert "bracket-overlap" in kinds
        disc = next(d for d in report.discrepancies if d.kind == "bracket-overlap")
        assert disc.injected
        # shrunk to a minimal reproducer strictly smaller than the original
        program = report.verdicts[0].program
        assert disc.shrunk_source is not None
        assert len(disc.shrunk_source.split("\n")) < len(program.source.split("\n"))
        # and the reproducer still reproduces under the same re-check
        assert any(
            k == "bracket-overlap"
            for k, _ in check_source(
                disc.shrunk_source,
                program.integer_mode,
                max_states=2048,
                inject=True,
            )
        )
        # failure artifact carries the replay triple and the reproducer
        artifacts = list((tmp_path / "failures").glob("*bracket-overlap*.json"))
        assert artifacts
        entry = json.loads(artifacts[0].read_text())
        assert entry["seed"] == program.seed
        assert entry["generator_version"] == GENERATOR_VERSION
        assert entry["discrepancy"]["injected"] is True
        assert entry["discrepancy"]["shrunk_source"] == disc.shrunk_source

    def test_duplicate_kinds_collapse_to_one_finding(self):
        report = run_farm(
            seed=2,
            count=1,
            families=("birth-death",),
            jobs=1,
            max_states=2048,
            inject="*",
            shrink=False,
        )
        kinds = [d.kind for d in report.discrepancies]
        assert len(kinds) == len(set(kinds))


class TestCLI:
    def test_fuzz_subcommand_clean_run(self, tmp_path, capsys):
        rc = main(
            [
                "fuzz",
                "--seed",
                "3",
                "--count",
                "2",
                "--families",
                "birth-death,inventory",
                "--max-states",
                "2048",
                "--out",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "discrepancies : 0" in out
        assert "generator=fuzz-gen" in out

    def test_fuzz_subcommand_exit_1_on_discrepancy(self, tmp_path, capsys):
        rc = main(
            [
                "fuzz",
                "--seed",
                "3",
                "--count",
                "1",
                "--families",
                "inventory",
                "--max-states",
                "2048",
                "--inject",
                "*",
                "--no-shrink",
                "--out",
                str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "[injected]" in out

    def test_fuzz_subcommand_rejects_unknown_family(self, capsys):
        rc = main(["fuzz", "--families", "bogus", "--count", "1"])
        assert rc == 1
        assert "unknown families" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_fuzz_subcommand_rejects_a_budget_below_one(self, budget, capsys):
        # a budget of 0 used to explore past itself on the lattice engine
        # and report explorer divergences against the Fraction engine
        with pytest.raises(SystemExit) as exc:
            main(["fuzz", "--count", "1", "--max-states", budget])
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err


class TestCertificateOracle:
    """A corrupted certificate from a fuzzed run must be rejected."""

    def _emit(self, tmp_path):
        program = generate("inventory", 4)
        prog_file = tmp_path / "fuzzed.prob"
        prog_file.write_text(program.source + "\n")
        cert_file = tmp_path / "fuzzed.cert.json"
        rc = main(
            [
                "exact",
                str(prog_file),
                "--max-states",
                "2048",
                "--certificate",
                str(cert_file),
            ]
        )
        assert rc == 0
        return prog_file, cert_file

    def test_intact_certificate_verifies(self, tmp_path, capsys):
        _, cert_file = self._emit(tmp_path)
        assert main(["verify-certificate", str(cert_file)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_corrupted_certificate_exits_1(self, tmp_path, capsys):
        _, cert_file = self._emit(tmp_path)
        raw = bytearray(cert_file.read_bytes())
        raw[len(raw) // 2] ^= 0x20
        cert_file.write_bytes(bytes(raw))
        assert main(["verify-certificate", str(cert_file)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_missing_certificate_exits_2(self, tmp_path, capsys):
        rc = main(
            [
                "verify-certificate",
                str(tmp_path / "nope.cert.json"),
                "--cache-dir",
                str(tmp_path / "cache"),
            ]
        )
        assert rc == 2
        assert "neither a certificate file nor" in capsys.readouterr().err
