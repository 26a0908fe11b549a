"""Syntax/shape validation of the GitHub Actions workflows.

``act``/``actions/workflow`` are not available in the test container, so
this is the acceptance gate for ``.github/workflows/*.yml``: every file
must be parseable YAML with the job structure the repo's CI contract
promises (tier-1 + smoke + lint + the PR-blocking run-certificate,
chaos fault-injection, and seeded fuzz-smoke gates on pushes and PRs;
the non-blocking bench job on schedule/dispatch — plus advisory on
fixpoint-touching PRs via a paths filter — with the artifact uploads,
the budgeted fresh-seed fuzzing farm, and the ``REPRO_BENCH_GATE_FACTOR``
knob).
"""

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

pytestmark = pytest.mark.smoke

WORKFLOWS = Path(__file__).resolve().parent.parent / ".github" / "workflows"


def _load(name):
    data = yaml.safe_load((WORKFLOWS / name).read_text())
    assert isinstance(data, dict), f"{name} did not parse to a mapping"
    # YAML 1.1 parses the bare key `on` as boolean True
    triggers = data.get("on", data.get(True))
    assert triggers is not None, f"{name} has no trigger block"
    return data, triggers


def _steps_text(job):
    return "\n".join(
        str(step.get("run", "")) + str(step.get("uses", ""))
        for step in job.get("steps", [])
    )


def test_workflow_files_exist():
    names = {p.name for p in WORKFLOWS.glob("*.yml")}
    assert {"ci.yml", "bench.yml"} <= names


def test_all_workflows_are_valid_yaml():
    for path in WORKFLOWS.glob("*.yml"):
        data, triggers = _load(path.name)
        assert data.get("jobs"), f"{path.name} defines no jobs"
        for job_name, job in data["jobs"].items():
            assert "runs-on" in job, f"{path.name}:{job_name} missing runs-on"
            assert job.get("steps"), f"{path.name}:{job_name} has no steps"


class TestCIWorkflow:
    def test_triggers_on_push_pr_and_dispatch(self):
        _, triggers = _load("ci.yml")
        assert "push" in triggers and "pull_request" in triggers
        assert "workflow_dispatch" in triggers

    def test_tier1_job_runs_the_roadmap_command_on_the_python_matrix(self):
        data, _ = _load("ci.yml")
        tier1 = data["jobs"]["tier1"]
        versions = tier1["strategy"]["matrix"]["python-version"]
        assert "3.10" in versions and "3.12" in versions
        text = _steps_text(tier1)
        assert "PYTHONPATH=src python -m pytest -x -q" in text

    def test_smoke_job_runs_the_smoke_marker(self):
        data, _ = _load("ci.yml")
        assert "pytest -m smoke" in _steps_text(data["jobs"]["smoke"])

    def test_lint_job_runs_ruff_with_a_timeout(self):
        data, _ = _load("ci.yml")
        lint = data["jobs"]["lint"]
        assert "ruff check" in _steps_text(lint)
        assert isinstance(lint.get("timeout-minutes"), int)

    def test_certificates_job_gates_the_fast_path(self):
        # the PR-blocking certificate gate: the fast path runs ONCE per
        # workload and its RunCertificate is independently verified —
        # explorer/solver regressions must fail CI without the 2x bitwise
        # two-engine re-run (that re-run is retired)
        data, _ = _load("ci.yml")
        job = data["jobs"]["certificates"]
        text = _steps_text(job)
        assert "tools/check_certificates.py" in text
        # the bitwise re-run must NOT ride on the PR gate anymore
        assert "check_explorer_parity.py" not in text
        # CLI round-trip: emit, verify, and assert a bit-flipped copy is
        # rejected with exit code 1 specifically (not a crash)
        assert "verify-certificate" in text
        assert '--certificate' in text
        assert 'test "$rc" -eq 1' in text
        # blocking by construction: no continue-on-error anywhere in the job
        assert not job.get("continue-on-error")
        assert all(not s.get("continue-on-error") for s in job["steps"])

    def test_no_job_invokes_the_reference_engine_twice(self):
        # acceptance bar of the certificate design: no ci.yml job pays for
        # the bitwise two-engine re-run
        data, _ = _load("ci.yml")
        for job_name, job in data["jobs"].items():
            assert "check_explorer_parity" not in _steps_text(job), (
                f"{job_name} still runs the bitwise parity re-run"
            )

    def test_chaos_job_gates_the_fault_injection_suite(self):
        # the PR-blocking chaos gate: fault-tolerance regressions (hangs,
        # lost retries, non-deterministic recovery) must fail CI
        data, _ = _load("ci.yml")
        job = data["jobs"]["chaos"]
        text = _steps_text(job)
        assert "pytest -m chaos" in text
        # a wedged daemon must fail the job, not stall CI forever
        assert isinstance(job.get("timeout-minutes"), int)
        # blocking by construction: no continue-on-error anywhere in the job
        assert not job.get("continue-on-error")
        assert all(not s.get("continue-on-error") for s in job["steps"])

    def test_fuzz_smoke_job_gates_the_seeded_differential_slice(self):
        # the PR-blocking fuzz gate: fixed-seed generator determinism,
        # farm oracle drills, and the certificate-as-oracle pins — the
        # open-ended fresh-seed farm stays nightly (bench.yml) so PRs
        # never block on luck, only on the reproducible slice
        data, _ = _load("ci.yml")
        job = data["jobs"]["fuzz-smoke"]
        text = _steps_text(job)
        assert "pytest -m fuzz_smoke" in text
        assert isinstance(job.get("timeout-minutes"), int)
        # blocking by construction: no continue-on-error anywhere in the job
        assert not job.get("continue-on-error")
        assert all(not s.get("continue-on-error") for s in job["steps"])

    def test_pip_caching_is_enabled(self):
        data, _ = _load("ci.yml")
        for job_name, job in data["jobs"].items():
            setup = [
                s for s in job["steps"] if "setup-python" in str(s.get("uses", ""))
            ]
            assert setup, f"{job_name} does not set up python"
            assert setup[0].get("with", {}).get("cache") == "pip", (
                f"{job_name} does not cache pip"
            )


class TestBenchWorkflow:
    def test_triggers_schedule_dispatch_and_fixpoint_prs(self):
        _, triggers = _load("bench.yml")
        assert "schedule" in triggers and "workflow_dispatch" in triggers
        assert "push" not in triggers
        # PRs run the bench only when they touch the exploration layers,
        # and only through a paths filter (never the whole PR stream)
        pr = triggers["pull_request"]
        assert isinstance(pr, dict) and pr.get("paths")
        assert "src/repro/core/fixpoint*.py" in pr["paths"]
        assert "src/repro/core/solvers.py" in pr["paths"]
        assert "src/repro/pts/model.py" in pr["paths"]

    def test_bench_step_is_non_blocking_and_respects_gate_factor(self):
        data, _ = _load("bench.yml")
        job = data["jobs"]["bench"]
        bench_steps = [
            s for s in job["steps"] if "pytest -m bench" in str(s.get("run", ""))
        ]
        assert bench_steps, "no bench pytest step"
        step = bench_steps[0]
        assert step.get("continue-on-error") is True
        assert "REPRO_BENCH_GATE_FACTOR" in step.get("env", {})

    def test_artifact_upload_and_summary(self):
        data, _ = _load("bench.yml")
        job = data["jobs"]["bench"]
        text = _steps_text(job)
        assert "actions/upload-artifact" in text
        assert "GITHUB_STEP_SUMMARY" in text
        uploads = [
            s for s in job["steps"] if "upload-artifact" in str(s.get("uses", ""))
        ]
        assert uploads[0]["with"]["path"] == "BENCH_fixpoint.json"

    def test_retired_parity_tool_runs_in_no_workflow(self):
        # the two-engine bitwise re-run is retired: certificates gate PRs,
        # tests pin explorer bit-identity, and the certificate gate holds
        # solver=auto to the sweep bracket — no workflow may call it
        for path in sorted(WORKFLOWS.glob("*.yml")):
            data, _ = _load(path.name)
            for job_name, job in data["jobs"].items():
                assert "check_explorer_parity" not in _steps_text(job), (
                    f"{path.name}:{job_name} still runs the retired parity tool"
                )

    def test_fuzz_farm_job_runs_budgeted_on_fresh_seeds(self):
        # the nightly farm: fresh seed base per run (github.run_id), a
        # wall-clock budget so the job can never outgrow its timeout, and
        # the corpus/failure artifacts uploaded even when the farm fails
        data, _ = _load("bench.yml")
        job = data["jobs"]["fuzz"]
        text = _steps_text(job)
        assert "tools/run_fuzz_farm.py" in text
        assert "--budget-seconds" in text
        assert "github.run_id" in text
        assert isinstance(job.get("timeout-minutes"), int)
        uploads = [
            s for s in job["steps"] if "upload-artifact" in str(s.get("uses", ""))
        ]
        assert uploads and uploads[0].get("if") == "always()"
        assert "fuzz-artifacts" in str(uploads[0]["with"].get("path", ""))

    def test_bench_runs_emit_and_upload_certificates(self):
        data, _ = _load("bench.yml")
        job = data["jobs"]["bench"]
        bench_steps = [
            s for s in job["steps"] if "pytest -m bench" in str(s.get("run", ""))
        ]
        cert_dir = bench_steps[0].get("env", {}).get("REPRO_BENCH_CERT_DIR")
        assert cert_dir, "bench step does not request certificate emission"
        uploads = [
            s for s in job["steps"] if "upload-artifact" in str(s.get("uses", ""))
        ]
        cert_uploads = [
            s for s in uploads if cert_dir in str(s["with"].get("path", ""))
        ]
        assert cert_uploads, "certificates are not uploaded as artifacts"
