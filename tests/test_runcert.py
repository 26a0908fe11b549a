"""Run-certificate emission, verification, tampering and cache transport.

The certificate is only worth its bytes if (a) honest runs always verify,
(b) *every* forgery the checker claims to catch is actually caught — the
tampering drills here re-sign the payload after mutating it, modelling an
attacker who can recompute hashes but not re-run the engine — and (c) the
bytes survive the trip through the result cache and the process pool
unchanged (certificates carry no timings, so serial and pooled executions
of the same task must produce *identical* payloads).
"""

import json
import pickle

import pytest

from repro.core.fixpoint import build_sparse_model, iterate_model
from repro.core.runcert import (
    RunCertificate,
    emit_run_certificate,
    verify_certificate_text,
    verify_run_certificate,
)
from repro.lang import compile_source

pytestmark = pytest.mark.smoke

GAMBLER = (
    "x := 3\nwhile x >= 1 and x <= 9:\n    switch:\n"
    "        prob(0.5): x := x + 1\n        prob(0.5): x := x - 1\n"
    "assert x <= 0"
)

#: fractional half-step accumulator: admitted on the scale-2 lattice, so
#: its certificate carries a non-trivial admission record
HALFSTEP = (
    "i := 0\nx := 0\nwhile i <= 20 and x - 15/2 <= 0:\n"
    "    if prob(0.5):\n        i, x := i + 1, x + 1/2\n"
    "    else:\n        i := i + 1\n"
    "assert x >= 8"
)


def _certificate(
    source, name, *, explore="auto", integer_mode=True, max_states=10_000, solver="auto"
):
    pts = compile_source(source, name=name, integer_mode=integer_mode).pts
    model = build_sparse_model(pts, max_states=max_states, explore=explore)
    result = iterate_model(model, solver=solver)
    cert = emit_run_certificate(
        pts,
        model,
        result,
        max_states=max_states,
        explore=explore,
        name=name,
        source=source,
        integer_mode=integer_mode,
    )
    return pts, cert


def _resign(cert, mutate):
    """Mutate a deep copy of the payload and recompute the digest."""
    payload = json.loads(json.dumps(cert.payload))
    mutate(payload)
    return RunCertificate.from_payload(payload)


class TestEmission:
    def test_honest_certificate_verifies(self):
        pts, cert = _certificate(GAMBLER, "gambler", explore="scaled")
        report = verify_run_certificate(cert, pts=pts)
        assert report.ok, "\n".join(report.render())

    def test_self_contained_verification_recompiles_the_source(self):
        _, cert = _certificate(HALFSTEP, "halfstep", explore="scaled", integer_mode=False)
        report = verify_certificate_text(cert.to_json())
        assert report.ok, "\n".join(report.render())

    def test_emission_is_deterministic(self):
        _, a = _certificate(GAMBLER, "gambler", explore="scaled")
        _, b = _certificate(GAMBLER, "gambler", explore="scaled")
        assert a.to_json() == b.to_json()
        assert a.digest == b.digest

    def test_cross_engine_digests_agree(self):
        # the frontier digests hash *reduced rational* state rows, so the
        # scaled-int64 and exact Fraction engines must emit the same
        # levels block — this is the certificate-level parity statement
        _, fast = _certificate(HALFSTEP, "halfstep", explore="scaled", integer_mode=False)
        _, exact = _certificate(
            HALFSTEP, "halfstep", explore="fraction", integer_mode=False
        )
        assert (
            fast.payload["exploration"]["levels"]
            == exact.payload["exploration"]["levels"]
        )

    def test_solver_evidence_rides_the_certificate(self):
        pts, cert = _certificate(GAMBLER, "gambler", explore="scaled")
        evidence = cert.payload["value_iteration"]["evidence"]
        assert evidence["requested"] == "auto"
        assert evidence["tol"] == 1e-12


class TestTampering:
    def test_tampered_digest_rejected(self):
        pts, cert = _certificate(GAMBLER, "gambler", explore="scaled")

        def flip(payload):
            payload["exploration"]["levels"]["digests"][0] = "0" * 64

        report = verify_run_certificate(_resign(cert, flip), pts=pts)
        assert not report.ok
        assert "frontier-digests" in [name for name, _ in report.failures]

    def test_tampered_bounds_rejected(self):
        pts, cert = _certificate(
            HALFSTEP, "halfstep", explore="scaled", integer_mode=False
        )

        def inflate(payload):
            payload["exploration"]["admission"]["guards"][0]["headroom"] += 1

        report = verify_run_certificate(_resign(cert, inflate), pts=pts)
        assert not report.ok
        assert "admission-bounds" in [name for name, _ in report.failures]

    def test_stale_fingerprint_rejected(self):
        pts, cert = _certificate(GAMBLER, "gambler", explore="scaled")

        def stale(payload):
            payload["fingerprints"]["fixpoint"] = "older-engine.v0"

        report = verify_run_certificate(_resign(cert, stale), pts=pts)
        assert not report.ok
        assert "engine-fingerprint" in [name for name, _ in report.failures]

    def test_unknown_explorer_label_rejected(self):
        # a fraction-engine certificate carries no admission record, so a
        # relabel must be caught by the label check itself
        pts, cert = _certificate(GAMBLER, "gambler", explore="fraction")

        def relabel(payload):
            payload["exploration"]["explorer"] = "banana"

        report = verify_run_certificate(_resign(cert, relabel), pts=pts)
        assert not report.ok
        assert "explorer-label" in [name for name, _ in report.failures]

    @pytest.mark.parametrize(
        "explore,requested",
        [("fraction", "int64"), ("fraction", "scaled"), ("scaled", "fraction")],
    )
    def test_requested_mode_must_produce_the_explorer(self, explore, requested):
        # int64 is no mode; a forced fraction run cannot yield a lattice
        # model, nor a forced scaled run a fraction one
        pts, cert = _certificate(GAMBLER, "gambler", explore=explore)

        def rerequest(payload):
            payload["exploration"]["requested"] = requested

        report = verify_run_certificate(_resign(cert, rerequest), pts=pts)
        assert not report.ok
        assert [name for name, _ in report.failures] == ["explore-requested"]

    # gambler under solver="auto" is certified by the direct solve (both
    # sides adopted); under solver="sweep" no oracle runs
    @pytest.mark.parametrize(
        "solver,check,mutate",
        [
            ("auto", "vi-solver", lambda vi: vi.update(solver="banana")),
            ("sweep", "vi-solver-adoption", lambda vi: vi.update(solver="direct")),
            ("auto", "vi-certified-direct", lambda vi: vi.update(solver="sweep")),
            ("auto", "vi-requested", lambda vi: vi["evidence"].update(requested="sweep")),
        ],
        ids=["unknown-solver", "direct-without-adoption", "certified-sweep", "sweep-with-oracle"],
    )
    def test_solver_label_must_match_the_evidence(self, solver, check, mutate):
        pts, cert = _certificate(GAMBLER, "gambler", explore="scaled", solver=solver)
        tampered = _resign(cert, lambda payload: mutate(payload["value_iteration"]))
        report = verify_run_certificate(tampered, pts=pts)
        assert not report.ok
        assert check in [name for name, _ in report.failures]

    @pytest.mark.parametrize(
        "check,mutate",
        [
            ("states-budget", lambda exploration: exploration.update(max_states=10)),
            ("truncation", lambda exploration: exploration.update(truncated=True)),
        ],
        ids=["budget-below-states", "truncated-below-budget"],
    )
    def test_state_count_must_fit_the_budget(self, check, mutate):
        # 13 states of a 10 000-state budget, complete
        pts, cert = _certificate(GAMBLER, "gambler", explore="scaled")
        tampered = _resign(cert, lambda payload: mutate(payload["exploration"]))
        report = verify_run_certificate(tampered, pts=pts)
        assert not report.ok
        assert [name for name, _ in report.failures] == [check]

    def test_unsigned_mutation_fails_integrity(self):
        pts, cert = _certificate(GAMBLER, "gambler", explore="scaled")
        payload = json.loads(json.dumps(cert.payload))
        payload["exploration"]["states"] += 1
        unsigned = RunCertificate(payload=payload, digest=cert.digest)
        report = verify_run_certificate(unsigned, pts=pts)
        assert not report.ok
        assert report.failures[0][0] == "integrity"

    def test_garbage_text_fails_parse(self):
        report = verify_certificate_text("{not json")
        assert not report.ok
        assert report.failures[0][0] == "parse"


class TestCacheRoundTrip:
    def _task(self):
        from repro.engine.task import AnalysisTask, ProgramSpec

        return AnalysisTask.make(
            "exact",
            ProgramSpec.from_source(GAMBLER, name="gambler"),
            params={"max_states": 10_000, "explore": "scaled"},
        )

    def test_sidecar_written_and_reattached(self, tmp_path):
        from repro.engine.cache import ResultCache
        from repro.engine.engine import AnalysisEngine

        cache = ResultCache(tmp_path / "c")
        task = self._task()
        with AnalysisEngine(cache=cache) as engine:
            result = engine.run_inline(task)
        assert result.ok and result.run_certificate is not None
        # on disk: pickle + sidecar, and the pickle itself is cert-free
        assert cache.blob_path(task.cache_key).is_file()
        with open(cache._path(task.cache_key), "rb") as fh:
            assert pickle.load(fh).run_certificate is None
        # a fresh cache instance reattaches byte-identically
        hit = ResultCache(tmp_path / "c").get(task.cache_key)
        assert hit is not None
        assert hit.run_certificate == result.run_certificate
        report = verify_certificate_text(
            json.dumps(hit.run_certificate)
        )
        assert report.ok, "\n".join(report.render())

    def test_gc_coevicts_sidecars_and_sweeps_orphans(self, tmp_path):
        from repro.engine.cache import ResultCache

        cache = ResultCache(tmp_path / "c")
        task = self._task()
        from repro.engine.engine import AnalysisEngine

        with AnalysisEngine(cache=cache) as engine:
            engine.run_inline(task)
        orphan = cache.blob_path("deadbeef")
        orphan.write_text("{}")
        # a *different* cache instance: the entry is foreign, so a
        # 1-byte budget evicts it — and must take the sidecar with it
        stale = ResultCache(tmp_path / "c", max_bytes=1)
        report = stale.gc()
        assert report.evicted == 1
        leftovers = {p.name for p in (tmp_path / "c").iterdir()}
        assert not any(n.endswith(".cert.json") for n in leftovers)
        assert not orphan.exists()

    def test_stats_report_certificate_coverage(self, tmp_path):
        from repro.engine.cache import ResultCache
        from repro.engine.engine import AnalysisEngine

        cache = ResultCache(tmp_path / "c")
        with AnalysisEngine(cache=cache) as engine:
            engine.run_inline(self._task())
        (tmp_path / "c" / "bare.pkl").write_bytes(b"x" * 10)
        (tmp_path / "c" / "orphan.cert.json").write_text("{}")
        stats = cache.stats()
        assert stats.entries == 2
        assert stats.certificates == 1
        assert stats.orphan_certificates == 1


class TestSerialVsPool:
    def test_pooled_certificates_are_byte_identical_to_serial(self, tmp_path):
        from repro.engine.engine import AnalysisEngine
        from repro.engine.scheduler import ProcessPoolScheduler
        from repro.engine.task import AnalysisTask, ProgramSpec

        tasks = [
            AnalysisTask.make(
                "exact",
                ProgramSpec.from_source(GAMBLER, name="gambler"),
                params={"max_states": 10_000, "explore": "scaled"},
                task_id="gambler",
            ),
            AnalysisTask.make(
                "exact",
                ProgramSpec.from_source(HALFSTEP, name="halfstep", integer_mode=False),
                params={"max_states": 10_000, "explore": "scaled"},
                task_id="halfstep",
            ),
        ]
        serial = AnalysisEngine().run(tasks)
        with ProcessPoolScheduler(jobs=2) as scheduler:
            pooled = AnalysisEngine(scheduler).run(tasks)
        for tid in ("gambler", "halfstep"):
            assert serial[tid].ok and pooled[tid].ok
            blob = json.dumps(serial[tid].run_certificate, sort_keys=True)
            assert blob == json.dumps(pooled[tid].run_certificate, sort_keys=True)
