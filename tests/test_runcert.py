"""Run-certificate emission, verification, tampering and cache transport.

The certificate is only worth its bytes if (a) honest runs always verify,
(b) *every* forgery the checker claims to catch is actually caught — the
tampering drills here re-sign the payload after mutating it, modelling an
attacker who can recompute hashes but not re-run the engine — and (c) the
bytes survive the trip through the result cache and the process pool
unchanged (certificates carry no timings, so serial and pooled executions
of the same task must produce *identical* payloads).
"""

import base64
import hashlib
import json
import pickle
import zlib

import numpy as np
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


#: Fraction-engine run whose values pass 2**63 (383 states): its state
#: table is ``text``-encoded and checked row by row in Python ints
BEYOND_INT64 = (
    "x := 1\nwhile x <= 100000000000000000000:\n    if prob(0.5):\n"
    "        x := 1000 * x\n    else:\n        x := 1000 * x + 1\n"
    "assert x <= 100000000000000000000"
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


def _forge_table(payload, edit, level=6):
    """Decode the state table, let ``edit`` change it in place (an int64
    array for ``i8le``, a list of row lists for ``text``), re-encode it at
    zlib ``level`` and recompute every level digest — so only the state
    checks, not the digest replay, can catch the edit."""
    levels = payload["exploration"]["levels"]
    raw = zlib.decompress(base64.b64decode(levels["states_blob"]))
    ends = levels["level_ends"]
    spans = list(zip([0] + ends[:-1], ends))
    if levels["encoding"] == "i8le":
        table = np.frombuffer(raw, dtype="<i8").reshape(ends[-1], -1).copy()
        edit(table)
        raw = table.tobytes()
        levels["digests"] = [
            hashlib.sha256(table[a:b].tobytes()).hexdigest() for a, b in spans
        ]
    else:
        rows = [[int(t) for t in line.split(",")] for line in raw.decode().split("\n")]
        edit(rows)
        lines = [",".join(map(str, row)) for row in rows]
        raw = "\n".join(lines).encode()
        levels["digests"] = [
            hashlib.sha256(b"text\n" + "\n".join(lines[a:b]).encode()).hexdigest()
            for a, b in spans
        ]
    levels["states_blob"] = base64.b64encode(zlib.compress(raw, level)).decode()


# edits of a decoded int64 state table (columns: the location, then a
# numerator/denominator pair per variable)


def _location_out_of_range(table, pts):
    table[-1, 0] = len(pts.locations)


def _two_halves(table, pts):
    table[-1, 1:3] = 2


def _off_lattice(table, pts):
    table[-1, 3:5] = (1, 3)  # HALFSTEP's x lives on the scale-2 lattice


def _moved_init(table, pts):
    table[0, 1] += 1


def _failed_checks(pts, cert, mutate):
    report = verify_run_certificate(_resign(cert, mutate), pts=pts)
    return [name for name, _ in report.failures]


class TestStateTable:
    """Forged state tables, re-signed with their level digests recomputed:
    each must be caught by exactly the check named."""

    def test_int64_min_numerator_is_out_of_range(self):
        # |INT64_MIN| is negative in int64, so a magnitude bound let -2**63
        # through; the bounds are compared signed
        pts, cert = _certificate(GAMBLER, "gambler", explore="scaled")

        def forge(table):
            table[-1, 1] = -(2**63)

        failed = _failed_checks(pts, cert, lambda p: _forge_table(p, forge))
        assert failed == ["state-range"]

    @pytest.mark.parametrize(
        "check,source,integer_mode,edit",
        [
            ("state-locations", GAMBLER, True, _location_out_of_range),
            ("state-reduced", GAMBLER, True, _two_halves),
            ("state-lattice", HALFSTEP, False, _off_lattice),
            ("init-state", GAMBLER, True, _moved_init),
        ],
        ids=["location-out-of-range", "two-halves", "off-lattice", "moved-init"],
    )
    def test_forged_rows_fail_their_check(self, check, source, integer_mode, edit):
        pts, cert = _certificate(
            source, "forged", explore="scaled", integer_mode=integer_mode
        )
        assert verify_run_certificate(cert, pts=pts).ok
        failed = _failed_checks(
            pts, cert, lambda p: _forge_table(p, lambda table: edit(table, pts))
        )
        assert failed == [check]

    def test_level_ends_must_end_at_the_state_count(self):
        pts, cert = _certificate(GAMBLER, "gambler", explore="scaled")

        def drop_last_level(payload):
            levels = payload["exploration"]["levels"]
            del levels["level_ends"][-1], levels["digests"][-1]

        assert _failed_checks(pts, cert, drop_last_level) == ["level-structure"]

    def test_blob_of_partial_rows_is_undecodable(self):
        pts, cert = _certificate(GAMBLER, "gambler", explore="scaled")

        def cut(payload):
            levels = payload["exploration"]["levels"]
            raw = zlib.decompress(base64.b64decode(levels["states_blob"]))
            levels["states_blob"] = base64.b64encode(zlib.compress(raw[:-8])).decode()

        assert _failed_checks(pts, cert, cut) == ["frontier-digests"]

    def test_blob_compressed_at_any_level_verifies(self):
        # decompression reads any zlib level: a table recompressed at
        # level 6 (or 9) with the same rows verifies unchanged
        pts, cert = _certificate(HALFSTEP, "halfstep", explore="scaled", integer_mode=False)
        for level in (6, 9):
            recompressed = _resign(
                cert, lambda p: _forge_table(p, lambda table: None, level=level)
            )
            assert recompressed.payload["exploration"]["levels"]["digests"] == (
                cert.payload["exploration"]["levels"]["digests"]
            )
            report = verify_certificate_text(recompressed.to_json())
            assert report.ok, "\n".join(report.render())

    def test_text_encoded_table_round_trips(self):
        pts, cert = _certificate(
            BEYOND_INT64, "beyond-int64", explore="fraction", max_states=1_000
        )
        levels = cert.payload["exploration"]["levels"]
        assert levels["encoding"] == "text"
        assert cert.payload["exploration"]["states"] == 383
        report = verify_certificate_text(cert.to_json())
        assert report.ok, "\n".join(report.render())

        def unreduce(rows):
            # the last state's value, beyond 2**63, as 2x / 2
            rows[-1][1:3] = [2 * rows[-1][1], 2]

        failed = _failed_checks(pts, cert, lambda p: _forge_table(p, unreduce))
        assert failed == ["state-reduced"]


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
