"""Sparse fixpoint engine vs the legacy pure-Python reference.

Times both engines on the workload shapes that stress different paths — a
tiny chain (call overhead), an iteration-heavy slow-mixing chain,
state-heavy truncated walks (large CSR sweeps and the int64 frontier
explorer), the fractional Table 1 shapes riding the scaled-lattice
fixed-point explorer, and the slow-mixing gambler-N ladder exercising the
certified direct solve — asserting
bracket agreement and recording every entry to ``BENCH_fixpoint.json``
through the session recorder in ``conftest.py``.  The ladder workloads
skip the reference engine (pure-Python sweeps would take minutes to
hours) and are validated against the analytic violation probability
(1/4: the assert fires on the rich exit x = N, entered from x = N/4)
instead.

The recorded trajectory is also a *regression gate*: a run whose
end-to-end ``sparse_seconds`` — or value-iteration-phase ``vi_seconds`` —
degrades more than 2x against the best time ever recorded for the same
workload (program + state budget) fails, so a perf regression cannot land
silently just because the brackets still agree.

Every bench run additionally emits its translation-validation
:class:`~repro.core.runcert.RunCertificate` and verifies it in-process;
set ``REPRO_BENCH_CERT_DIR`` to also persist the certificates (the bench
workflow uploads that directory as an artifact next to
``BENCH_fixpoint.json``).
"""

import os
import time
from pathlib import Path

import pytest

pytestmark = pytest.mark.bench

from repro.lang import compile_source
from repro.core.fixpoint import build_sparse_model, iterate_model
from repro.core import fixpoint_reference
from repro.experiments.fixpoint_bench import (
    FIXPOINT_WORKLOADS,
    SLOW_MIXING_ANALYTIC_VPF,
    SLOW_MIXING_WORKLOADS,
    best_recorded_seconds,
    explore_timings,
)

#: same location conftest.py flushes the session recorder to
BENCH_FIXPOINT_PATH = Path(__file__).resolve().parent.parent / "BENCH_fixpoint.json"

#: tolerated slowdown against the best recorded run before the gate trips.
#: The trajectory file is committed, so the baseline may come from faster
#: hardware — override with REPRO_BENCH_GATE_FACTOR (0 disables the gate)
#: when benchmarking on a slower machine.
REGRESSION_FACTOR = float(os.environ.get("REPRO_BENCH_GATE_FACTOR", "2.0"))

#: absolute slack added on top of the ratio gate.  The tiny workloads
#: finish their phases in well under a millisecond, where wall-clock is
#: scheduler jitter rather than engine work — a pure 2x ratio against a
#: 0.3 ms baseline would flake under a loaded bench session.
NOISE_FLOOR_SECONDS = 0.005


def _gate(name: str, max_states: int, field: str, measured: float) -> None:
    """Fail when ``measured`` degrades more than REGRESSION_FACTOR x the
    best ``field`` timing already on disk, beyond an absolute noise floor
    (the session recorder appends *after* the session, so the baseline
    never includes this very measurement)."""
    best = best_recorded_seconds(BENCH_FIXPOINT_PATH, name, max_states, field)
    if (
        REGRESSION_FACTOR > 0
        and best is not None
        and measured > REGRESSION_FACTOR * best + NOISE_FLOOR_SECONDS
    ):
        pytest.fail(
            f"fixpoint perf regression on {name!r}: {field} took "
            f"{measured:.3f}s, more than {REGRESSION_FACTOR:.1f}x the "
            f"best recorded {best:.3f}s (BENCH_fixpoint.json; baseline may "
            f"be from faster hardware — see REPRO_BENCH_GATE_FACTOR)"
        )


@pytest.mark.parametrize("name", sorted(FIXPOINT_WORKLOADS))
def test_sparse_engine_vs_reference(name, fixpoint_recorder, benchmark):
    source, max_states, integer_mode = FIXPOINT_WORKLOADS[name]
    pts = compile_source(source, name=name, integer_mode=integer_mode).pts

    model = build_sparse_model(pts, max_states=max_states)
    start = time.perf_counter()
    fast = benchmark(lambda: iterate_model(model))
    vi_seconds = time.perf_counter() - start
    if benchmark.stats is not None:  # None under --benchmark-disable
        vi_seconds = benchmark.stats.stats.mean
    start = time.perf_counter()
    build_sparse_model(pts, max_states=max_states)
    build_seconds = time.perf_counter() - start
    sparse_seconds = build_seconds + vi_seconds

    # exploration phase alone: the int64 frontier path vs the Fraction BFS
    explore_fields = explore_timings(pts, max_states)

    entry = {
        "program": name,
        "max_states": max_states,
        "states": fast.states,
        "iterations": fast.iterations,
        "truncated": fast.truncated,
        "lower": fast.lower,
        "upper": fast.upper,
        "sparse_seconds": round(sparse_seconds, 6),
        "vi_seconds": round(vi_seconds, 6),
        "solver": fast.solver,
        "certified": fast.certified,
        "certify_sweeps": fast.certify_sweeps,
        **explore_fields,
    }
    if fast.oracle_residual is not None:
        entry["oracle_residual"] = fast.oracle_residual

    if name in SLOW_MIXING_WORKLOADS:
        # pure-Python reference sweeps are impractical on the ladder;
        # the bracket must contain the analytic violation probability
        assert fast.lower - 1e-9 <= SLOW_MIXING_ANALYTIC_VPF <= fast.upper + 1e-9
        entry["analytic_vpf"] = SLOW_MIXING_ANALYTIC_VPF
        entry["analytic_error"] = max(
            0.0,
            fast.lower - SLOW_MIXING_ANALYTIC_VPF,
            SLOW_MIXING_ANALYTIC_VPF - fast.upper,
        )
    else:
        start = time.perf_counter()
        ref = fixpoint_reference.value_iteration(pts, max_states=max_states)
        reference_seconds = time.perf_counter() - start

        # the rewrite must not change the semantics: same explored
        # fragment, same truncation, and a bracket that never escapes the
        # reference's outward by more than the iteration tolerance (a
        # *certified* oracle bracket may legitimately be tighter)
        assert fast.states == ref.states
        assert fast.truncated == ref.truncated
        assert fast.lower >= ref.lower - 1e-9
        assert fast.upper <= ref.upper + 1e-9
        assert fast.lower <= fast.upper + 1e-12

        entry["reference_seconds"] = round(reference_seconds, 6)
        entry["speedup"] = round(reference_seconds / sparse_seconds, 2)
        entry["bracket_error"] = max(
            0.0, ref.lower - fast.lower, fast.upper - ref.upper
        )

    _gate(name, max_states, "sparse_seconds", sparse_seconds)
    _gate(name, max_states, "vi_seconds", vi_seconds)

    # every bench run carries its proof: emit the run certificate, verify
    # it in-process (a failing check fails the bench), and persist it when
    # the workflow asked for artifacts (REPRO_BENCH_CERT_DIR)
    from repro.core.runcert import emit_run_certificate, verify_run_certificate

    cert = emit_run_certificate(
        pts,
        model,
        fast,
        max_states=max_states,
        name=name,
        source=source,
        integer_mode=integer_mode,
    )
    report = verify_run_certificate(cert, pts=pts)
    assert report.ok, "\n".join(report.render())
    cert_dir = os.environ.get("REPRO_BENCH_CERT_DIR")
    if cert_dir:
        Path(cert_dir).mkdir(parents=True, exist_ok=True)
        cert.save(Path(cert_dir) / f"{name}.cert.json")

    fixpoint_recorder(entry)
