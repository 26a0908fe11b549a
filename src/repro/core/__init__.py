"""Core algorithms of the paper: bound synthesis, fixed points, baselines.

This is the algorithm layer (see ``docs/ARCHITECTURE.md``): one module
per synthesis family — §5.1 Hoeffding/RepRSM (:func:`hoeffding_synthesis`),
§5.2 ExpLinSyn (:func:`exp_lin_syn`) and §6 ExpLowSyn
(:func:`exp_low_syn`) — plus invariant generation, termination proofs,
prior-work baselines, and the ground-truth fixpoint engine
(:func:`value_iteration` / :func:`exact_vpf`) with its lattice
frontier-batch exploration fast path, its one CSR sweep kernel with the
certified direct solve, and per-run translation-validation certificates
(:mod:`repro.core.runcert`: :func:`emit_run_certificate` /
:func:`verify_run_certificate`).

Layer contract: ``core`` consumes :class:`~repro.pts.PTS` objects and the
``repro.numeric`` solver adapters; it never imports from ``repro.engine``
or ``repro.experiments``.  Each synthesis family additionally exposes the
engine protocol ``synthesize(task, deps, engine) -> CertificateResult``
beside its direct API, which is how the analysis engine schedules it.
Changes to the fixpoint engine must keep the differential suites against
:mod:`repro.core.fixpoint_reference` green — the frozen reference is the
semantics; the vectorized engines are implementations of it.
"""

from repro.core.invariants import InvariantMap, generate_interval_invariants
from repro.core.concentration import with_step_counter, concentration_bound
from repro.core.templates import ExpTemplate, ExpStateFunction
from repro.core.canonical import CanonicalTerm, CanonicalConstraint, canonicalize
from repro.core.certificates import (
    RepRSMData,
    UpperBoundCertificate,
    LowerBoundCertificate,
    log_ptf_transition,
)
from repro.core.explinsyn import exp_lin_syn
from repro.core.hoeffding import hoeffding_synthesis, azuma_baseline
from repro.core.explowsyn import exp_low_syn
from repro.core.termination import TerminationCertificate, prove_almost_sure_termination
from repro.core.fixpoint import (
    SparseFixpointModel,
    ValueIterationResult,
    build_sparse_model,
    exact_vpf,
    iterate_model,
    value_iteration,
)
from repro.core.runcert import (
    RunCertificate,
    VerificationReport,
    derive_admission,
    emit_run_certificate,
    verify_certificate_text,
    verify_run_certificate,
)
from repro.core.baselines import (
    cs13_deviation_bound,
    BoundedRSM,
    synthesize_bounded_rsm,
    cfnh18_concentration_bound,
    cfnh18_best_bound,
)

__all__ = [
    "InvariantMap",
    "generate_interval_invariants",
    "with_step_counter",
    "concentration_bound",
    "ExpTemplate",
    "ExpStateFunction",
    "CanonicalTerm",
    "CanonicalConstraint",
    "canonicalize",
    "RepRSMData",
    "UpperBoundCertificate",
    "LowerBoundCertificate",
    "log_ptf_transition",
    "exp_lin_syn",
    "hoeffding_synthesis",
    "azuma_baseline",
    "exp_low_syn",
    "TerminationCertificate",
    "prove_almost_sure_termination",
    "ValueIterationResult",
    "SparseFixpointModel",
    "build_sparse_model",
    "iterate_model",
    "value_iteration",
    "exact_vpf",
    "RunCertificate",
    "VerificationReport",
    "derive_admission",
    "emit_run_certificate",
    "verify_certificate_text",
    "verify_run_certificate",
    "cs13_deviation_bound",
    "BoundedRSM",
    "synthesize_bounded_rsm",
    "cfnh18_concentration_bound",
    "cfnh18_best_bound",
]
