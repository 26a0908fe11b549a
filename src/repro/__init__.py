"""repro — Quantitative Analysis of Assertion Violations in Probabilistic Programs.

A from-scratch Python reproduction of the PLDI 2021 paper by Wang, Sun, Fu,
Chatterjee and Goharshady.  The public API exposes:

* a probabilistic programming language and its compiler to probabilistic
  transition systems (:mod:`repro.lang`, :mod:`repro.pts`);
* the three bound-synthesis algorithms of the paper
  (:func:`hoeffding_synthesis` for Section 5.1, :func:`exp_lin_syn` for
  Section 5.2 and :func:`exp_low_syn` for Section 6);
* baselines, certificates, simulation and exact value iteration for
  validating every synthesized bound;
* all paper benchmarks and the experiment harness regenerating the paper's
  tables (:mod:`repro.programs`, :mod:`repro.experiments`).

Quick start::

    from repro import parse_program, compile_program, exp_lin_syn

    source = '''
    x := 40; y := 0;
    while x <= 99 and y <= 99:
        if prob(0.5):
            x, y := x + 1, y + 2
        else:
            x, y := x + 1, y
    assert x >= 100
    '''
    pts = compile_program(parse_program(source))
    certificate = exp_lin_syn(pts)          # invariants are auto-generated
    print(certificate.bound)                # upper bound on Pr[violation]
"""

__version__ = "1.0.0"

from repro.errors import (
    ReproError,
    ModelError,
    ParseError,
    CompileError,
    NotAffineError,
    UnboundedSupportError,
    SolverError,
    InfeasibleError,
    SynthesisError,
    VerificationError,
)

__all__ = [
    "ReproError",
    "ModelError",
    "ParseError",
    "CompileError",
    "NotAffineError",
    "UnboundedSupportError",
    "SolverError",
    "InfeasibleError",
    "SynthesisError",
    "VerificationError",
    "__version__",
]


#: lazy re-exports (name -> defining package), resolved on first access to
#: keep ``import repro`` light
_LAZY = {
    "LinExpr": "repro.polyhedra",
    "AffineIneq": "repro.polyhedra",
    "Polyhedron": "repro.polyhedra",
    "PTS": "repro.pts",
    "PTSBuilder": "repro.pts",
    "Distribution": "repro.pts",
    "simulate_violation_probability": "repro.pts",
    "parse_program": "repro.lang",
    "compile_program": "repro.lang",
    "hoeffding_synthesis": "repro.core",
    "exp_lin_syn": "repro.core",
    "exp_low_syn": "repro.core",
    "azuma_baseline": "repro.core",
    "value_iteration": "repro.core",
    "InvariantMap": "repro.core",
    "prove_almost_sure_termination": "repro.core",
    "exact_vpf": "repro.core",
    "get_benchmark": "repro.programs",
    "pretty": "repro.lang",
}


def __getattr__(name):
    from importlib import import_module

    if name in _LAZY:
        return getattr(import_module(_LAZY[name]), name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
