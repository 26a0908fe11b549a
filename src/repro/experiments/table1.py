"""Regeneration of Table 1 (upper bounds on assertion violation).

For every benchmark/parameter row the harness runs

* the Section 5.1 algorithm (``hoeffding_synthesis``),
* the Section 5.2 algorithm (``exp_lin_syn``), and
* the applicable previous-work baseline ([CS13] endpoint Hoeffding for
  Deviation, [CFNH18] RSM+Azuma for Concentration, [CNZ17] RepRSM+Azuma
  for StoInv),

and reports them next to the paper's published numbers
(:mod:`repro.experiments.reference`).

Each row decomposes into an analysis-engine task triple — ``hoeffding``,
``explinsyn`` (warm-started from the Hoeffding certificate, preserving the
row-wise completeness guarantee sec5.2 <= sec5.1) and ``table1_baseline`` —
so ``--jobs N`` fans out up to 3x27 tasks instead of 27 rows, and a shared
result cache serves identical tasks (e.g. the symbolic appendix tables)
without re-solving.  Dispatch is completion-driven: each ``explinsyn``
task starts the moment *its own* ``hoeffding`` producer finishes, so one
slow row (3DWalk's Hoeffding search, typically) no longer holds back
every other row's second stage the way the old wave barrier did.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import (
    azuma_baseline,
    cfnh18_best_bound,
    cs13_deviation_bound,
    exp_lin_syn,
    hoeffding_synthesis,
)
from repro.errors import SynthesisError
from repro.programs import get_benchmark
from repro.experiments.reference import TABLE1, PaperRow, ln_to_log10

__all__ = [
    "Table1Row",
    "TABLE1_SPECS",
    "run_row",
    "run_table1",
    "format_table1",
    "row_tasks",
    "synthesize_baseline",
]


@dataclass
class Table1Row:
    """One computed row of Table 1 (bounds as natural logs)."""

    family: str
    benchmark: str
    param_label: str
    sec51_ln: Optional[float] = None
    sec52_ln: Optional[float] = None
    baseline_ln: Optional[float] = None
    sec51_seconds: float = 0.0
    sec52_seconds: float = 0.0
    paper: Optional[PaperRow] = None
    error: str = ""

    @property
    def ratio_log10(self) -> Optional[float]:
        """log10(baseline / sec52) — the paper's "Ratio" column."""
        if self.baseline_ln is None or self.sec52_ln is None:
            return None
        return ln_to_log10(self.baseline_ln - self.sec52_ln)


def _deviation_baseline(name: str, params: Dict) -> float:
    if name == "RdAdder":
        return cs13_deviation_bound(500, float(params["deviation"]), 1.0)
    return cs13_deviation_bound(60, float(params["deviation"]), 0.1)


def _concentration_baseline(pts, invariants, params: Dict) -> float:
    return cfnh18_best_bound(pts, invariants, float(params["n"]))


def _stoinv_baseline(pts, invariants) -> float:
    return azuma_baseline(pts, invariants).log_bound


#: benchmark name -> family: every paper row of a benchmark shares one, so
#: a row's family needs no compile.  Benchmarks outside Table 1 (Hardware,
#: the promoted fuzz finds) are absent and take the StoInv baseline.
_TABLE1_FAMILY: Dict[str, str] = {row.benchmark: row.family for row in TABLE1.values()}


#: (benchmark name, factory kwargs, paper param label)
TABLE1_SPECS: List[Tuple[str, Dict, str]] = [
    ("RdAdder", dict(deviation=25), "d=25"),
    ("RdAdder", dict(deviation=50), "d=50"),
    ("RdAdder", dict(deviation=75), "d=75"),
    ("Robot", dict(deviation="1.8"), "d=1.8"),
    ("Robot", dict(deviation="2.0"), "d=2.0"),
    ("Robot", dict(deviation="2.2"), "d=2.2"),
    ("Coupon", dict(n=100), "T>100"),
    ("Coupon", dict(n=300), "T>300"),
    ("Coupon", dict(n=500), "T>500"),
    ("Prspeed", dict(n=150), "T>150"),
    ("Prspeed", dict(n=200), "T>200"),
    ("Prspeed", dict(n=250), "T>250"),
    ("Rdwalk", dict(n=400), "T>400"),
    ("Rdwalk", dict(n=500), "T>500"),
    ("Rdwalk", dict(n=600), "T>600"),
    ("1DWalk", dict(x0=10), "x=10"),
    ("1DWalk", dict(x0=50), "x=50"),
    ("1DWalk", dict(x0=100), "x=100"),
    ("2DWalk", dict(x0=1000, y0=10), "(1000,10)"),
    ("2DWalk", dict(x0=500, y0=40), "(500,40)"),
    ("2DWalk", dict(x0=400, y0=50), "(400,50)"),
    ("3DWalk", dict(x0=100, y0=100, z0=100), "(100,100,100)"),
    ("3DWalk", dict(x0=100, y0=150, z0=200), "(100,150,200)"),
    ("3DWalk", dict(x0=300, y0=100, z0=150), "(300,100,150)"),
    ("Race", dict(x0=40, y0=0), "(40,0)"),
    ("Race", dict(x0=35, y0=0), "(35,0)"),
    ("Race", dict(x0=45, y0=0), "(45,0)"),
]


def run_row(
    name: str,
    kwargs: Dict,
    param_label: str,
    with_hoeffding: bool = True,
    with_baseline: bool = True,
) -> Table1Row:
    """Compute one Table 1 row."""
    instance = get_benchmark(name, **kwargs)
    row = Table1Row(
        family=instance.family,
        benchmark=name,
        param_label=param_label,
        paper=TABLE1.get((name, param_label)),
    )
    cert51 = None
    if with_hoeffding:
        start = time.perf_counter()
        try:
            cert51 = hoeffding_synthesis(instance.pts, instance.invariants)
            row.sec51_ln = cert51.log_bound
        except Exception as exc:  # incomplete algorithm: record, don't crash
            row.error = f"sec5.1: {exc}"
        row.sec51_seconds = time.perf_counter() - start
    start = time.perf_counter()
    # a Hoeffding certificate is itself a pre fixed-point, so it seeds the
    # convex solve: completeness then guarantees sec5.2 <= sec5.1 row-wise
    warm = cert51.state_function if cert51 is not None else None
    cert52 = exp_lin_syn(instance.pts, instance.invariants, warm_start=warm)
    row.sec52_ln = cert52.log_bound
    row.sec52_seconds = time.perf_counter() - start
    if with_baseline:
        try:
            if instance.family == "Deviation":
                row.baseline_ln = _deviation_baseline(name, kwargs)
            elif instance.family == "Concentration":
                row.baseline_ln = _concentration_baseline(
                    instance.pts, instance.invariants, kwargs
                )
            else:
                row.baseline_ln = _stoinv_baseline(instance.pts, instance.invariants)
        except Exception as exc:
            row.error = (row.error + f" baseline: {exc}").strip()
    return row


def synthesize_baseline(task, deps=None, engine=None):
    """Engine entry point for ``table1_baseline`` tasks: the applicable
    previous-work bound for the task's benchmark family.

    The PTS and invariants come from ``task.program.resolve()``, the
    per-process memo the row's synthesis tasks share; the Deviation
    baseline needs neither.
    """
    from repro.engine.task import CertificateResult

    name = task.program.name
    kwargs = dict(task.program.params)
    family = _TABLE1_FAMILY.get(name, "StoInv")
    start = time.perf_counter()
    try:
        if family == "Deviation":
            ln = _deviation_baseline(name, kwargs)
        elif family == "Concentration":
            ln = _concentration_baseline(*task.program.resolve(), kwargs)
        else:
            ln = _stoinv_baseline(*task.program.resolve())
    except Exception as exc:
        return CertificateResult.failure(task, exc, seconds=time.perf_counter() - start)
    return CertificateResult(
        algorithm=task.algorithm,
        status="ok",
        log_bound=float(ln),
        seconds=time.perf_counter() - start,
        solver_info=f"{family} baseline",
    )


def row_tasks(
    name: str,
    kwargs: Dict,
    label: str,
    with_hoeffding: bool = True,
    with_baseline: bool = True,
) -> List:
    """The engine task triple of one Table 1 row (see module docstring)."""
    from repro.engine import AnalysisTask, ProgramSpec

    spec = ProgramSpec.benchmark(name, **kwargs)
    base = f"t1/{name}/{label}"
    tasks = []
    sec52_params: Dict[str, object] = {}
    if with_hoeffding:
        sec51 = AnalysisTask.make("hoeffding", spec, task_id=f"{base}/sec51")
        tasks.append(sec51)
        sec52_params["warm_start_from"] = f"{base}/sec51"
        # fingerprint the warm-start producer into the cache key: the
        # upstream result is a deterministic function of its own key, so
        # two sec52 tasks share a cached result only when their warm
        # starts are guaranteed equal
        sec52_params["warm_start_key"] = sec51.cache_key
    tasks.append(
        AnalysisTask.make(
            "explinsyn",
            spec,
            params=sec52_params,
            task_id=f"{base}/sec52",
            depends_on=(f"{base}/sec51",) if with_hoeffding else (),
        )
    )
    if with_baseline:
        tasks.append(
            AnalysisTask.make("table1_baseline", spec, task_id=f"{base}/baseline")
        )
    return tasks


def _assemble_row(
    name: str,
    kwargs: Dict,
    label: str,
    results,
    with_hoeffding: bool,
    with_baseline: bool,
) -> Table1Row:
    base = f"t1/{name}/{label}"
    row = Table1Row(
        family=_TABLE1_FAMILY.get(name, ""),
        benchmark=name,
        param_label=label,
        paper=TABLE1.get((name, label)),
    )
    if with_hoeffding:
        sec51 = results[f"{base}/sec51"]
        row.sec51_seconds = sec51.seconds
        if sec51.ok:
            row.sec51_ln = sec51.log_bound
        else:
            row.error = f"sec5.1: {sec51.error}"
    sec52 = results[f"{base}/sec52"]
    if not sec52.ok:
        # parity with the direct pipeline, where exp_lin_syn failures
        # propagate instead of silently degrading the table
        raise SynthesisError(f"Table 1 row {name} {label}: {sec52.error}")
    row.sec52_ln = sec52.log_bound
    row.sec52_seconds = sec52.seconds
    # the engine resolves the benchmark inside the worker; recover the
    # family from it when the benchmark has no paper row at all
    if not row.family:
        row.family = get_benchmark(name, **kwargs).family
    if with_baseline:
        baseline = results[f"{base}/baseline"]
        if baseline.ok:
            row.baseline_ln = baseline.log_bound
        else:
            row.error = (row.error + f" baseline: {baseline.error}").strip()
    return row


def run_table1(
    families: Optional[Sequence[str]] = None,
    with_hoeffding: bool = True,
    with_baseline: bool = True,
    jobs: int = 1,
    engine=None,
) -> List[Table1Row]:
    """Compute all (or selected families of) Table 1 rows.

    Rows are decomposed into engine tasks (:func:`row_tasks`) and executed
    through ``engine`` — or a fresh one with ``jobs`` workers — so
    ``jobs > 1`` fans out every synthesis and baseline across the table
    while row order, warm starts and the formatted output stay exactly as
    in a serial run.
    """
    from repro.engine import engine_scope

    specs = [
        (name, kwargs, label)
        for name, kwargs, label in TABLE1_SPECS
        if families is None or TABLE1[(name, label)].family in families
    ]
    tasks = []
    for name, kwargs, label in specs:
        tasks.extend(row_tasks(name, kwargs, label, with_hoeffding, with_baseline))
    with engine_scope(engine, jobs=jobs) as eng:
        results = eng.run(tasks)
    return [
        _assemble_row(name, kwargs, label, results, with_hoeffding, with_baseline)
        for name, kwargs, label in specs
    ]


def _fmt(ln: Optional[float]) -> str:
    if ln is None:
        return "-"
    log10 = ln_to_log10(ln)
    if log10 is None or log10 > -1e-12:
        return "1"
    exp = math.floor(log10)
    mantissa = 10.0 ** (log10 - exp)
    if mantissa >= 9.995:  # would print as 10.00e-k
        mantissa /= 10.0
        exp += 1
    return f"{mantissa:.2f}e{exp:+04d}"


def format_table1(rows: Sequence[Table1Row]) -> str:
    """Render computed rows next to the paper's numbers."""
    header = (
        f"{'benchmark':<10} {'params':<14} "
        f"{'sec5.1':>11} {'paper':>11} {'sec5.2':>11} {'paper':>11} "
        f"{'baseline':>11} {'paper-prev':>11}"
    )
    lines = [header, "-" * len(header)]
    for r in rows:
        paper = r.paper
        from repro.experiments.reference import log10_to_ln

        lines.append(
            f"{r.benchmark:<10} {r.param_label:<14} "
            f"{_fmt(r.sec51_ln):>11} "
            f"{_fmt(log10_to_ln(paper.sec51_log10) if paper else None):>11} "
            f"{_fmt(r.sec52_ln):>11} "
            f"{_fmt(log10_to_ln(paper.sec52_log10) if paper else None):>11} "
            f"{_fmt(r.baseline_ln):>11} "
            f"{_fmt(log10_to_ln(paper.previous_log10) if paper else None):>11}"
            + (f"   ! {r.error}" if r.error else "")
        )
    return "\n".join(lines)
