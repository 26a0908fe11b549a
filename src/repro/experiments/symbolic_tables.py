"""Regeneration of the appendix Tables 3/4/5 (symbolic bounds).

The paper's appendix reports, for every benchmark row, the synthesized
template in symbolic form — ``exp(8 * eps * (a . v + b))`` for the
Section 5.1 algorithm (Table 3), ``exp(a . v + b)`` for Section 5.2
(Table 4) and Section 6 (Table 5).  This module renders our synthesized
certificates the same way.

Every row is one engine task (``hoeffding``/``explinsyn``/``explowsyn``),
so ``--jobs N`` fans the whole appendix out over a process pool.  The
``hoeffding`` and ``explinsyn`` tasks hash identically to Table 1's and
the ``explowsyn`` tasks to Table 2's, so a shared result cache replays
every solve of a previous numeric run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import exp_lin_syn, exp_low_syn, hoeffding_synthesis
from repro.programs import get_benchmark
from repro.experiments.table1 import TABLE1_SPECS
from repro.experiments.table2 import TABLE2_SPECS

__all__ = ["SymbolicRow", "symbolic_row_51", "symbolic_row_52", "symbolic_row_6",
           "run_symbolic_tables", "format_symbolic"]


@dataclass
class SymbolicRow:
    benchmark: str
    param_label: str
    table: str  # "3" (sec 5.1), "4" (sec 5.2), "5" (sec 6)
    rendered: str
    error: str = ""


def _render_51(eps: float, eta_init: str) -> str:
    """Table 3 style: ``exp(8 * eps * (eta))`` at the initial location."""
    inner = eta_init[len("exp(") : -1]
    return f"exp(8 * {eps:.3g} * ({inner}))"


def symbolic_row_51(name: str, kwargs: Dict, label: str) -> SymbolicRow:
    """Table 3 row via the direct API (tests and one-off exploration)."""
    inst = get_benchmark(name, **kwargs)
    try:
        cert = hoeffding_synthesis(inst.pts, inst.invariants)
        eta = cert.reprsm.eta.render(inst.pts.init_location)
        return SymbolicRow(name, label, "3", _render_51(cert.reprsm.eps, eta))
    except Exception as exc:
        return SymbolicRow(name, label, "3", "", error=str(exc))


def symbolic_row_52(name: str, kwargs: Dict, label: str) -> SymbolicRow:
    """Table 4 style: the pre fixed-point exponent at the initial location."""
    inst = get_benchmark(name, **kwargs)
    try:
        cert = exp_lin_syn(inst.pts, inst.invariants)
        rendered = cert.state_function.render(inst.pts.init_location)
        return SymbolicRow(name, label, "4", rendered)
    except Exception as exc:
        return SymbolicRow(name, label, "4", "", error=str(exc))


def symbolic_row_6(name: str, kwargs: Dict, label: str) -> SymbolicRow:
    """Table 5 style: the post fixed-point exponent at the initial location."""
    inst = get_benchmark(name, **kwargs)
    try:
        cert = exp_low_syn(inst.pts, inst.invariants)
        rendered = cert.state_function.render(inst.pts.init_location)
        return SymbolicRow(name, label, "5", rendered)
    except Exception as exc:
        return SymbolicRow(name, label, "5", "", error=str(exc))


def _assemble(table: str, name: str, label: str, result) -> SymbolicRow:
    if not result.ok:
        return SymbolicRow(name, label, table, "", error=result.error)
    init = result.details.get("init_location", "")
    if table == "3":
        eta_init = result.details.get("reprsm_eta_init")
        if eta_init is None:
            return SymbolicRow(
                name, label, table, "",
                error="no RepRSM data (trivial or unreachable-failure certificate)",
            )
        return SymbolicRow(
            name, label, table, _render_51(result.details["reprsm_eps"], eta_init)
        )
    return SymbolicRow(name, label, table, result.template_renders[init])


def run_symbolic_tables(
    include_table3: bool = True,
    include_table4: bool = True,
    include_table5: bool = True,
    specs1: Optional[Sequence[Tuple[str, Dict, str]]] = None,
    specs2: Optional[Sequence[Tuple[str, Dict, str]]] = None,
    jobs: int = 1,
    engine=None,
) -> List[SymbolicRow]:
    """Render all requested symbolic tables through the analysis engine."""
    from repro.engine import AnalysisTask, ProgramSpec, engine_scope

    specs1 = list(specs1 if specs1 is not None else TABLE1_SPECS)
    specs2 = list(specs2 if specs2 is not None else TABLE2_SPECS)
    plan: List[Tuple[str, str, str, str]] = []  # (table, name, label, task_id)
    tasks = []
    for name, kwargs, label in specs1:
        spec = ProgramSpec.benchmark(name, **kwargs)
        if include_table3:
            task = AnalysisTask.make("hoeffding", spec, task_id=f"sym3/{name}/{label}")
            tasks.append(task)
            plan.append(("3", name, label, task.task_id))
        if include_table4:
            task = AnalysisTask.make("explinsyn", spec, task_id=f"sym4/{name}/{label}")
            tasks.append(task)
            plan.append(("4", name, label, task.task_id))
    if include_table5:
        for name, kwargs, label in specs2:
            spec = ProgramSpec.benchmark(name, **kwargs)
            task = AnalysisTask.make("explowsyn", spec, task_id=f"sym5/{name}/{label}")
            tasks.append(task)
            plan.append(("5", name, label, task.task_id))
    with engine_scope(engine, jobs=jobs) as eng:
        results = eng.run(tasks)
    return [
        _assemble(table, name, label, results[task_id])
        for table, name, label, task_id in plan
    ]


def format_symbolic(rows: Sequence[SymbolicRow]) -> str:
    lines = [f"{'tbl':<4} {'benchmark':<10} {'params':<14} symbolic bound"]
    lines.append("-" * 72)
    for r in rows:
        body = r.rendered if not r.error else f"(failed: {r.error})"
        lines.append(f"{r.table:<4} {r.benchmark:<10} {r.param_label:<14} {body}")
    return "\n".join(lines)
