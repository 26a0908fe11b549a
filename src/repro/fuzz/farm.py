"""The differential-fuzzing farm: one generated PTS, every lowering.

Each generated program is lowered through the full explorer/solver grid
— ``fraction``, plus ``scaled`` where admitted, times
``sweep``/``auto`` — as an *engine task DAG*, so
``--jobs`` fans the grid out across workers and the engine's fault
tolerance (retries, deadlines, pool self-healing) applies to fuzz runs
exactly as it does to production tables.  The oracle stack, cheapest
first:

1. **admission differential** — :func:`repro.core.runcert.derive_admission`
   independently predicts whether the forced lattice mode must run or
   refuse; the engine disagreeing either way is a finding in itself;
2. **bracket cross-check** — all surviving brackets must pairwise
   overlap (they bound the same truncated-model value), forced explorers
   must reproduce the Fraction BFS fragment exactly (same states, same
   truncation), and no solver may escape the sweep baseline outward
   beyond tolerance;
3. **certificate check** — every successful run's
   :class:`~repro.core.runcert.RunCertificate` is verified by the
   independent checker against a locally compiled PTS (translation
   validation instead of a bitwise re-run).

A discrepancy is shrunk to a locally-minimal reproducer
(:mod:`repro.fuzz.shrink`) and archived with its replay triple
(:mod:`repro.fuzz.corpus`).  ``inject`` plants a synthetic
bracket-overlap violation in matching programs — the self-test that the
detect -> shrink -> archive path works end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError

from . import corpus as corpus_mod
from .generators import (
    FAMILIES,
    GENERATOR_VERSION,
    GeneratedProgram,
    corpus_plan,
)
from .shrink import shrink_source

#: every solver mode of `iterate_model` the farm forces per explorer.
DEFAULT_SOLVERS: Tuple[str, ...] = ("sweep", "auto")

#: bracket-overlap tolerance: every surviving bracket bounds the same
#: truncated-model value, so intersections only fail by engine bugs.
OVERLAP_TOL = 1e-9

#: outward-escape tolerance vs the fraction/sweep baseline: the
#: certifier's slack budget ``repro.core.solvers.SLACK_CAP``, spelled as
#: a literal so importing the farm does not import ``repro.core``.
ESCAPE_TOL = 1e-9


@dataclass
class Discrepancy:
    """One cross-check violation, plus its shrunk reproducer."""

    name: str
    family: str
    seed: int
    kind: str
    detail: str
    injected: bool = False
    shrunk_source: Optional[str] = None


@dataclass
class ProgramVerdict:
    program: GeneratedProgram
    cells: List[Dict[str, Any]] = field(default_factory=list)
    discrepancies: List[Discrepancy] = field(default_factory=list)
    admission: str = ""  # the lattice tag ("int64" | "scaled") or "none"

    @property
    def ok_runs(self) -> int:
        return sum(1 for c in self.cells if c["ok"])

    @property
    def refusals_confirmed(self) -> int:
        return sum(
            1 for c in self.cells if c["expected"] == "refuse" and not c["ok"]
        )

    @property
    def certificates_verified(self) -> int:
        return sum(1 for c in self.cells if c.get("cert_ok"))


@dataclass
class FarmReport:
    seed: int
    count: int
    families: Tuple[str, ...]
    jobs: int
    max_states: int
    generator_version: str = GENERATOR_VERSION
    verdicts: List[ProgramVerdict] = field(default_factory=list)
    corpus_dir: Optional[str] = None
    failure_dir: Optional[str] = None

    @property
    def discrepancies(self) -> List[Discrepancy]:
        return [d for v in self.verdicts for d in v.discrepancies]

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def render(self) -> List[str]:
        fams = ",".join(self.families)
        lines = [
            f"fuzz farm: seed={self.seed} count={self.count} families={fams} "
            f"generator={self.generator_version} jobs={self.jobs} "
            f"max-states={self.max_states}"
        ]
        for v in self.verdicts:
            grid = f"{v.ok_runs} ok"
            if v.refusals_confirmed:
                grid += f" + {v.refusals_confirmed} refusal(s) confirmed"
            status = "ok" if not v.discrepancies else "DISCREPANT"
            lines.append(
                f"  {v.program.name:<28} {v.program.family:<13} "
                f"lattice={v.admission:<8} runs={grid:<28} "
                f"certs={v.certificates_verified:<3} {status}"
            )
        per_family: Dict[str, int] = {}
        for v in self.verdicts:
            per_family[v.program.family] = per_family.get(v.program.family, 0) + 1
        fam_summary = ", ".join(f"{n} {f}" for f, n in sorted(per_family.items()))
        total_cells = sum(len(v.cells) for v in self.verdicts)
        ok_cells = sum(v.ok_runs for v in self.verdicts)
        refusals = sum(v.refusals_confirmed for v in self.verdicts)
        certs = sum(v.certificates_verified for v in self.verdicts)
        lines += [
            f"programs      : {len(self.verdicts)} ({fam_summary})",
            f"engine runs   : {ok_cells} ok / {total_cells} "
            f"({refusals} expected refusal(s) confirmed)",
            f"certificates  : {certs} verified",
            f"discrepancies : {len(self.discrepancies)}",
        ]
        for d in self.discrepancies:
            tag = " [injected]" if d.injected else ""
            lines.append(f"  !! {d.name} {d.kind}{tag}: {d.detail}")
            if d.shrunk_source is not None:
                size = len(d.shrunk_source.split("\n"))
                lines.append(f"     shrunk reproducer: {size} line(s)")
        if self.corpus_dir:
            lines.append(f"corpus        : {len(self.verdicts)} entries -> {self.corpus_dir}")
        if self.failure_dir and self.discrepancies:
            lines.append(f"failures      : archived -> {self.failure_dir}")
        return lines


# ---------------------------------------------------------------------------
# admission prediction (the checker side of the differential)


def _expectations(pts) -> Tuple[Dict[str, str], str]:
    """Whether each forced explorer must run ("ok") or refuse ("refuse"),
    derived by the *checker's* admission logic — never the engine's — plus
    the admitted lattice tag or the rejection reason."""
    from repro.core.runcert import derive_admission

    record, reason = derive_admission(pts)
    if record is None:
        return {"fraction": "ok", "scaled": "refuse"}, reason or "inadmissible"
    return {"fraction": "ok", "scaled": "ok"}, record["lattice"]


def _grid(expect: Dict[str, str], solvers: Sequence[str]):
    for explore, expected in expect.items():
        # a refusal is mode-level, not solver-level: probe it once
        for solver in (solvers if expected == "ok" else solvers[:1]):
            yield explore, solver, expected


# ---------------------------------------------------------------------------
# cell execution


_CELL_DETAIL_KEYS = (
    "lower",
    "upper",
    "states",
    "iterations",
    "truncated",
    "solver",
    "certified",
    "explorer",
)


def _cell_from_result(explore: str, solver: str, expected: str, res) -> Dict[str, Any]:
    cell: Dict[str, Any] = {
        "explore": explore,
        "solver": solver,
        "expected": expected,
        "ok": res.status == "ok",
        "error": res.error,
        "error_type": res.error_type,
    }
    if res.status == "ok":
        cell.update({k: (res.details or {}).get(k) for k in _CELL_DETAIL_KEYS})
        cell["run_certificate"] = res.run_certificate
    return cell


def _direct_cell(
    pts,
    explore: str,
    solver: str,
    expected: str,
    max_states: int,
    source: str,
    integer_mode: bool,
    name: str,
) -> Dict[str, Any]:
    """In-process execution of one grid cell — the shrink predicate's
    engine-free twin of :func:`repro.core.runcert.synthesize_exact`."""
    from repro.core.fixpoint import build_sparse_model, iterate_model
    from repro.core.runcert import emit_run_certificate

    cell: Dict[str, Any] = {
        "explore": explore,
        "solver": solver,
        "expected": expected,
    }
    try:
        model = build_sparse_model(pts, max_states=max_states, explore=explore)
        result = iterate_model(model, solver=solver)
    except ReproError as exc:
        cell.update(ok=False, error=str(exc), error_type=type(exc).__name__)
        return cell
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
    cell.update(
        ok=True,
        error="",
        error_type="",
        lower=result.lower,
        upper=result.upper,
        states=result.states,
        iterations=result.iterations,
        truncated=result.truncated,
        solver=result.solver,
        certified=result.certified,
        explorer=model.explored_via,
        run_certificate=cert.as_dict(),
    )
    return cell


# ---------------------------------------------------------------------------
# cross-checks


def _apply_injection(cells: List[Dict[str, Any]]) -> None:
    """The synthetic-discrepancy hook: corrupt the baseline cell's
    observed bracket so the overlap check must fire.  Deterministic, so
    the shrinker's re-checks reproduce it on every candidate."""
    for cell in cells:
        if cell["ok"] and cell["explore"] == "fraction":
            cell["lower"] = float(cell["upper"]) + 0.5
            cell["injected"] = True
            return


def cross_check_cells(
    cells: List[Dict[str, Any]],
    inject: bool = False,
    admission_reason: str = "",
) -> List[Tuple[str, str]]:
    """The bracket/admission oracle over normalized grid cells.

    Returns ``(kind, detail)`` pairs; empty means every check passed.
    """
    discs: List[Tuple[str, str]] = []
    if inject:
        _apply_injection(cells)

    ok_cells = [c for c in cells if c["ok"]]
    for cell in cells:
        where = f"{cell['explore']}/{cell['solver']}"
        if cell["expected"] == "refuse" and cell["ok"]:
            discs.append(
                (
                    "admission-mismatch",
                    f"forced {cell['explore']} ran although the checker derives "
                    f"inadmissibility ({admission_reason})",
                )
            )
        elif cell["expected"] == "refuse" and cell["error_type"] != "ModelError":
            discs.append(
                (
                    "task-error",
                    f"{where}: refused with {cell['error_type']} instead of "
                    f"ModelError: {cell['error']}",
                )
            )
        elif cell["expected"] == "ok" and not cell["ok"]:
            if "overflow" in (cell["error"] or "").lower():
                # static admission passed but the run overflowed the
                # lattice limits at runtime — a legitimate conservative
                # refusal, not a bug
                cell["overflow_refusal"] = True
            else:
                discs.append(
                    (
                        "task-error",
                        f"{where}: expected to run but failed with "
                        f"{cell['error_type']}: {cell['error']}",
                    )
                )

    if ok_cells:
        # 1. pairwise overlap: every bracket bounds the same value
        lo_cell = max(ok_cells, key=lambda c: c["lower"])
        hi_cell = min(ok_cells, key=lambda c: c["upper"])
        if lo_cell["lower"] > hi_cell["upper"] + OVERLAP_TOL:
            discs.append(
                (
                    "bracket-overlap",
                    f"{lo_cell['explore']}/{lo_cell['solver']} lower "
                    f"{lo_cell['lower']:.9f} > "
                    f"{hi_cell['explore']}/{hi_cell['solver']} upper "
                    f"{hi_cell['upper']:.9f}",
                )
            )
        # 2. explorer identity: forced modes replay the Fraction BFS
        # fragment exactly (bench asserts the same vs the reference)
        by_solver: Dict[str, List[Dict[str, Any]]] = {}
        for c in ok_cells:
            by_solver.setdefault(c["solver"] or "", []).append(c)
        for solver, group in by_solver.items():
            states = {c["states"] for c in group}
            truncated = {c["truncated"] for c in group}
            if len(states) > 1 or len(truncated) > 1:
                shapes = ", ".join(
                    f"{c['explore']}:{c['states']}{'T' if c['truncated'] else ''}"
                    for c in group
                )
                discs.append(
                    (
                        "explorer-divergence",
                        f"solver {solver}: explorers disagree on the explored "
                        f"fragment ({shapes})",
                    )
                )
        # 3. outward escape vs the fraction/sweep baseline
        baseline = next(
            (
                c
                for c in ok_cells
                if c["explore"] == "fraction" and c["solver"] in ("sweep", None)
            ),
            ok_cells[0],
        )
        for c in ok_cells:
            if c is baseline:
                continue
            if (
                c["lower"] < baseline["lower"] - ESCAPE_TOL
                or c["upper"] > baseline["upper"] + ESCAPE_TOL
            ):
                discs.append(
                    (
                        "outward-escape",
                        f"{c['explore']}/{c['solver']} bracket "
                        f"[{c['lower']:.9f}, {c['upper']:.9f}] escapes baseline "
                        f"[{baseline['lower']:.9f}, {baseline['upper']:.9f}]",
                    )
                )
    return discs


def _check_certificates(pts, cells: List[Dict[str, Any]]) -> List[Tuple[str, str]]:
    """Verify every successful cell's RunCertificate with the independent
    checker — the translation-validation oracle."""
    from repro.core.runcert import RunCertificate, verify_run_certificate

    discs: List[Tuple[str, str]] = []
    for cell in cells:
        if not cell.get("ok") or not cell.get("run_certificate"):
            continue
        cert = RunCertificate.from_dict(cell["run_certificate"])
        report = verify_run_certificate(cert, pts=pts)
        cell["cert_ok"] = report.ok
        if not report.ok:
            first = report.failures[0] if report.failures else ("?", "?")
            discs.append(
                (
                    "certificate",
                    f"{cell['explore']}/{cell['solver']}: certificate rejected "
                    f"({first[0]}: {first[1]})",
                )
            )
    return discs


# ---------------------------------------------------------------------------
# the serial re-check (shared by the shrink predicate)


def check_source(
    source: str,
    integer_mode: bool,
    max_states: int,
    solvers: Sequence[str] = ("sweep",),
    inject: bool = False,
    name: str = "candidate",
) -> List[Tuple[str, str]]:
    """Compile + grid + cross-check + certify one program in-process.

    This is the farm distilled to a pure function of source text — the
    shrinker calls it on every reduction candidate.
    """
    from repro.lang import compile_source

    try:
        pts = compile_source(source, integer_mode=integer_mode, name=name).pts
    except ReproError as exc:
        return [("compile-error", f"{type(exc).__name__}: {exc}")]
    expect, admission = _expectations(pts)
    cells = [
        _direct_cell(pts, explore, solver, expected, max_states, source, integer_mode, name)
        for explore, solver, expected in _grid(expect, solvers)
    ]
    discs = cross_check_cells(cells, inject=inject, admission_reason=admission)
    discs += _check_certificates(pts, cells)
    return discs


def _shrink_predicate(kind: str, integer_mode: bool, max_states: int, inject: bool):
    def predicate(candidate: str) -> bool:
        kinds = [
            k
            for k, _ in check_source(
                candidate, integer_mode, max_states=max_states, inject=inject
            )
        ]
        return kind in kinds

    return predicate


# ---------------------------------------------------------------------------
# the farm


def run_farm(
    seed: int,
    count: int,
    families: Optional[Sequence[str]] = None,
    jobs: int = 1,
    max_states: int = 4096,
    solvers: Sequence[str] = DEFAULT_SOLVERS,
    out_dir=None,
    inject: Optional[str] = None,
    shrink: bool = True,
    engine=None,
) -> FarmReport:
    """Generate ``count`` programs and differential-check every lowering.

    ``inject`` plants a synthetic bracket corruption into every program
    whose name contains the given substring (``"*"`` matches all) — the
    end-to-end self-test of the detect -> shrink -> archive machinery.
    ``engine`` overrides the :class:`~repro.engine.engine.AnalysisEngine`
    (tests pass fault-injected ones); by default one is built from
    ``jobs``.
    """
    from repro.lang import compile_source

    chosen = tuple(families) if families else FAMILIES
    programs = corpus_plan(seed, count, chosen)
    report = FarmReport(
        seed=seed,
        count=count,
        families=chosen,
        jobs=jobs,
        max_states=max_states,
    )

    prepared = []
    for prog in programs:
        verdict = ProgramVerdict(program=prog)
        report.verdicts.append(verdict)
        try:
            pts = compile_source(
                prog.source, integer_mode=prog.integer_mode, name=prog.name
            ).pts
        except ReproError as exc:
            verdict.admission = "compile-error"
            verdict.discrepancies.append(
                Discrepancy(
                    name=prog.name,
                    family=prog.family,
                    seed=prog.seed,
                    kind="compile-error",
                    detail=f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        expect, admission = _expectations(pts)
        verdict.admission = admission if admission in ("int64", "scaled") else "none"
        prepared.append((verdict, pts, expect))

    # one engine task per grid cell: --jobs fans the whole farm out, and
    # the engine's retries/deadlines/self-healing apply to fuzz runs too
    tasks, meta = [], []
    for verdict, pts, expect in prepared:
        prog = verdict.program
        from repro.engine.task import AnalysisTask, ProgramSpec

        spec = ProgramSpec.from_source(
            prog.source,
            name=prog.name,
            integer_mode=prog.integer_mode,
        )
        for explore, solver, expected in _grid(expect, solvers):
            tasks.append(
                AnalysisTask.make(
                    "exact",
                    spec,
                    params={
                        "max_states": max_states,
                        "explore": explore,
                        "solver": solver,
                    },
                    task_id=f"fuzz/{prog.name}/{explore}/{solver}",
                    cacheable=False,
                )
            )
            meta.append((verdict, explore, solver, expected))

    results = _execute(tasks, jobs, engine)
    for (verdict, explore, solver, expected), res in zip(meta, results):
        verdict.cells.append(_cell_from_result(explore, solver, expected, res))

    for verdict, pts, expect in prepared:
        prog = verdict.program
        injected = inject is not None and (inject == "*" or inject in prog.name)
        _, admission = _expectations(pts)
        pairs = cross_check_cells(
            verdict.cells, inject=injected, admission_reason=admission
        )
        pairs += _check_certificates(pts, verdict.cells)
        # one finding per kind per program: a single corrupted bracket
        # trips the overlap *and* every pairwise escape check, but those
        # are the same bug — shrink and archive it once
        seen = set()
        pairs = [(k, d) for k, d in pairs if not (k in seen or seen.add(k))]
        for kind, detail in pairs:
            disc = Discrepancy(
                name=prog.name,
                family=prog.family,
                seed=prog.seed,
                kind=kind,
                detail=detail,
                injected=injected,
            )
            if shrink:
                disc.shrunk_source = shrink_source(
                    prog.source,
                    _shrink_predicate(
                        kind, prog.integer_mode, max_states, injected
                    ),
                )
            verdict.discrepancies.append(disc)

    if out_dir is not None:
        _archive(report, Path(out_dir))
    return report


def _execute(tasks, jobs: int, engine=None):
    if not tasks:
        return []
    if engine is not None:
        return engine.map(tasks)
    from repro.engine.engine import AnalysisEngine

    with AnalysisEngine.with_jobs(jobs) as eng:
        return eng.map(tasks)


def _archive(report: FarmReport, out_dir: Path) -> None:
    corpus_dir = out_dir / "corpus"
    failure_dir = out_dir / "failures"
    for verdict in report.verdicts:
        prog = verdict.program
        extra = {
            "farm": {
                "farm_seed": report.seed,
                "max_states": report.max_states,
                "admission": verdict.admission,
                "ok_runs": verdict.ok_runs,
                "refusals_confirmed": verdict.refusals_confirmed,
                "certificates_verified": verdict.certificates_verified,
                "discrepancies": [d.kind for d in verdict.discrepancies],
            }
        }
        corpus_mod.write_entry(
            corpus_dir / f"{prog.name}.json", corpus_mod.corpus_entry(prog, extra)
        )
        for i, disc in enumerate(verdict.discrepancies):
            corpus_mod.write_entry(
                failure_dir / f"{prog.name}-{disc.kind}-{i}.json",
                corpus_mod.failure_entry(
                    prog,
                    disc.kind,
                    disc.detail,
                    shrunk_source=disc.shrunk_source,
                    injected=disc.injected,
                ),
            )
    report.corpus_dir = str(corpus_dir)
    if report.discrepancies:
        report.failure_dir = str(failure_dir)
