"""Compiler from the surface language AST to probabilistic transition systems.

The construction is a standard control-flow-graph build followed by two
clean-up passes that make the emitted PTS match the compact hand-built
systems of the paper:

* **location elision** fuses chains of unconditional deterministic updates
  (so ``x, y := x+1, y+2`` inside a probabilistic branch lands directly on
  the fork, like Figure 1's PTS);
* **initial folding** constant-folds leading deterministic assignments into
  the initial valuation (so ``x := 40; y := 0; while ...`` yields
  ``v_init = (40, 0)`` at the loop head, exactly as in the paper).

Guard construction and the complement convention
------------------------------------------------
Branch/assert conditions are arbitrary boolean combinations of affine
comparisons.  They are compiled into *disjoint* cells by a decision-tree
expansion over the atoms, so compiled PTSs satisfy the paper's
mutual-exclusivity assumption by construction.  Complements of non-strict
atoms are strict; polyhedra are closed, so a strict atom ``e < 0`` becomes

* ``e <= -1`` when ``integer_mode=True`` and ``e`` has integral
  coefficients (the convention for integer-stepped programs — the paper's
  Figure 1 turns ``not (x <= 99)`` into ``x >= 100`` this way), and
* the closed relaxation ``e <= 0`` otherwise, leaving a measure-zero
  boundary overlap that the simulator resolves by first-match and that does
  not affect the synthesized bounds (they are one-sided).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import CompileError
from repro.lang import ast
from repro.polyhedra.constraints import AffineIneq, Polyhedron
from repro.polyhedra.linexpr import LinExpr
from repro.pts.distributions import Distribution
from repro.pts.model import FAIL, TERM, AffineUpdate, Fork, PTS, Transition
from repro.utils.numbers import is_integral

__all__ = ["CompilationResult", "compile_program", "compile_source"]


@dataclass
class CompilationResult:
    """A compiled PTS plus source-level invariant annotations.

    ``invariants`` maps loop-head locations to the polyhedra written in
    ``while ... invariant ...`` clauses; the synthesis front-ends merge them
    with automatically generated invariants.
    """

    pts: PTS
    invariants: Dict[str, Polyhedron] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# guard cells
# ---------------------------------------------------------------------------


def _atom_to_ineq(atom: ast.Atom, integer_mode: bool) -> AffineIneq:
    if not atom.strict:
        return AffineIneq(atom.expr)
    expr = atom.expr
    if integer_mode and all(
        is_integral(c) for c in list(expr.coeffs.values()) + [expr.const]
    ):
        return AffineIneq(expr + 1)  # e < 0 over integers is e <= -1
    return AffineIneq(expr)  # closed relaxation


def split_cells(
    cond: ast.BoolExpr, variables: Sequence[str], integer_mode: bool
) -> Tuple[List[Polyhedron], List[Polyhedron]]:
    """Disjoint polyhedral cells where ``cond`` is true / false.

    Decision-tree expansion over the distinct atoms; empty cells are pruned
    with the exact double-description check.  The union of all returned
    cells covers the whole space and the true-cells cover exactly the
    (closed relaxation of the) satisfying region.
    """
    atoms = ast.atoms_of(cond)
    if len(atoms) > 12:
        raise CompileError(
            f"guard with {len(atoms)} distinct atoms would expand into "
            f"2^{len(atoms)} cells; simplify the condition"
        )
    true_cells: List[Polyhedron] = []
    false_cells: List[Polyhedron] = []

    def evaluate(expr: ast.BoolExpr, assignment: Dict[ast.Atom, bool]) -> bool:
        if isinstance(expr, ast.Atom):
            if expr in assignment:
                return assignment[expr]
            return not assignment[expr.negate()]
        if isinstance(expr, ast.BoolConst):
            return expr.value
        if isinstance(expr, ast.And):
            return all(evaluate(o, assignment) for o in expr.operands)
        if isinstance(expr, ast.Or):
            return any(evaluate(o, assignment) for o in expr.operands)
        if isinstance(expr, ast.Not):
            return not evaluate(expr.operand, assignment)
        raise CompileError(f"unsupported boolean node {expr!r}")

    def rec(index: int, assignment: Dict[ast.Atom, bool], ineqs: List[AffineIneq]) -> None:
        if index == len(atoms):
            cell = Polyhedron(variables, ineqs)
            if cell.is_empty():
                return
            (true_cells if evaluate(cond, assignment) else false_cells).append(cell)
            return
        atom = atoms[index]
        rec(
            index + 1,
            {**assignment, atom: True},
            ineqs + [_atom_to_ineq(atom, integer_mode)],
        )
        rec(
            index + 1,
            {**assignment, atom: False},
            ineqs + [_atom_to_ineq(atom.negate(), integer_mode)],
        )

    rec(0, {}, [])
    return true_cells, false_cells


def bool_to_polyhedron(
    cond: ast.BoolExpr, variables: Sequence[str], integer_mode: bool
) -> Polyhedron:
    """A conjunction-only boolean expression as a single polyhedron."""
    ineqs: List[AffineIneq] = []

    def walk(expr: ast.BoolExpr) -> None:
        if isinstance(expr, ast.Atom):
            ineqs.append(_atom_to_ineq(expr, integer_mode))
        elif isinstance(expr, ast.BoolConst):
            if not expr.value:
                raise CompileError("invariant 'false' is not a polyhedron")
        elif isinstance(expr, ast.And):
            for o in expr.operands:
                walk(o)
        else:
            raise CompileError(
                "invariant annotations must be conjunctions of affine comparisons"
            )

    walk(cond)
    return Polyhedron(variables, ineqs)


# ---------------------------------------------------------------------------
# CFG construction
# ---------------------------------------------------------------------------


class _Compiler:
    def __init__(self, program: ast.Program, integer_mode: bool, name: str):
        self.program = program
        self.integer_mode = integer_mode
        self.name = name
        self.variables = program.variables()
        if not self.variables:
            raise CompileError("program assigns no variables")
        self.distributions: Dict[str, Distribution] = {}
        self.transitions: List[Transition] = []
        self.invariants: Dict[str, Polyhedron] = {}
        self._loc_counter = count(1)

    def fresh(self, hint: str) -> str:
        return f"l{next(self._loc_counter)}_{hint}"

    def universe(self) -> Polyhedron:
        return Polyhedron.universe(self.variables)

    def emit(
        self,
        source: str,
        guard: Polyhedron,
        forks: List[Fork],
        name: str = "",
    ) -> None:
        self.transitions.append(Transition(source, guard, forks, name=name))

    # -- statement compilation ----------------------------------------------------
    def compile(self) -> CompilationResult:
        body = [s for s in self.program.body if not isinstance(s, ast.SampleDecl)]
        for decl in self.program.sampling_declarations():
            if decl.name in self.variables:
                raise CompileError(
                    f"{decl.name!r} is used both as program and sampling variable"
                )
            self.distributions[decl.name] = decl.distribution
        init = self.fresh("init")
        self.compile_block(body, init, TERM)
        pts = PTS(
            program_vars=self.variables,
            init_location=init,
            init_valuation={v: 0 for v in self.variables},
            transitions=self.transitions,
            distributions=self.distributions,
            name=self.name,
        )
        keep = set(self.invariants)
        pts = _elide_trivial_locations(pts, keep=keep)
        pts = _propagate_guard_chains(pts, keep=keep)
        pts = _flatten_probabilistic_chains(pts, keep=keep)
        pts = _elide_trivial_locations(pts, keep=keep)
        pts = _propagate_guard_chains(pts, keep=keep)
        pts = _fold_initial(pts)
        pts = _remove_unreachable(pts)
        self.invariants = {
            loc: poly for loc, poly in self.invariants.items() if loc in pts.locations
        }
        return CompilationResult(pts=pts, invariants=self.invariants)

    def compile_block(self, stmts: Sequence[ast.Statement], entry: str, exit_: str) -> None:
        if not stmts:
            self.emit(entry, self.universe(), [Fork(exit_, 1)])
            return
        current = entry
        for i, stmt in enumerate(stmts):
            is_last = i == len(stmts) - 1
            nxt = exit_ if is_last else self.fresh("seq")
            self.compile_statement(stmt, current, nxt)
            current = nxt

    def compile_statement(self, stmt: ast.Statement, entry: str, exit_: str) -> None:
        if isinstance(stmt, ast.Assign):
            update = AffineUpdate(dict(zip(stmt.targets, stmt.values)))
            self._check_expr_vars(stmt)
            self.emit(entry, self.universe(), [Fork(exit_, 1, update)], name=f"assign@{stmt.line}")
        elif isinstance(stmt, ast.Skip):
            self.emit(entry, self.universe(), [Fork(exit_, 1)], name=f"skip@{stmt.line}")
        elif isinstance(stmt, ast.Exit):
            self.emit(entry, self.universe(), [Fork(TERM, 1)], name=f"exit@{stmt.line}")
        elif isinstance(stmt, ast.Assert):
            self.compile_assert(stmt, entry, exit_)
        elif isinstance(stmt, ast.If):
            self.compile_if(stmt, entry, exit_)
        elif isinstance(stmt, ast.ProbIf):
            self.compile_probif(stmt, entry, exit_)
        elif isinstance(stmt, ast.Switch):
            self.compile_switch(stmt, entry, exit_)
        elif isinstance(stmt, ast.While):
            self.compile_while(stmt, entry, exit_)
        elif isinstance(stmt, ast.SampleDecl):
            raise CompileError(
                f"sampling declaration for {stmt.name!r} must appear at top level"
            )
        else:  # pragma: no cover
            raise CompileError(f"unsupported statement {stmt!r}")

    def _check_expr_vars(self, stmt: ast.Assign) -> None:
        allowed = set(self.variables) | set(self.distributions)
        for expr in stmt.values:
            bad = set(expr.variables()) - allowed
            if bad:
                raise CompileError(
                    f"line {stmt.line}: assignment uses undeclared names {sorted(bad)}"
                )

    def compile_assert(self, stmt: ast.Assert, entry: str, exit_: str) -> None:
        true_cells, false_cells = split_cells(stmt.cond, self.variables, self.integer_mode)
        for i, cell in enumerate(true_cells):
            self.emit(entry, cell, [Fork(exit_, 1)], name=f"assert-pass@{stmt.line}.{i}")
        for i, cell in enumerate(false_cells):
            self.emit(entry, cell, [Fork(FAIL, 1)], name=f"assert-fail@{stmt.line}.{i}")

    def compile_if(self, stmt: ast.If, entry: str, exit_: str) -> None:
        true_cells, false_cells = split_cells(stmt.cond, self.variables, self.integer_mode)
        then_entry = self.fresh("then")
        else_entry = self.fresh("else")
        for i, cell in enumerate(true_cells):
            self.emit(entry, cell, [Fork(then_entry, 1)], name=f"if-true@{stmt.line}.{i}")
        for i, cell in enumerate(false_cells):
            self.emit(entry, cell, [Fork(else_entry, 1)], name=f"if-false@{stmt.line}.{i}")
        self.compile_block(stmt.then, then_entry, exit_)
        self.compile_block(stmt.orelse, else_entry, exit_)

    def compile_probif(self, stmt: ast.ProbIf, entry: str, exit_: str) -> None:
        if not 0 < stmt.prob <= 1:
            raise CompileError(f"line {stmt.line}: prob({stmt.prob}) outside (0, 1]")
        forks: List[Fork] = []
        then_entry = self.fresh("pthen")
        self.compile_block(stmt.then, then_entry, exit_)
        if stmt.prob == 1:
            forks.append(Fork(then_entry, 1))
        else:
            else_entry = self.fresh("pelse")
            self.compile_block(stmt.orelse, else_entry, exit_)
            forks.append(Fork(then_entry, stmt.prob))
            forks.append(Fork(else_entry, 1 - stmt.prob))
        self.emit(entry, self.universe(), forks, name=f"prob-if@{stmt.line}")

    def compile_switch(self, stmt: ast.Switch, entry: str, exit_: str) -> None:
        forks: List[Fork] = []
        for i, (p, arm) in enumerate(stmt.arms):
            arm_entry = self.fresh(f"arm{i}")
            self.compile_block(arm, arm_entry, exit_)
            forks.append(Fork(arm_entry, p))
        self.emit(entry, self.universe(), forks, name=f"switch@{stmt.line}")

    def compile_while(self, stmt: ast.While, entry: str, exit_: str) -> None:
        head = entry
        true_cells, false_cells = split_cells(stmt.cond, self.variables, self.integer_mode)
        body_entry = self.fresh("body")
        for i, cell in enumerate(true_cells):
            self.emit(head, cell, [Fork(body_entry, 1)], name=f"loop-enter@{stmt.line}.{i}")
        for i, cell in enumerate(false_cells):
            self.emit(head, cell, [Fork(exit_, 1)], name=f"loop-exit@{stmt.line}.{i}")
        self.compile_block(stmt.body, body_entry, head)
        if stmt.invariant is not None:
            self.invariants[head] = bool_to_polyhedron(
                stmt.invariant, self.variables, self.integer_mode
            )


# ---------------------------------------------------------------------------
# clean-up passes
# ---------------------------------------------------------------------------


def _compose(first: AffineUpdate, then: AffineUpdate) -> AffineUpdate:
    """The update applying ``first`` and then ``then`` (program vars only).

    Sampling variables in ``then`` are left untouched — callers must ensure
    the two updates reference disjoint sampling variables so fusing does not
    merge independent draws.
    """
    composed: Dict[str, LinExpr] = {}
    # first's targets, then then's new ones: an ordered union, so the
    # assignment order does not depend on the string hash seed
    for v in dict.fromkeys([*first.assignments, *then.assignments]):
        composed[v] = then.expr_for(v).substitute(
            {name: first.expr_for(name) for name in then.expr_for(v).variables()}
        )
    return AffineUpdate(composed)


def _sampling_vars_used(update: AffineUpdate, sampling: set) -> set:
    used = set()
    for expr in update.assignments.values():
        used |= set(expr.variables()) & sampling
    return used


def _by_source(transitions: Sequence[Transition]) -> Dict[str, List[Transition]]:
    """``transitions_from`` of a round's transition list, without building
    (and validating) a whole PTS for it."""
    index: Dict[str, List[Transition]] = {}
    for t in transitions:
        index.setdefault(t.source, []).append(t)
    return index


def _interior_locations(pts: PTS, transitions: Sequence[Transition]) -> List[str]:
    """The non-sink locations of ``transitions`` under ``pts``'s initial
    location, sorted (the order of ``PTS.interior_locations``)."""
    names = {pts.init_location}
    for t in transitions:
        names.add(t.source)
        names.update(f.destination for f in t.forks)
    names.discard(pts.term_location)
    names.discard(pts.fail_location)
    return sorted(names)


def _rebuilt(pts: PTS, transitions: Sequence[Transition]) -> PTS:
    """``pts`` with its transitions replaced (validated once, per pass)."""
    return PTS(
        pts.program_vars,
        pts.init_location,
        pts.init_valuation,
        transitions,
        pts.distributions,
        name=pts.name,
    )


def _is_trivial(by_source: Dict[str, List[Transition]], loc: str) -> Optional[Fork]:
    """The single unconditional deterministic fork out of ``loc``, if any."""
    ts = by_source.get(loc, ())
    if len(ts) != 1:
        return None
    t = ts[0]
    if t.guard.inequalities or len(t.forks) != 1:
        return None
    fork = t.forks[0]
    if fork.destination == loc:
        return None
    return fork


def _elide_trivial_locations(pts: PTS, keep: set) -> PTS:
    """Fuse chains of unconditional deterministic transitions."""
    sampling = set(pts.distributions)
    changed = True
    transitions = list(pts.transitions)
    while changed:
        changed = False
        by_source = _by_source(transitions)
        for loc in _interior_locations(pts, transitions):
            if loc == pts.init_location or loc in keep:
                continue
            through = _is_trivial(by_source, loc)
            if through is None:
                continue
            through_samples = _sampling_vars_used(through.update, sampling)
            new_transitions: List[Transition] = []
            redirected = False
            ok = True
            for t in transitions:
                if t.source == loc:
                    new_transitions.append(t)
                    continue
                new_forks = []
                for f in t.forks:
                    if f.destination == loc:
                        if through_samples & _sampling_vars_used(f.update, sampling):
                            ok = False  # would merge two independent draws
                            break
                        new_forks.append(
                            Fork(
                                through.destination,
                                f.probability,
                                _compose(f.update, through.update),
                            )
                        )
                        redirected = True
                    else:
                        new_forks.append(f)
                if not ok:
                    break
                new_transitions.append(Transition(t.source, t.guard, new_forks, name=t.name))
            if ok and redirected:
                # drop the now-bypassed location's own transition
                transitions = [t for t in new_transitions if t.source != loc]
                changed = True
                break
    return _rebuilt(pts, transitions)


def _substitute_guard(
    guard: Polyhedron, update: AffineUpdate, pulled: Dict[Tuple, AffineIneq]
) -> List[AffineIneq]:
    """The weakest precondition of ``guard`` under a deterministic update,
    atom by atom.  ``pulled`` holds the atoms already pulled back through
    ``update``, keyed by content and coefficient order (the order the
    result's coefficients follow), so each distinct atom is substituted
    once."""
    ineqs = []
    for ineq in guard.inequalities:
        expr = ineq.expr
        key = expr.ordered_key()
        atom = pulled.get(key)
        if atom is None:
            mapping = {name: update.expr_for(name) for name in expr.variables()}
            atom = pulled[key] = AffineIneq(expr.substitute(mapping))
        ineqs.append(atom)
    return ineqs


def _propagate_guard_chains(pts: PTS, keep: set, max_rounds: int = 40) -> PTS:
    """Inline pure guard-dispatcher locations into their predecessors.

    A location ``l`` qualifies when every outgoing transition is a single
    deterministic prob-1 fork (assert and if-chains compile to this shape)
    and every *incoming* fork is itself a deterministic prob-1 sampling-free
    fork.  Each incoming transition is then split along ``l``'s guard cells,
    with the guards pulled back through the incoming update (weakest
    precondition).  This recovers the paper's PTS shape, e.g. Figure 1's
    direct ``l_init --(x<=99 and y>=100)--> l_fail`` edge, and — crucially —
    lets box invariants suffice where the intermediate location would have
    needed a relational invariant.
    """
    sampling = set(pts.distributions)
    transitions = list(pts.transitions)
    for _ in range(max_rounds):
        by_source = _by_source(transitions)
        target = None
        for loc in _interior_locations(pts, transitions):
            if loc == pts.init_location or loc in keep:
                continue
            outgoing = by_source.get(loc)
            if not outgoing:
                continue
            if not all(
                len(t.forks) == 1
                and t.forks[0].probability == 1
                and t.forks[0].destination != loc
                for t in outgoing
            ):
                continue
            incoming = [
                (t, f)
                for t in transitions
                for f in t.forks
                if f.destination == loc and t.source != loc
            ]
            if not incoming:
                continue
            if not all(
                len(t.forks) == 1
                and f.probability == 1
                and not _sampling_vars_used(f.update, sampling)
                for t, f in incoming
            ):
                continue
            target = loc
            break
        if target is None:
            break
        outgoing = by_source[target]
        rewritten: List[Transition] = []
        for t in transitions:
            if t.source == target:
                continue  # bypassed; dropped once unreachable
            fork = t.forks[0] if len(t.forks) == 1 else None
            if fork is None or fork.destination != target:
                rewritten.append(t)
                continue
            pulled: Dict[Tuple, AffineIneq] = {}
            for out in outgoing:
                guard = Polyhedron(
                    pts.program_vars,
                    list(t.guard.inequalities)
                    + _substitute_guard(out.guard, fork.update, pulled),
                )
                if guard.is_empty():
                    continue
                rewritten.append(
                    Transition(
                        t.source,
                        guard,
                        [
                            Fork(
                                out.forks[0].destination,
                                1,
                                _compose(fork.update, out.forks[0].update),
                            )
                        ],
                        name=f"{t.name}>{out.name}",
                    )
                )
        transitions = rewritten
    return _rebuilt(pts, transitions)


def _flatten_probabilistic_chains(pts: PTS, keep: set, max_rounds: int = 200) -> PTS:
    """Merge chains of unconditional probabilistic transitions into one fork set.

    Whenever a fork ``f`` (with a sampling-free update) lands on an interior
    location ``m`` whose *only* behaviour is a single always-enabled
    transition, ``f`` is replaced by that transition's forks with composed
    updates and multiplied probabilities.  Nested ``switch``/``prob``
    branches thus collapse into the single multi-fork transitions of the
    paper's hand-built PTSs (e.g. 3DWalk's one switch node with
    probabilities .45/.45/.05/.05), which both shrinks the template count
    and removes per-location constraint pessimism.
    """
    sampling = set(pts.distributions)
    sinks = (pts.term_location, pts.fail_location)
    transitions = list(pts.transitions)
    for _ in range(max_rounds):
        by_source = _by_source(transitions)
        flattened = False
        new_transitions: List[Transition] = []
        for t in transitions:
            new_forks: List[Fork] = []
            changed = False
            for f in t.forks:
                m = f.destination
                if m == t.source or m in keep or m in sinks or m == pts.init_location:
                    new_forks.append(f)
                    continue
                outgoing = by_source.get(m, ())
                if len(outgoing) != 1 or outgoing[0].guard.inequalities:
                    new_forks.append(f)
                    continue
                through = outgoing[0]
                if any(fk.destination == m for fk in through.forks):
                    new_forks.append(f)
                    continue
                f_samples = _sampling_vars_used(f.update, sampling)
                conflict = any(
                    f_samples & _sampling_vars_used(fk.update, sampling)
                    for fk in through.forks
                )
                if f_samples and conflict:
                    new_forks.append(f)
                    continue
                for fk in through.forks:
                    new_forks.append(
                        Fork(
                            fk.destination,
                            f.probability * fk.probability,
                            _compose(f.update, fk.update),
                        )
                    )
                changed = True
            if changed:
                flattened = True
                # merge forks with identical destination and update
                merged: List[Fork] = []
                for fork in new_forks:
                    for i, existing in enumerate(merged):
                        if (
                            existing.destination == fork.destination
                            and existing.update == fork.update
                        ):
                            merged[i] = Fork(
                                existing.destination,
                                existing.probability + fork.probability,
                                existing.update,
                            )
                            break
                    else:
                        merged.append(fork)
                new_transitions.append(Transition(t.source, t.guard, merged, name=t.name))
            else:
                new_transitions.append(t)
        transitions = new_transitions
        if not flattened:
            break
    return _rebuilt(pts, transitions)


def _fold_initial(pts: PTS) -> PTS:
    """Constant-fold leading deterministic sampling-free updates into v_init."""
    sampling = set(pts.distributions)
    init_loc = pts.init_location
    init_val = dict(pts.init_valuation)
    transitions = list(pts.transitions)
    while True:
        fork = _is_trivial(_by_source(transitions), init_loc)
        if fork is None or _sampling_vars_used(fork.update, sampling):
            break
        # folding is only safe when nothing else jumps back to the old init
        incoming = any(
            f.destination == init_loc for t in transitions for f in t.forks
        )
        if incoming:
            break
        init_val = fork.update.apply(init_val)
        transitions = [t for t in transitions if t.source != init_loc]
        init_loc = fork.destination
        if init_loc in (pts.term_location, pts.fail_location):
            break
    if init_loc in (pts.term_location, pts.fail_location):
        # degenerate program that terminates immediately: keep a stub
        stub = "l0_init"
        transitions = [
            Transition(stub, Polyhedron.universe(pts.program_vars), [Fork(init_loc, 1)])
        ]
        init_loc = stub
    return PTS(
        pts.program_vars, init_loc, init_val, transitions, pts.distributions, name=pts.name
    )


def _remove_unreachable(pts: PTS) -> PTS:
    """Drop locations not reachable from the initial location."""
    reachable = {pts.init_location}
    frontier = [pts.init_location]
    while frontier:
        loc = frontier.pop()
        for t in pts.transitions_from(loc):
            for f in t.forks:
                if f.destination not in reachable:
                    reachable.add(f.destination)
                    frontier.append(f.destination)
    return _rebuilt(pts, [t for t in pts.transitions if t.source in reachable])


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def compile_program(
    program: ast.Program, integer_mode: bool = True, name: str = "program"
) -> CompilationResult:
    """Compile a parsed program to a PTS (with invariant annotations)."""
    return _Compiler(program, integer_mode, name).compile()


def compile_source(
    source: str, integer_mode: bool = True, name: str = "program"
) -> CompilationResult:
    """Parse and compile source text in one call."""
    from repro.lang.parser import parse_program

    return compile_program(parse_program(source), integer_mode=integer_mode, name=name)
