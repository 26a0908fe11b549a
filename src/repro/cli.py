"""Command-line interface: ``python -m repro <command> <file>``.

Commands
--------

``compile``    parse a program and print the compiled transition system
``analyze``    synthesize assertion-violation bounds (upper and/or lower);
               ``--jobs N`` solves the independent eps-probe LPs of the
               Hoeffding ternary search concurrently, ``--cache`` replays
               identical analyses from disk
``simulate``   Monte-Carlo estimate of the violation probability
``exact``      value-iteration bracket on the violation probability
               (``--certificate PATH`` also emits the run certificate)
``verify-certificate``
               independently check a run certificate — re-derive the
               admission bounds and replay the frontier digests without
               re-running exploration; exit 0 pass / 1 fail / 2 not found
``fuzz``       differential-fuzzing farm: generate workloads, run every
               explorer/solver lowering as an engine task DAG, cross-check
               brackets and verify every run certificate; discrepancies
               shrink to minimal reproducers and are archived with their
               replay seed
``bench``      time the sparse fixpoint engine (vs the legacy reference)
               and append the results to ``BENCH_fixpoint.json``
``selftest``   one fast task per synthesis family through the analysis
               engine — a pre-push smoke gate (< 60 s)
``workers``    manage the persistent worker service (``start|stop|status``)
               that keeps a warm process pool alive *across* CLI
               invocations; route analyses to it with ``analyze --workers``
``cache``      inspect (``stats``, incl. certificate-sidecar coverage) or
               size-bound (``gc``) the on-disk result cache — eviction is
               LRU by mtime under a byte budget, sidecars co-evicted

Programs are written in the paper's surface syntax, e.g.::

    x := 40
    y := 0
    while x <= 99 and y <= 99:
        if prob(0.5):
            x, y := x + 1, y + 2
        else:
            x := x + 1
    assert x >= 100

Example::

    python -m repro analyze race.prob --upper --lower
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.errors import ReproError

__all__ = ["main"]


def _load(path: str, integer_mode: bool):
    from repro.lang import compile_source

    source = Path(path).read_text()
    return compile_source(source, integer_mode=integer_mode, name=Path(path).stem)


def _cmd_compile(args) -> int:
    result = _load(args.file, not args.real_valued)
    print(result.pts.pretty())
    if result.invariants:
        print("\nsource-level invariant annotations:")
        for loc, poly in result.invariants.items():
            print(f"  {loc}: {poly!r}")
    if args.validate:
        from repro.pts import validate_pts

        report = validate_pts(result.pts)
        print(f"\nvalidation: {'ok' if report.ok else 'PROBLEMS'}")
        for p in report.problems:
            print(f"  - {p}")
    return 0


def _cmd_analyze(args) -> int:
    from pathlib import Path as _Path

    from repro.errors import SynthesisError
    from repro.engine import AnalysisTask, ProgramSpec
    from repro.engine.args import engine_from_args
    from repro.utils.logspace import format_log_bound

    path = _Path(args.file)
    spec = ProgramSpec.from_source(
        path.read_text(), name=path.stem, integer_mode=not args.real_valued
    )
    engine = engine_from_args(args)

    def run(algorithm: str):
        # run_inline keeps the engine attached, so a parallel scheduler fans
        # the Hoeffding eps-probe LPs out even for this single program
        result = engine.run_inline(AnalysisTask.make(algorithm, spec))
        if not result.ok:
            raise SynthesisError(result.error)
        return result

    try:
        want_upper = args.upper or not args.lower
        if want_upper:
            result = run("hoeffding" if args.method == "hoeffding" else "explinsyn")
            bound = format_log_bound(result.log_bound)
            print(f"upper bound ({result.algorithm}): Pr[violation] <= {bound}")
            for loc, text in sorted(result.template_renders.items()):
                print(f"  theta({loc}) = {text}")
            cached = " (cached)" if result.cached else ""
            print(f"  solved in {result.seconds:.2f}s; {result.solver_info}{cached}")
        if args.lower:
            result = run("explowsyn")
            bound = format_log_bound(result.log_bound)
            print(f"lower bound (explowsyn): Pr[violation] >= {bound}")
            for loc, text in sorted(result.template_renders.items()):
                print(f"  theta({loc}) = {text}")
            if result.details.get("termination_proved"):
                print("  almost-sure termination proved via ranking supermartingale")
    finally:
        # degraded executions (retries, pool rebuilds, backend switches)
        # still produce identical results, but never silently
        for line in engine.degradation.render():
            print(f"note: {line}", file=sys.stderr)
        engine.close()
    return 0


def _cmd_simulate(args) -> int:
    from repro.pts import simulate

    result = _load(args.file, not args.real_valued)
    sim = simulate(result.pts, episodes=args.episodes, max_steps=args.max_steps, seed=args.seed)
    lo, hi = sim.violation_interval()
    print(f"episodes            : {sim.episodes}")
    print(f"violation rate      : {sim.violation_rate:.6g}")
    print(f"99.9% interval      : [{lo:.6g}, {hi:.6g}]")
    print(f"termination rate    : {sim.termination_rate:.6g}")
    print(f"censored episodes   : {sim.censored}")
    print(f"mean steps/episode  : {sim.mean_steps:.1f}")
    return 0


def _cmd_exact(args) -> int:
    from repro.core.fixpoint import build_sparse_model, iterate_model

    result = _load(args.file, not args.real_valued)
    model = build_sparse_model(
        result.pts, max_states=args.max_states, explore=args.explore
    )
    bracket = iterate_model(model, solver=args.solver)
    print(f"explored states : {bracket.states}{' (truncated)' if bracket.truncated else ''}")
    print(f"vpf bracket     : [{bracket.lower:.9g}, {bracket.upper:.9g}]")
    print(f"iterations      : {bracket.iterations}")
    solver_line = bracket.solver
    if bracket.solver != "sweep":
        status = "certified" if bracket.certified else "partially certified"
        solver_line += (
            f" ({status}, {bracket.certify_sweeps} certification sweeps, "
            f"oracle residual {bracket.oracle_residual:.2e})"
        )
    print(f"solver          : {solver_line}")
    if args.certificate:
        from repro.core.runcert import emit_run_certificate

        cert = emit_run_certificate(
            result.pts,
            model,
            bracket,
            max_states=args.max_states,
            explore=args.explore,
            name=Path(args.file).stem,
            source=Path(args.file).read_text(),
            integer_mode=not args.real_valued,
        )
        cert.save(args.certificate)
        print(f"certificate     : {args.certificate} ({cert.digest[:16]}…)")
    return 0


def _cmd_verify_certificate(args) -> int:
    from repro.core.runcert import RunCertificate, verify_certificate_text

    target = Path(args.target)
    if target.is_file():
        text = target.read_text()
        origin = str(target)
    else:
        from repro.engine.cache import ResultCache

        cache = ResultCache(args.cache_dir)
        text = cache.get_blob(args.target)
        origin = str(cache.blob_path(args.target))
        if text is None:
            print(
                f"error: {args.target!r} is neither a certificate file nor "
                f"a cache key with a sidecar under {cache.directory}",
                file=sys.stderr,
            )
            return 2
    pts = None
    if args.program:
        pts = _load(args.program, not args.real_valued).pts
    report = verify_certificate_text(text, pts=pts)
    print(f"certificate     : {origin}")
    try:
        cert = RunCertificate.parse(text)
    except ReproError:
        cert = None
    if cert is not None:
        prog = cert.payload.get("program", {})
        print(f"program         : {prog.get('name') or '<unnamed>'}")
        print(f"digest          : {cert.digest[:16]}…")
    for line in report.render():
        print(line)
    if report.ok:
        print("verdict         : PASS")
        return 0
    print("verdict         : FAIL")
    return 1


def _cmd_fuzz(args) -> int:
    from repro.fuzz import ALL_FAMILIES, run_farm

    families = None
    if args.families:
        families = tuple(f.strip() for f in args.families.split(",") if f.strip())
        unknown = [f for f in families if f not in ALL_FAMILIES]
        if unknown:
            print(
                f"error: unknown families {', '.join(unknown)} "
                f"(choose from {', '.join(ALL_FAMILIES)})",
                file=sys.stderr,
            )
            return 1
    report = run_farm(
        seed=args.seed,
        count=args.count,
        families=families,
        jobs=args.jobs,
        max_states=args.max_states,
        out_dir=args.out,
        inject=args.inject,
        shrink=not args.no_shrink,
    )
    for line in report.render():
        print(line)
    return 0 if report.ok else 1


def _cmd_bench(args) -> int:
    import time
    from pathlib import Path

    from repro.lang import compile_source
    from repro.core.fixpoint import build_sparse_model, iterate_model
    from repro.core import fixpoint_reference
    from repro.experiments.fixpoint_bench import (
        FIXPOINT_WORKLOADS,
        SLOW_MIXING_ANALYTIC_VPF,
        SLOW_MIXING_WORKLOADS,
        append_bench_run,
        explore_timings,
    )

    workloads = dict(FIXPOINT_WORKLOADS)
    for path in args.files:
        workloads[Path(path).stem] = (Path(path).read_text(), 20_000, True)

    results = []
    for name, (source, default_max_states, integer_mode) in workloads.items():
        max_states = args.max_states or default_max_states
        pts = compile_source(
            source, name=name, integer_mode=integer_mode and not args.real_valued
        ).pts

        # exploration phase alone, so the int64-vs-Fraction BFS win is
        # visible separately from the value-iteration sweeps; the Fraction
        # comparison is exactly the slow path --skip-reference opts out of
        explore_fields = explore_timings(
            pts, max_states, explore=args.explore, compare=not args.skip_reference
        )

        start = time.perf_counter()
        model = build_sparse_model(pts, max_states=max_states, explore=args.explore)
        build_seconds = time.perf_counter() - start
        start = time.perf_counter()
        fast = iterate_model(model, solver=args.solver)
        vi_seconds = time.perf_counter() - start
        fast_seconds = build_seconds + vi_seconds
        entry = {
            "program": name,
            "max_states": max_states,
            "states": fast.states,
            "iterations": fast.iterations,
            "truncated": fast.truncated,
            "lower": fast.lower,
            "upper": fast.upper,
            "sparse_seconds": round(fast_seconds, 6),
            "vi_seconds": round(vi_seconds, 6),
            "solver": fast.solver,
            "certified": fast.certified,
            "certify_sweeps": fast.certify_sweeps,
            **explore_fields,
        }
        if fast.oracle_residual is not None:
            entry["oracle_residual"] = fast.oracle_residual
        if name in SLOW_MIXING_WORKLOADS:
            # the pure-Python reference would take minutes to hours at
            # these sweep counts; the ladder is validated analytically
            entry["analytic_vpf"] = SLOW_MIXING_ANALYTIC_VPF
            entry["analytic_error"] = max(
                0.0,
                fast.lower - SLOW_MIXING_ANALYTIC_VPF,
                SLOW_MIXING_ANALYTIC_VPF - fast.upper,
            )
        elif not args.skip_reference:
            start = time.perf_counter()
            ref = fixpoint_reference.value_iteration(pts, max_states=max_states)
            ref_seconds = time.perf_counter() - start
            entry["reference_seconds"] = round(ref_seconds, 6)
            entry["speedup"] = round(ref_seconds / fast_seconds, 2) if fast_seconds else None
            # outward escape from the reference bracket (a certified
            # oracle bracket may legitimately be tighter, never wider)
            entry["bracket_error"] = max(
                0.0, ref.lower - fast.lower, fast.upper - ref.upper
            )
        results.append(entry)
        line = (
            f"{name:<14} states={entry['states']:>7} sparse={entry['sparse_seconds']:.3f}s"
            f" vi[{entry['solver']}]={entry['vi_seconds']:.3f}s"
            f" explore[{entry['explorer']}]={entry['explore_seconds']:.3f}s"
        )
        if "explore_speedup" in entry:
            line += f" ({entry['explore_speedup']:.1f}x vs fraction)"
        if "speedup" in entry:
            line += (
                f" reference={entry['reference_seconds']:.3f}s"
                f" speedup={entry['speedup']:.1f}x"
                f" bracket_err={entry['bracket_error']:.2e}"
            )
        if "analytic_error" in entry:
            line += f" analytic_err={entry['analytic_error']:.2e}"
        print(line)

    run_count = append_bench_run(args.out, results, source="repro bench")
    print(f"perf trajectory appended to {args.out} ({run_count} run(s))")
    return 0


#: one fast representative program per synthesis family (see ``selftest``)
_SELFTEST_RACE = """\
x := 40
y := 0
while x <= 99 and y <= 99:
    if prob(0.5):
        x, y := x + 1, y + 2
    else:
        x := x + 1
assert x >= 100
"""

_SELFTEST_CHAIN = """\
const p = 0.01
i := 0
while i <= 9:
    if prob(1 - p):
        i := i + 1
    else:
        exit
assert false
"""


def _cmd_selftest(args) -> int:
    import time

    from repro.engine import AnalysisEngine, AnalysisTask, ProgramSpec, make_scheduler

    race = ProgramSpec.from_source(_SELFTEST_RACE, name="selftest-race")
    chain = ProgramSpec.from_source(_SELFTEST_CHAIN, name="selftest-chain")
    tasks = [
        AnalysisTask.make("hoeffding", race, task_id="selftest/hoeffding"),
        AnalysisTask.make("explinsyn", race, task_id="selftest/explinsyn"),
        AnalysisTask.make("explowsyn", chain, task_id="selftest/explowsyn"),
        AnalysisTask.make(
            "polynomial_lower",
            chain,
            params={"degree": 2},
            task_id="selftest/polynomial_lower",
        ),
    ]
    start = time.perf_counter()
    with AnalysisEngine(scheduler=make_scheduler(args.jobs)) as engine:
        results = engine.map(tasks)
    failures = 0
    for task, result in zip(tasks, results):
        if result.ok:
            bound = "-inf" if result.log_bound is None else f"{result.log_bound:.6g}"
            print(
                f"{task.algorithm:<17} ok     ln(bound)={bound:<12} "
                f"{result.seconds:.2f}s"
            )
        else:
            failures += 1
            print(f"{task.algorithm:<17} FAILED {result.error}")
    print(
        f"selftest: {len(tasks) - failures}/{len(tasks)} families ok "
        f"in {time.perf_counter() - start:.1f}s"
    )
    return 1 if failures else 0


def _cmd_workers(args) -> int:
    from repro.engine.workers import (
        service_health,
        start_service,
        stop_service,
    )

    if args.action == "start":
        status = start_service(
            args.dir,
            jobs=args.jobs,
            idle_timeout=args.idle_timeout,
            foreground=args.foreground,
        )
        if status.get("exited"):
            return 0
        if status.get("already_running"):
            print(
                f"worker service already running: pid={status['pid']} "
                f"jobs={status['jobs']} (requested flags ignored — "
                f"`repro workers stop` first to reconfigure)"
            )
            return 0
        if status.get("swept_stale"):
            print(f"swept stale state left by a crashed service in {args.dir}")
        print(
            f"worker service up: pid={status['pid']} jobs={status['jobs']} "
            f"idle_timeout={status['idle_timeout']:.0f}s dir={args.dir}"
        )
        return 0
    if args.action == "status":
        health = service_health(args.dir)
        state = health["state"]
        if state == "up":
            age = health.get("heartbeat_age")
            heartbeat = f" heartbeat={age:.1f}s" if age is not None else ""
            print(
                f"worker service: up  pid={health['pid']} jobs={health['jobs']} "
                f"uptime={health['uptime_seconds']:.0f}s "
                f"served={health['tasks_served']} inflight={health['inflight']}"
                f"{heartbeat} rebuilds={health.get('pool_rebuilds', 0)}"
            )
            if health.get("last_degradation"):
                print(f"  last degradation: {health['last_degradation']}")
            return 0
        if state == "wedged":
            age = health.get("heartbeat_age")
            heartbeat = f"; heartbeat {age:.1f}s old" if age is not None else ""
            print(
                f"worker service: WEDGED  pid={health['pid']} is alive but not "
                f"answering{heartbeat} (dir={args.dir}) — "
                f"`repro workers stop` will signal it"
            )
            if health.get("last_degradation"):
                print(f"  last degradation: {health['last_degradation']}")
            return 2
        if state == "stale":
            print(
                f"worker service: down (crashed; stale state in {args.dir} — "
                f"the next `repro workers start` sweeps it)"
            )
            return 1
        print(f"worker service: down (dir={args.dir})")
        return 1
    # stop
    was_running = stop_service(args.dir)
    print(
        f"worker service {'stopped' if was_running else 'was not running'} "
        f"(dir={args.dir})"
    )
    return 0


def _fmt_bytes(n: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n} B"
        n /= 1024
    return f"{n} B"  # pragma: no cover - loop always returns


def _cmd_cache(args) -> int:
    from repro.engine.cache import ResultCache, parse_size

    cache = ResultCache(args.dir)
    if args.action == "stats":
        stats = cache.stats()
        budget = _fmt_bytes(stats.max_bytes) if stats.max_bytes else "unbounded"
        print(f"cache directory : {stats.directory}")
        print(f"entries         : {stats.entries}")
        print(f"total size      : {_fmt_bytes(stats.total_bytes)}")
        print(f"byte budget     : {budget}")
        print(f"oldest entry    : {stats.oldest_age_seconds:.0f}s ago")
        with_cert = stats.certificates
        without = stats.entries - with_cert
        print(f"certificates    : {with_cert} of {stats.entries} entries ({without} without)")
        if stats.orphan_certificates:
            print(
                f"orphan sidecars : {stats.orphan_certificates} "
                "(next gc sweeps them)"
            )
        return 0
    # gc
    try:
        budget = (
            parse_size(args.max_bytes) if args.max_bytes is not None else cache.max_bytes
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if budget <= 0:
        print(
            "error: no byte budget — pass --max-bytes or set "
            "REPRO_CACHE_MAX_BYTES",
            file=sys.stderr,
        )
        return 2
    report = cache.gc(budget)
    print(
        f"evicted {report.evicted} entr{'y' if report.evicted == 1 else 'ies'} "
        f"({_fmt_bytes(report.freed_bytes)}); kept {report.kept} "
        f"({_fmt_bytes(report.kept_bytes)}) under {_fmt_bytes(budget)}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="path to the probabilistic program")
        p.add_argument(
            "--real-valued",
            action="store_true",
            help="disable integer tightening of strict guards",
        )

    p_compile = sub.add_parser("compile", help="print the compiled PTS")
    common(p_compile)
    p_compile.add_argument("--validate", action="store_true")
    p_compile.set_defaults(fn=_cmd_compile)

    p_analyze = sub.add_parser("analyze", help="synthesize violation bounds")
    common(p_analyze)
    p_analyze.add_argument("--upper", action="store_true", help="upper bound (default)")
    p_analyze.add_argument("--lower", action="store_true", help="lower bound too")
    p_analyze.add_argument(
        "--method",
        choices=["explinsyn", "hoeffding"],
        default="explinsyn",
        help="upper-bound algorithm (default: the complete Section 5.2 one)",
    )
    from repro.engine.args import add_engine_args
    from repro.engine.cache import DEFAULT_CACHE_DIR
    from repro.engine.workers import DEFAULT_IDLE_TIMEOUT, DEFAULT_WORKERS_DIR

    add_engine_args(
        p_analyze,
        jobs_help="solve independent engine subtasks (Hoeffding eps-probe "
        "LPs) on up to N worker processes; 0 = one per CPU",
    )
    p_analyze.set_defaults(fn=_cmd_analyze)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo estimate")
    common(p_sim)
    p_sim.add_argument("--episodes", type=int, default=20_000)
    p_sim.add_argument("--max-steps", type=int, default=100_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(fn=_cmd_simulate)

    p_exact = sub.add_parser("exact", help="value-iteration bracket")
    common(p_exact)
    p_exact.add_argument("--max-states", type=int, default=200_000)
    p_exact.add_argument(
        "--explore",
        choices=["auto", "int64", "scaled", "fraction"],
        default="auto",
        help="exploration engine: int64 frontier batches on integer-lattice "
        "programs, the same engine in fixed-point coordinates (scaled) on "
        "admissible fractional ones, exact Fraction interning otherwise "
        "(default: auto picks among all three)",
    )
    p_exact.add_argument(
        "--solver",
        choices=["auto", "sweep"],
        default="auto",
        help="value-iteration solver: pure monotone sweeping, or (auto, the "
        "default) a sparse direct solve whose candidate is adopted only "
        "after monotone certification sweeps prove it brackets the fixed "
        "point",
    )
    p_exact.add_argument(
        "--certificate",
        default=None,
        metavar="PATH",
        help="also emit the run certificate (admission bounds, frontier "
        "digests, solver evidence) as JSON to PATH — check it later with "
        "`repro verify-certificate PATH`",
    )
    p_exact.set_defaults(fn=_cmd_exact)

    p_verify = sub.add_parser(
        "verify-certificate",
        help="independently check a run certificate (no re-exploration)",
    )
    p_verify.add_argument(
        "target",
        help="certificate file path, or a cache key whose sidecar blob to "
        "check",
    )
    p_verify.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"cache directory for key targets (default: {DEFAULT_CACHE_DIR})",
    )
    p_verify.add_argument(
        "--program",
        default=None,
        metavar="FILE",
        help="verify against this program file instead of the source "
        "embedded in the certificate",
    )
    p_verify.add_argument(
        "--real-valued",
        action="store_true",
        help="compile --program without integer tightening",
    )
    p_verify.set_defaults(fn=_cmd_verify_certificate)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential-fuzzing farm over generated workloads",
    )
    p_fuzz.add_argument(
        "--seed", type=int, default=0, help="farm seed (recorded in every artifact)"
    )
    p_fuzz.add_argument(
        "--count", type=int, default=20, help="number of programs to generate"
    )
    p_fuzz.add_argument(
        "--families",
        default="",
        help="comma-separated families (default: the four farm families)",
    )
    p_fuzz.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="engine workers the task grid fans out over (0 = all cores)",
    )
    p_fuzz.add_argument(
        "--max-states", type=int, default=4096, help="state budget per run"
    )
    p_fuzz.add_argument(
        "--out",
        default=".fuzz-corpus",
        help="archive directory for corpus entries and failure artifacts",
    )
    p_fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip shrinking discrepancies to minimal reproducers",
    )
    p_fuzz.add_argument(
        "--inject",
        default=None,
        metavar="SUBSTR",
        help="plant a synthetic bracket corruption into programs whose "
        "name contains SUBSTR ('*' = all) — self-test of the "
        "detect/shrink/archive path",
    )
    p_fuzz.set_defaults(fn=_cmd_fuzz)

    p_bench = sub.add_parser(
        "bench", help="benchmark the fixpoint engine, append BENCH_fixpoint.json"
    )
    p_bench.add_argument(
        "files", nargs="*", help="extra .prob programs to benchmark (optional)"
    )
    p_bench.add_argument(
        "--real-valued",
        action="store_true",
        help="disable integer tightening of strict guards",
    )
    p_bench.add_argument(
        "--max-states",
        type=int,
        default=None,
        help="override every workload's state budget (default: per-workload)",
    )
    p_bench.add_argument(
        "--skip-reference",
        action="store_true",
        help="time only the sparse engine (the reference is slow by design)",
    )
    p_bench.add_argument(
        "--explore",
        choices=["auto", "int64", "scaled", "fraction"],
        default="auto",
        help="exploration engine to benchmark (default: auto)",
    )
    p_bench.add_argument(
        "--solver",
        choices=["auto", "sweep"],
        default="auto",
        help="value-iteration solver to benchmark (default: auto)",
    )
    p_bench.add_argument("--out", default="BENCH_fixpoint.json")
    p_bench.set_defaults(fn=_cmd_bench)

    p_self = sub.add_parser(
        "selftest",
        help="run one task per synthesis family through the analysis engine "
        "(fast pre-push gate)",
    )
    p_self.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="fan the family tasks out over N worker processes (0 = per CPU)",
    )
    p_self.set_defaults(fn=_cmd_selftest)

    p_workers = sub.add_parser(
        "workers",
        help="manage the persistent worker service (a warm process pool "
        "shared across CLI invocations)",
    )
    p_workers.add_argument("action", choices=["start", "stop", "status"])
    p_workers.add_argument(
        "--dir",
        default=DEFAULT_WORKERS_DIR,
        metavar="DIR",
        help=f"service state directory (default: {DEFAULT_WORKERS_DIR})",
    )
    p_workers.add_argument(
        "--jobs",
        type=int,
        default=0,
        metavar="N",
        help="worker processes for the service pool (0 = one per CPU)",
    )
    p_workers.add_argument(
        "--idle-timeout",
        type=float,
        default=DEFAULT_IDLE_TIMEOUT,
        metavar="SECONDS",
        help="shut the service down after this long without requests "
        f"(default: {DEFAULT_IDLE_TIMEOUT:.0f}s; 0 = never)",
    )
    p_workers.add_argument(
        "--foreground",
        action="store_true",
        help="serve in the foreground instead of daemonizing",
    )
    p_workers.set_defaults(fn=_cmd_workers)

    p_cache = sub.add_parser(
        "cache", help="inspect or garbage-collect the on-disk result cache"
    )
    p_cache.add_argument("action", choices=["stats", "gc"])
    p_cache.add_argument(
        "--dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    p_cache.add_argument(
        "--max-bytes",
        default=None,
        metavar="SIZE",
        help="byte budget for gc, e.g. 64M or 2g (default: "
        "REPRO_CACHE_MAX_BYTES)",
    )
    p_cache.set_defaults(fn=_cmd_cache)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
