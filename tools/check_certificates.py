#!/usr/bin/env python3
"""PR-blocking run-certificate gate (the ``certificates`` CI job).

The fast path runs **once** per workload and emits its
:class:`~repro.core.runcert.RunCertificate`; the independent checker
re-derives the admission inequalities and replays the frontier digests
without re-running exploration.  (This replaced a 2x-cost bitwise re-run
of every workload on the exact Fraction engine; bitwise model identity
across explorers is pinned by ``tests/test_fixpoint_int.py``.)

Sections:

* **explorer grid** — the explorer workloads through their forced fast
  mode (``scaled``/``int64``); each certificate must verify both against
  the in-memory PTS and *self-contained* (checker recompiles the source
  embedded in the certificate);
* **solver grid** — the solver workloads through ``sweep`` and ``auto``;
  evidence checks cover the witness hash, the slack ladder and the
  pre/post-fixpoint margins.  The ``auto`` bracket must also overlap the
  sweep bracket (both contain vpf, so disjointness means one of them is
  wrong) and never escape it outward by more than the certifier's slack
  budget ``SLACK_CAP``; on the slow-mixing chain it must additionally be
  fully certified and tighter-or-equal;
* **corruption drills** — a bit-flipped file, a tampered frontier
  digest, a tampered admission multiplier and a stale engine
  fingerprint (the latter three re-signed, so only the semantic check
  can catch them) must each be *rejected*.

Exit status 0 when every certificate verifies, every bracket agrees and
every corruption is caught, 1 otherwise.  Needs ``repro`` importable
(``PYTHONPATH=src``) and runs in seconds — no LP solver, no synthesis,
no reference engine.
"""

from __future__ import annotations

import json
import sys

#: name -> (source, max_states, integer_mode, forced explore mode).
#: Budgets are chosen so every workload truncates or absorbs within a few
#: seconds.
WORKLOADS = {
    # Table 1's 3DWalk shape (0.1-steps, scale-10 lattice), truncated
    "3dwalk-slice": (
        "x := 10\ny := 10\nz := 10\n"
        "while x >= 0 and y >= 0 and z >= 0:\n"
        "    assert x + y + z <= 100\n"
        "    if prob(0.9):\n        switch:\n"
        "            prob(0.5): x, y := x - 1, y - 1\n"
        "            prob(0.5): z := z - 1\n"
        "    else:\n        switch:\n"
        "            prob(0.5): x, y := x + 0.1, y + 0.1\n"
        "            prob(0.5): z := z + 0.1\n",
        4_000,
        False,
        "scaled",
    ),
    # Table 1's Robot shape (1.414 displacements, +-0.05 noise, scale 500)
    "robot-slice": (
        "noise ~ discrete((0.5, -0.05), (0.5, 0.05))\n"
        "i := 0\nx := 0\nex := 0\n"
        "while i <= 11:\n    switch:\n"
        "        prob(0.2): i, x, ex := i + 1, x - 1.414 + noise, ex - 1.414\n"
        "        prob(0.2): i, x, ex := i + 1, x + 1.414 + noise, ex + 1.414\n"
        "        prob(0.2): i, x, ex := i + 1, x - 1 + noise, ex - 1\n"
        "        prob(0.2): i, x, ex := i + 1, x + 1 + noise, ex + 1\n"
        "        prob(0.2): i, x, ex := i + 1, x + noise, ex\n"
        "assert x - ex <= 1.8",
        4_000,
        False,
        "scaled",
    ),
    # mixed lattice: integral counter + half-integer accumulator, with a
    # guard boundary hit exactly at a fractional state
    "mixed-boundary": (
        "i := 0\nx := 0\nwhile i <= 20 and x - 15/2 <= 0:\n"
        "    if prob(0.5):\n        i, x := i + 1, x + 1/2\n"
        "    else:\n        i := i + 1\n"
        "assert x >= 8",
        10_000,
        False,
        "scaled",
    ),
    # integer lattice control through the plain int64 frontier engine
    "gambler-int": (
        "x := 3\nwhile x >= 1 and x <= 9:\n    switch:\n"
        "        prob(0.5): x := x + 1\n        prob(0.5): x := x - 1\n"
        "assert x <= 0",
        20_000,
        True,
        "int64",
    ),
}


#: name -> (source, max_states, integer_mode, expect auto-certified).
#: Small bracket workloads of three shapes: a slow-mixing fair walk (the
#: solve-then-certify target regime), a drifted walk with a step counter,
#: and a truncated fragment whose bracket legitimately stays [0, 1].
SOLVER_WORKLOADS = {
    "gambler-120": (
        "x := 30\nwhile x >= 1 and x <= 119:\n    switch:\n"
        "        prob(0.5): x := x + 1\n        prob(0.5): x := x - 1\n"
        "assert x <= 0",
        20_000,
        True,
        True,
    ),
    "drift-chain": (
        "x := 0\nt := 0\nwhile x <= 19:\n    switch:\n"
        "        prob(0.75): x, t := x + 1, t + 1\n"
        "        prob(0.25): x, t := x - 1, t + 1\n"
        "assert t <= 60",
        20_000,
        True,
        False,
    ),
    "rdadder-trunc": (
        "i := 0\nx := 0\nwhile i <= 199:\n    if prob(0.5):\n"
        "        i, x := i + 1, x + 1\n    else:\n        i := i + 1\n"
        "assert x <= 110",
        8_000,
        True,
        False,
    ),
}


def compare_solver(name: str, solver: str, fast, ref, expect_certified: bool) -> list:
    """Checks of one ``solver`` bracket against the pure-sweep ``ref``."""
    from repro.core.solvers import SLACK_CAP as tol

    problems = []
    if not (fast.lower <= fast.upper + 1e-12):
        problems.append(
            f"{name}[{solver}]: inverted bracket "
            f"[{fast.lower!r}, {fast.upper!r}]"
        )
    # never escape the sweep bracket outward beyond the slack budget; a
    # *certified* bracket may legitimately be tighter than the sweep's
    if fast.lower < ref.lower - tol:
        problems.append(
            f"{name}[{solver}]: lower bound escaped outward "
            f"({fast.lower!r} < sweep {ref.lower!r} - {tol})"
        )
    if fast.upper > ref.upper + tol:
        problems.append(
            f"{name}[{solver}]: upper bound escaped outward "
            f"({fast.upper!r} > sweep {ref.upper!r} + {tol})"
        )
    # overlap: both brackets contain vpf, so disjointness means a bug
    if fast.lower > ref.upper + tol or fast.upper < ref.lower - tol:
        problems.append(
            f"{name}[{solver}]: bracket [{fast.lower!r}, {fast.upper!r}] "
            f"disjoint from sweep [{ref.lower!r}, {ref.upper!r}]"
        )
    if solver == "auto" and expect_certified:
        if not fast.certified:
            problems.append(
                f"{name}[auto]: expected a fully certified bracket, "
                f"got certified={fast.certified}"
            )
        # the acceptance bar: certified auto brackets are tighter-or-equal
        if fast.lower < ref.lower - 1e-12 or fast.upper > ref.upper + 1e-12:
            problems.append(
                f"{name}[auto]: certified bracket wider than the sweep's "
                f"([{fast.lower!r}, {fast.upper!r}] vs "
                f"[{ref.lower!r}, {ref.upper!r}])"
            )
    return problems


def _emit(pts, model, result, name, source, integer_mode, max_states, explore):
    from repro.core.runcert import emit_run_certificate

    return emit_run_certificate(
        pts,
        model,
        result,
        max_states=max_states,
        explore=explore,
        name=name,
        source=source,
        integer_mode=integer_mode,
    )


def _resign(cert, mutate):
    """Deep-copy ``cert``'s payload, apply ``mutate``, re-sign the digest —
    modelling an attacker who can recompute hashes but not the run."""
    from repro.core.runcert import RunCertificate

    payload = json.loads(json.dumps(cert.payload))
    mutate(payload)
    return RunCertificate.from_payload(payload)


def check_explorer_grid(failures):
    from repro.core.fixpoint import build_sparse_model, iterate_model
    from repro.core.runcert import verify_certificate_text, verify_run_certificate
    from repro.lang import compile_source

    certs = []
    for name, (source, max_states, integer_mode, explore) in WORKLOADS.items():
        pts = compile_source(source, name=name, integer_mode=integer_mode).pts
        model = build_sparse_model(pts, max_states=max_states, explore=explore)
        result = iterate_model(model)
        cert = _emit(pts, model, result, name, source, integer_mode, max_states, explore)
        report = verify_run_certificate(cert, pts=pts)
        # self-contained: the checker recompiles the embedded source
        standalone = verify_certificate_text(cert.to_json())
        ok = report.ok and standalone.ok
        if not report.ok:
            failures.extend(f"{name}: {line}" for line in report.render() if "FAIL" in line)
        if not standalone.ok:
            failures.extend(
                f"{name} (standalone): {line}"
                for line in standalone.render()
                if "FAIL" in line
            )
        print(
            f"{name:<16} {model.explored_via:<13} states={model.n:>6} "
            f"levels={len(cert.payload['exploration']['levels']['digests']):>4} "
            f"{'ok' if ok else 'REJECTED'}"
        )
        certs.append(cert)
    return certs


def check_solver_grid(failures):
    from repro.core.fixpoint import build_sparse_model, iterate_model
    from repro.core.runcert import verify_run_certificate
    from repro.lang import compile_source

    for name, (source, max_states, integer_mode, expect_cert) in SOLVER_WORKLOADS.items():
        pts = compile_source(source, name=name, integer_mode=integer_mode).pts
        model = build_sparse_model(pts, max_states=max_states)
        ref = iterate_model(model, solver="sweep")
        for solver in ("sweep", "auto"):
            result = ref if solver == "sweep" else iterate_model(model, solver=solver)
            cert = _emit(
                pts, model, result, name, source, integer_mode, max_states, "auto"
            )
            report = verify_run_certificate(cert, pts=pts)
            if not report.ok:
                failures.extend(
                    f"{name}[{solver}]: {line}"
                    for line in report.render()
                    if "FAIL" in line
                )
            problems = compare_solver(name, solver, result, ref, expect_cert)
            failures.extend(problems)
            status = "ok" if report.ok else "REJECTED"
            if problems:
                status += " MISMATCH"
            print(
                f"{name:<16} {solver:<9} used={result.solver:<9} "
                f"certified={str(result.certified):<5} "
                f"[{result.lower:.12f}, {result.upper:.12f}] {status}"
            )


def check_corruption(cert, failures):
    """Every drill must *fail* verification; passing one is a gate bug."""
    from repro.core.runcert import verify_certificate_text

    def flip(payload):
        payload["exploration"]["levels"]["digests"][0] = (
            "0" * 64
            if payload["exploration"]["levels"]["digests"][0] != "0" * 64
            else "f" * 64
        )

    def bounds(payload):
        payload["exploration"]["admission"]["guards"][0]["mult"] += 1

    def stale(payload):
        payload["fingerprints"]["fixpoint"] = "pre-certificate-engine.v0"

    raw = bytearray(cert.to_json().encode("utf-8"))
    raw[len(raw) // 2] ^= 0x20  # flip one bit mid-file
    drills = [
        ("bit-flipped file", verify_certificate_text(raw.decode("utf-8", "replace"))),
        ("tampered digest", verify_certificate_text(_resign(cert, flip).to_json())),
        ("tampered bounds", verify_certificate_text(_resign(cert, bounds).to_json())),
        ("stale fingerprint", verify_certificate_text(_resign(cert, stale).to_json())),
    ]
    for label, report in drills:
        caught = not report.ok
        if not caught:
            failures.append(f"corruption drill {label!r} was ACCEPTED")
        first = report.failures[0][0] if report.failures else "-"
        print(f"corrupt: {label:<18} rejected={str(caught):<5} first-fail={first}")


def main() -> int:
    failures: list = []
    certs = check_explorer_grid(failures)
    print()
    check_solver_grid(failures)
    print()
    # drill against a scaled-lattice certificate: it has the richest
    # payload (admission record with non-unit multipliers)
    check_corruption(certs[0], failures)
    if failures:
        print(f"\ncertificate gate FAILED ({len(failures)} problem(s)):")
        for line in failures:
            print(f"  - {line}")
        return 1
    print(
        f"\ncertificate gate ok: {len(WORKLOADS)} explorer workload(s) + "
        f"{len(SOLVER_WORKLOADS)} solver workload(s) x 2 solvers "
        "verified; 4 corruption drills rejected"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
