"""Per-run translation-validation certificates (emit + independent check).

The exploration/solver fast paths are *validated, not trusted* — but until
now the validation lived only in CI, as a 2x-cost bitwise re-run of every
workload on the exact Fraction engine.  This module turns that posture
into per-run evidence, WaveCert-style: every fast-path run emits a
:class:`RunCertificate` carrying

* the **admission bounds actually used** by the int64/scaled frontier
  explorer — lattice scale factors, per-variable magnitude limits,
  rescaled guard rows with their clearing multipliers, and the integer
  overflow headroom of every guard and stepper row;
* **per-BFS-level frontier digests** — a sha256 over the canonical
  ``(location, numerator, denominator, ...)`` encoding of each level's
  states in admission order, plus the full (compressed) state table so
  the digests can be replayed without re-running exploration;
* the **solver-certification evidence** of the solve-then-certify layer
  (witness vector hash, slack-ladder parameters, measured pre/post-
  fixpoint margins of the adopted bracket);
* the **program and engine fingerprints** binding all of the above to
  one model and one fixpoint-machinery version.

:func:`verify_run_certificate` is the independent checker: it re-derives
the admission inequalities from the PTS with exact ``Fraction``
arithmetic (deliberately *duplicating* the admission constants and the
rescaling algebra instead of importing the fast path's compiled plan),
replays every level digest from the embedded state table, validates
state well-formedness against the re-derived lattice limits, and sanity-
checks the value-iteration evidence — all without running exploration or
a single sweep.  ``repro verify-certificate`` exposes it on the command
line, and the CI ``certificates`` job gates PRs on it (it replaced the
bitwise two-engine re-run).

Certificates ride the engine cache as sidecar blobs next to their
``ResultCache`` entries (see :mod:`repro.engine.cache`) and deliberately
contain **no timestamps or timings**, so serial and process-pool runs of
the same task produce byte-identical certificates.
"""

from __future__ import annotations

import base64
import hashlib
import json
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ReproError

__all__ = [
    "CERT_FORMAT",
    "CERT_VERSION",
    "CertificateError",
    "DigestAccumulator",
    "RunCertificate",
    "VerificationReport",
    "canonical_level_rows",
    "emit_run_certificate",
    "exact_state_row",
    "program_fingerprint",
    "synthesize_exact",
    "verify_certificate_text",
    "verify_run_certificate",
]

CERT_FORMAT = "repro-run-certificate"
CERT_VERSION = 1

# --------------------------------------------------------------------------
# checker-local admission constants
# --------------------------------------------------------------------------
# These duplicate the admission bounds of ``repro.core.fixpoint`` *on
# purpose*: the checker must re-derive the admission inequalities without
# trusting the fast path's compiled plan, so it carries its own copy of
# the contract.  A silent drift between the two is caught by the
# ``bounds`` section of every certificate — emit records the fast path's
# constants, verify compares them against these.
_VALUE_LIMIT = 2**31  # per-variable scaled-magnitude bound (int64 lattice)
_REAL_LIMIT = 2**15  # descaled real-coordinate bound (scaled lattice)
_GUARD_MAGNITUDE = 2**52  # int64-lattice guard rows: float eval stays exact
_STEP_MAGNITUDE = 2**62  # stepper rows / scaled guard rows: no int64 wrap
_GAP_LIMIT = 5 * 10**8  # scaled guard clearing multiplier cap (gap >= 2e-9)
_GUARD_SLACK = 5e-10  # admissible reference float guard-evaluation error
_ULP = 2.0**-53  # unit roundoff of IEEE double arithmetic

_BOUNDS = {
    "value_limit": _VALUE_LIMIT,
    "real_limit": _REAL_LIMIT,
    "guard_magnitude": _GUARD_MAGNITUDE,
    "step_magnitude": _STEP_MAGNITUDE,
    "gap_limit": _GAP_LIMIT,
    "guard_slack": _GUARD_SLACK,
    "ulp": _ULP,
}

#: checker tolerance on the recorded pre/post-fixpoint margins: the
#: margins are measured with one float matvec on an adopted iterate that
#: is a pre/post-fixpoint in exact arithmetic, so only rounding noise may
#: push them below zero
_MARGIN_TOL = 1e-9


class CertificateError(ReproError):
    """A certificate could not be parsed, emitted or resolved."""


# --------------------------------------------------------------------------
# canonical state encoding + per-level digests
# --------------------------------------------------------------------------
# One state = one row ``[loc_id, num_1, den_1, ..., num_nv, den_nv]`` of
# reduced rationals (``den >= 1``, ``gcd(|num|, den) = 1``) — the unique
# canonical form shared by all three exploration engines, so cross-engine
# digests agree bit for bit.


def canonical_level_rows(
    locs: np.ndarray, vals: np.ndarray, scale: np.ndarray
) -> np.ndarray:
    """Canonical rows of one frontier level of the int64/scaled engine.

    ``vals`` holds *scaled* coordinates ``s_j * x_j``; reducing
    ``vals[:, j] / scale[j]`` by the (always positive) gcd yields the
    unique reduced numerator/denominator pair — identical to the exact
    engine's ``Fraction`` representation of the same state.
    """
    m, nv = vals.shape
    rows = np.empty((m, 1 + 2 * nv), dtype=np.int64)
    rows[:, 0] = locs
    if bool((scale == 1).all()):
        rows[:, 1::2] = vals
        rows[:, 2::2] = 1
        return rows
    g = np.gcd(vals, scale)  # gcd(0, s) = s, so 0 reduces to 0/1
    rows[:, 1::2] = vals // g  # exact: g divides both operands
    rows[:, 2::2] = scale // g
    return rows


def exact_state_row(loc_id: int, values: Tuple) -> List[int]:
    """Canonical row of one scalar-engine state (ints or ``Fraction`` s,
    the latter already reduced with a positive denominator)."""
    row = [loc_id]
    for v in values:
        if isinstance(v, Fraction):
            row.append(v.numerator)
            row.append(v.denominator)
        else:
            row.append(int(v))
            row.append(1)
    return row


def _digest_i8(rows: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(rows.astype("<i8", copy=False)).tobytes()
    ).hexdigest()


def _digest_text(lines: List[str]) -> str:
    return hashlib.sha256(
        b"text\n" + "\n".join(lines).encode("ascii")
    ).hexdigest()


def _encode_blob(raw: bytes) -> str:
    return base64.b64encode(zlib.compress(raw)).decode("ascii")


def _decode_blob(text: str) -> bytes:
    return zlib.decompress(base64.b64decode(text.encode("ascii"), validate=True))


class DigestAccumulator:
    """Collects one canonical row chunk per BFS level, then freezes the
    per-level sha256 digests and the compressed state table.

    Levels may arrive as int64 arrays (frontier engines) or as lists of
    Python-int rows (the scalar engine, whose values are unbounded).  The
    encoding decision is **global per run** at :meth:`finish`: ``"i8le"``
    (little-endian int64 rows, the cheap common case) whenever every
    value fits, else ``"text"`` (comma-joined decimal rows) — so a
    digest never depends on *which* level a large value appeared in.
    """

    def __init__(self) -> None:
        self._chunks: List[Any] = []

    def add_level(self, rows) -> None:
        self._chunks.append(rows)

    def finish(self) -> Dict[str, Any]:
        arrays: Optional[List[np.ndarray]] = []
        for chunk in self._chunks:
            if isinstance(chunk, np.ndarray):
                arrays.append(chunk)
                continue
            try:
                arrays.append(np.array(chunk, dtype=np.int64))
            except OverflowError:
                arrays = None
                break
        digests: List[str] = []
        ends: List[int] = []
        total = 0
        if arrays is not None:
            raw_parts: List[bytes] = []
            for arr in arrays:
                digests.append(_digest_i8(arr))
                raw_parts.append(
                    np.ascontiguousarray(arr.astype("<i8", copy=False)).tobytes()
                )
                total += len(arr)
                ends.append(total)
            return {
                "encoding": "i8le",
                "level_ends": ends,
                "digests": digests,
                "states_blob": _encode_blob(b"".join(raw_parts)),
            }
        all_lines: List[str] = []
        for chunk in self._chunks:
            rows = chunk.tolist() if isinstance(chunk, np.ndarray) else chunk
            lines = [",".join(str(int(x)) for x in row) for row in rows]
            digests.append(_digest_text(lines))
            all_lines.extend(lines)
            total += len(lines)
            ends.append(total)
        return {
            "encoding": "text",
            "level_ends": ends,
            "digests": digests,
            "states_blob": _encode_blob("\n".join(all_lines).encode("ascii")),
        }


def _decode_states(levels: Dict[str, Any], width: int) -> List[List[int]]:
    """The embedded state table back as rows of Python ints."""
    raw = _decode_blob(levels["states_blob"])
    if levels["encoding"] == "i8le":
        if len(raw) % (8 * width):
            raise ValueError("states blob length is not a whole number of rows")
        arr = np.frombuffer(raw, dtype="<i8").reshape(-1, width)
        return arr.tolist()
    rows = []
    text = raw.decode("ascii")
    for line in text.split("\n") if text else []:
        row = [int(tok) for tok in line.split(",")]
        if len(row) != width:
            raise ValueError("text states blob row width mismatch")
        rows.append(row)
    return rows


def _replay_digest(rows: List[List[int]], encoding: str) -> str:
    if encoding == "i8le":
        return _digest_i8(np.array(rows, dtype=np.int64))
    return _digest_text([",".join(str(x) for x in row) for row in rows])


# --------------------------------------------------------------------------
# the certificate object
# --------------------------------------------------------------------------


def _payload_digest(payload: Dict[str, Any]) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class RunCertificate:
    """An emitted certificate: the payload plus its integrity digest
    (sha256 over the canonical JSON form of the payload alone)."""

    payload: Dict[str, Any]
    digest: str

    @staticmethod
    def from_payload(payload: Dict[str, Any]) -> "RunCertificate":
        return RunCertificate(payload=payload, digest=_payload_digest(payload))

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "RunCertificate":
        payload = dict(data)
        digest = payload.pop("digest", "")
        return RunCertificate(payload=payload, digest=digest)

    @staticmethod
    def parse(text: str) -> "RunCertificate":
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CertificateError(f"unparsable certificate: {exc}") from None
        if not isinstance(data, dict):
            raise CertificateError("certificate is not a JSON object")
        return RunCertificate.from_dict(data)

    def as_dict(self) -> Dict[str, Any]:
        return {**self.payload, "digest": self.digest}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @staticmethod
    def load(path) -> "RunCertificate":
        with open(path, "r", encoding="utf-8") as fh:
            return RunCertificate.parse(fh.read())


def program_fingerprint(pts) -> str:
    """sha256 over the pretty-printed PTS — the canonical, compiler-
    independent rendering of the model the certificate is about."""
    return hashlib.sha256(pts.pretty().encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# emission (fast-path side)
# --------------------------------------------------------------------------


def emit_run_certificate(
    pts,
    model,
    result,
    *,
    max_states: int,
    explore: str = "auto",
    name: Optional[str] = None,
    source: Optional[str] = None,
    integer_mode: bool = True,
) -> RunCertificate:
    """Package one finished run (model + value-iteration result) as a
    :class:`RunCertificate`.

    ``model`` must carry the exploration evidence every
    :func:`~repro.core.fixpoint.build_sparse_model` run now collects
    (level digests + the admission record of the frontier plan); embed
    ``source`` to make the certificate verifiable standalone.
    """
    from repro.core.fixpoint import FIXPOINT_FINGERPRINT

    evidence = getattr(model, "_evidence", None)
    if not evidence:
        raise CertificateError(
            "model carries no exploration evidence; rebuild it with the "
            "current build_sparse_model"
        )
    if result.states != model.n:
        raise CertificateError(
            f"result/model mismatch: {result.states} vs {model.n} states"
        )
    vi_evidence = getattr(result, "evidence", None)
    payload: Dict[str, Any] = {
        "format": CERT_FORMAT,
        "version": CERT_VERSION,
        "fingerprints": {
            "program_sha256": program_fingerprint(pts),
            "fixpoint": FIXPOINT_FINGERPRINT,
        },
        "program": {
            "name": name or getattr(pts, "name", None) or "program",
            "source": source,
            "integer_mode": bool(integer_mode),
        },
        "exploration": {
            "explorer": model.explored_via,
            "requested": explore,
            "max_states": int(max_states),
            "states": int(model.n),
            "truncated": bool(model.truncated),
            "levels": evidence["levels"],
            "admission": evidence["admission"],
        },
        "value_iteration": {
            "lower": float(result.lower),
            "upper": float(result.upper),
            "iterations": int(result.iterations),
            "solver": result.solver,
            "certified": bool(result.certified),
            "certify_sweeps": int(result.certify_sweeps),
            "oracle_residual": (
                None
                if result.oracle_residual is None
                else float(result.oracle_residual)
            ),
            "evidence": vi_evidence,
        },
    }
    return RunCertificate.from_payload(payload)


# --------------------------------------------------------------------------
# independent admission re-derivation (checker side)
# --------------------------------------------------------------------------


def _draw_values(pts) -> Optional[List[Dict[str, Fraction]]]:
    """The fork/draw Cartesian product in the engines' order (sampling
    variables in ``pts.distributions`` insertion order, atoms in
    declaration order) — value maps only, probabilities are irrelevant to
    admission."""
    combos: List[Dict[str, Fraction]] = [{}]
    for r, dist in pts.distributions.items():
        atoms = dist.atoms()
        if atoms is None:
            return None
        combos = [{**d, r: value} for d in combos for _q, value in atoms]
    return combos


def _derive_guard_entry(
    expr, var_index, scale, limits, scaled, ti: int, k: int
) -> Optional[Dict[str, Any]]:
    """Re-derive one guard row's admission record, or ``None`` when the
    row is inadmissible — mirroring ``_scaled_guard_row`` (scaled) and the
    plain-int64 magnitude check of ``_compile_int_plan`` exactly, but with
    the checker's own constants."""
    nv = len(scale)
    terms = [
        (var_index[name], Fraction(coeff)) for name, coeff in expr.iter_coeffs()
    ]
    const = Fraction(expr.const)
    if scaled:
        mult = const.denominator
        rescaled = []
        for j, coeff in terms:
            q = coeff / scale[j]
            rescaled.append((j, q))
            mult = mult * q.denominator // gcd(mult, q.denominator)
        if mult > _GAP_LIMIT:
            return None
        row = [0] * nv
        for j, q in rescaled:
            row[j] = int(q * mult)
        c = int(const * mult)
        magnitude = sum(abs(row[j]) * limits[j] for j in range(nv)) + abs(c)
        if magnitude >= _STEP_MAGNITUDE:
            return None
        float_mag = abs(float(const)) + sum(
            abs(float(coeff)) * (limits[j] / scale[j]) for j, coeff in terms
        )
        if (len(terms) + 4) * _ULP * float_mag > _GUARD_SLACK:
            return None
        headroom = _STEP_MAGNITUDE - magnitude
    else:
        mult = 1
        row = [0] * nv
        for j, coeff in terms:
            row[j] = int(coeff)
        c = int(const)
        magnitude = sum(abs(a) for a in row) * _VALUE_LIMIT + abs(c)
        if magnitude >= _GUARD_MAGNITUDE:
            return None
        headroom = _GUARD_MAGNITUDE - magnitude
    return {
        "transition": ti,
        "ineq": k,
        "mult": int(mult),
        "row": row,
        "const": c,
        "headroom": int(headroom),
    }


def _derive_step_headroom(
    update, draw, program_vars, var_index, scale, limits, scaled
) -> Optional[int]:
    """Max-over-variables int64 headroom of one fork/draw stepper, or
    ``None`` when inadmissible — same rescaling algebra as the compiled
    plan (identity rows included in the headroom, exempt from the
    admission check: their magnitude is a per-variable limit, always
    far inside the bound)."""
    nv = len(program_vars)
    worst = 0
    for vi, v in enumerate(program_vars):
        expr = update.assignments.get(v)
        if expr is None:
            worst = max(worst, limits[vi])
            continue
        row = [0] * nv
        const = expr.const
        for name, coeff in expr.iter_coeffs():
            if name in draw:
                const = const + coeff * draw[name]
            elif scaled:
                j = var_index[name]
                q = Fraction(coeff) * scale[vi] / scale[j]
                if q.denominator != 1:
                    return None
                row[j] = int(q)
            else:
                row[var_index[name]] = int(coeff)
        if scaled:
            scaled_const = Fraction(const) * scale[vi]
            if scaled_const.denominator != 1:
                return None
            c = int(scaled_const)
        else:
            c = int(const)
        magnitude = sum(abs(row[j]) * limits[j] for j in range(nv)) + abs(c)
        if magnitude >= _STEP_MAGNITUDE:
            return None
        worst = max(worst, magnitude)
    return _STEP_MAGNITUDE - worst


def derive_admission(pts) -> Tuple[Optional[Dict[str, Any]], Optional[str]]:
    """Independently re-derive the frontier engine's admission record from
    the PTS: ``(record, None)`` when the fast path is admissible, else
    ``(None, reason)``.  This is the checker's ground truth — a recorded
    admission section must equal it entry for entry."""
    report = pts.integrality()
    if report.integral:
        scaled = False
    elif report.scale is not None:
        scaled = True
    else:
        return None, (
            report.scale_reason or report.reason or "not lattice-admissible"
        )
    program_vars = pts.program_vars
    nv = len(program_vars)
    var_index = {v: i for i, v in enumerate(program_vars)}
    scale = [int(s) for s in (report.scale or (1,) * nv)]
    if scaled:
        limits = [min(_VALUE_LIMIT, s * _REAL_LIMIT) for s in scale]
    else:
        limits = [_VALUE_LIMIT] * nv
    draws = _draw_values(pts)
    if draws is None:
        return None, "continuous sampling distribution"
    guards: List[Dict[str, Any]] = []
    steps: List[Dict[str, Any]] = []
    for ti, t in enumerate(pts.transitions):
        for k, ineq in enumerate(t.guard.inequalities):
            entry = _derive_guard_entry(
                ineq.expr, var_index, scale, limits, scaled, ti, k
            )
            if entry is None:
                return None, f"guard row {k} of transition {ti} is inadmissible"
            guards.append(entry)
        for fi, fork in enumerate(t.forks):
            for di, draw in enumerate(draws):
                headroom = _derive_step_headroom(
                    fork.update, draw, program_vars, var_index, scale, limits, scaled
                )
                if headroom is None:
                    return None, (
                        f"stepper (transition {ti}, fork {fi}, draw {di}) "
                        "is inadmissible"
                    )
                steps.append(
                    {
                        "transition": ti,
                        "fork": fi,
                        "draw": di,
                        "headroom": int(headroom),
                    }
                )
    record = {
        "lattice": "scaled" if scaled else "int64",
        "scale": scale,
        "limits": limits,
        "guards": guards,
        "steps": steps,
        "bounds": dict(_BOUNDS),
    }
    return record, None


# --------------------------------------------------------------------------
# verification
# --------------------------------------------------------------------------


@dataclass
class VerificationReport:
    """Outcome of one certificate check: named pass/fail results, in
    check order, with a one-line detail per failure."""

    checks: List[Tuple[str, bool, str]] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    @property
    def failures(self) -> List[Tuple[str, str]]:
        return [(name, detail) for name, ok, detail in self.checks if not ok]

    def render(self) -> List[str]:
        lines = []
        for name, ok, detail in self.checks:
            mark = "ok  " if ok else "FAIL"
            line = f"{mark} {name}"
            if detail and not ok:
                line += f": {detail}"
            lines.append(line)
        return lines


def _resolve_pts(cert: RunCertificate, pts):
    if pts is not None:
        return pts, None
    program = cert.payload.get("program") or {}
    source = program.get("source")
    if not source:
        return None, (
            "certificate embeds no program source; pass the program "
            "explicitly (repro verify-certificate --program)"
        )
    from repro.lang import compile_source

    compiled = compile_source(
        source,
        integer_mode=bool(program.get("integer_mode", True)),
        name=program.get("name") or "program",
    )
    return compiled.pts, None


def _check_states(report, rows, pts, admission, explorer) -> None:
    """Well-formedness of the embedded state table: reduced rationals,
    locations in range and — on the frontier lattices — denominators
    dividing the re-derived scale with scaled magnitudes inside the
    re-derived per-variable limits."""
    n_locs = len(pts.locations)
    nv = len(pts.program_vars)
    arr = None
    try:
        arr = np.array(rows, dtype=np.int64)
    except OverflowError:
        pass
    if arr is not None and len(arr):
        locs = arr[:, 0]
        nums = arr[:, 1::2]
        dens = arr[:, 2::2]
        report.add(
            "state-locations",
            bool(((locs >= 0) & (locs < n_locs)).all()),
            "location id out of range",
        )
        well_formed = bool((dens >= 1).all()) and bool(
            (np.gcd(np.abs(nums), dens) == 1).all()
        )
        report.add("state-reduced", well_formed, "state row is not in lowest terms")
        if admission is not None and well_formed:
            scale = np.array(admission["scale"], dtype=np.int64).reshape(1, nv)
            limits = np.array(admission["limits"], dtype=np.int64).reshape(1, nv)
            on_lattice = bool((scale % dens == 0).all())
            report.add(
                "state-lattice",
                on_lattice,
                "state denominator does not divide the lattice scale",
            )
            if on_lattice:
                # |num| <= value limit and scale <= 1e6 keep the product
                # far inside int64, so the multiply below cannot wrap
                small = bool((np.abs(nums) <= _VALUE_LIMIT).all())
                in_range = small and bool(
                    (np.abs(nums * (scale // dens)) <= limits).all()
                )
                report.add(
                    "state-range",
                    in_range,
                    "scaled state magnitude exceeds the admitted limit",
                )
        return
    # unbounded values: only the exact engine produces these (text
    # encoding, no admission record), so check pure well-formedness
    ok_loc = all(0 <= row[0] < n_locs for row in rows)
    report.add("state-locations", ok_loc, "location id out of range")
    ok_red = all(
        row[2 * j + 2] >= 1 and gcd(abs(row[2 * j + 1]), row[2 * j + 2]) == 1
        for row in rows
        for j in range(nv)
    )
    report.add("state-reduced", ok_red, "state row is not in lowest terms")
    if admission is not None:
        report.add(
            "state-range",
            False,
            f"{explorer} explorer states overflow int64",
        )


def _check_value_iteration(report, vi) -> None:
    lower = vi.get("lower")
    upper = vi.get("upper")
    bracket_ok = (
        isinstance(lower, (int, float))
        and isinstance(upper, (int, float))
        and -1e-12 <= lower <= upper + 1e-12
        and upper <= 1.0 + _MARGIN_TOL
    )
    report.add(
        "vi-bracket",
        bracket_ok,
        f"bracket [{lower}, {upper}] is not a probability bracket",
    )
    evidence = vi.get("evidence")
    if not vi.get("certified"):
        return
    if not report.add(
        "vi-evidence",
        isinstance(evidence, dict),
        "certified run carries no solver evidence",
    ):
        return
    report.add(
        "vi-adopted",
        bool(evidence.get("adopted_lower")) and bool(evidence.get("adopted_upper")),
        "certified without both bracket sides adopted",
    )
    report.add(
        "vi-witness",
        bool(evidence.get("witness_ok"))
        and isinstance(evidence.get("witness_sha256"), str)
        and len(evidence.get("witness_sha256") or "") == 64,
        "certified lower side without a contraction witness",
    )
    from repro.core import solvers as _solvers

    ladder = evidence.get("slack_ladder") or {}
    residual = vi.get("oracle_residual")
    base_ok = isinstance(ladder.get("base"), (int, float)) and (
        residual is None
        or ladder["base"] == max(float(residual), 2.0**-52)
    )
    report.add(
        "vi-slack-ladder",
        base_ok
        and list(ladder.get("multiples") or []) == list(_solvers.SLACK_MULTIPLES)
        and ladder.get("cap") == _solvers.SLACK_CAP,
        "slack ladder does not match the certifier's constants",
    )
    margins_ok = True
    for key in ("post_fixpoint_margin", "pre_fixpoint_margin"):
        value = evidence.get(key)
        if not isinstance(value, (int, float)) or value < -_MARGIN_TOL:
            margins_ok = False
    report.add(
        "vi-margins",
        margins_ok,
        "adopted bracket's fixed-point margins are missing or negative",
    )


def verify_run_certificate(cert: RunCertificate, pts=None) -> VerificationReport:
    """Independently check one certificate; ``pts`` overrides the
    embedded program source (required when the certificate has none).

    Checks, in order: payload integrity (digest), structure, program +
    engine fingerprints, the admission record against a from-scratch
    re-derivation, every per-level frontier digest replayed from the
    embedded state table (plus the init state and the level structure),
    state well-formedness against the re-derived lattice, and the
    value-iteration evidence.  No exploration or sweeping runs.
    """
    report = VerificationReport()
    payload = cert.payload
    report.add(
        "integrity",
        cert.digest == _payload_digest(payload),
        "payload digest mismatch (certificate bytes were altered)",
    )
    structure_ok = report.add(
        "structure",
        payload.get("format") == CERT_FORMAT
        and payload.get("version") == CERT_VERSION
        and isinstance(payload.get("exploration"), dict)
        and isinstance(payload.get("value_iteration"), dict)
        and isinstance(payload.get("fingerprints"), dict),
        f"not a {CERT_FORMAT} v{CERT_VERSION} payload",
    )
    if not structure_ok:
        return report

    pts, reason = _resolve_pts(cert, pts)
    if not report.add("program", pts is not None, reason or ""):
        return report

    fingerprints = payload["fingerprints"]
    report.add(
        "program-fingerprint",
        fingerprints.get("program_sha256") == program_fingerprint(pts),
        "certificate was issued for a different program",
    )
    from repro.core.fixpoint import FIXPOINT_FINGERPRINT

    report.add(
        "engine-fingerprint",
        fingerprints.get("fixpoint") == FIXPOINT_FINGERPRINT,
        f"stale fixpoint fingerprint {fingerprints.get('fixpoint')!r} "
        f"(current: {FIXPOINT_FINGERPRINT!r})",
    )

    exploration = payload["exploration"]
    explorer = exploration.get("explorer")
    admission = exploration.get("admission")
    if explorer in ("int64", "scaled-int64"):
        derived, why = derive_admission(pts)
        if report.add(
            "admission-derivable",
            derived is not None,
            f"fast-path admission does not re-derive: {why}",
        ):
            expected_lattice = "scaled" if explorer == "scaled-int64" else "int64"
            report.add(
                "admission-lattice",
                isinstance(admission, dict)
                and admission.get("lattice") == expected_lattice
                and derived["lattice"] == expected_lattice,
                f"admission lattice does not match explorer {explorer!r}",
            )
            report.add(
                "admission-bounds",
                isinstance(admission, dict) and admission == derived,
                "recorded admission record differs from the independent "
                "re-derivation",
            )
        admission_for_states = derived
    else:
        report.add(
            "admission-absent",
            admission is None,
            "fraction-engine run must not carry a frontier admission record",
        )
        admission_for_states = None

    levels = exploration.get("levels") or {}
    states = exploration.get("states")
    nv = len(pts.program_vars)
    width = 1 + 2 * nv
    try:
        rows = _decode_states(levels, width)
    except Exception as exc:
        report.add("frontier-digests", False, f"undecodable state table: {exc}")
        return report
    ends = levels.get("level_ends") or []
    digests = levels.get("digests") or []
    shape_ok = (
        len(rows) == states
        and len(ends) == len(digests)
        and len(ends) > 0
        and all(
            isinstance(e, int) and e > (ends[i - 1] if i else 0)
            for i, e in enumerate(ends)
        )
        and ends[-1] == states
    )
    if report.add(
        "level-structure",
        shape_ok,
        "level boundaries do not partition the state table",
    ):
        replay_ok = True
        start = 0
        for end, recorded in zip(ends, digests):
            if _replay_digest(rows[start:end], levels["encoding"]) != recorded:
                replay_ok = False
                break
            start = end
        report.add(
            "frontier-digests",
            replay_ok,
            "a per-level frontier digest does not replay from the state table",
        )
        init_values = tuple(pts.init_valuation[v] for v in pts.program_vars)
        init_row = exact_state_row(
            list(pts.locations).index(pts.init_location), init_values
        )
        report.add(
            "init-state",
            ends[0] == 1 and rows[0] == init_row,
            "level 0 is not exactly the program's initial state",
        )
        _check_states(report, rows, pts, admission_for_states, explorer)

    _check_value_iteration(report, payload["value_iteration"])
    return report


def verify_certificate_text(text: str, pts=None) -> VerificationReport:
    """Parse + verify; parse failures become a failed single-check report
    instead of an exception (the CLI's bit-flip drill needs a clean
    exit-1 path for arbitrarily corrupted bytes)."""
    try:
        cert = RunCertificate.parse(text)
    except CertificateError as exc:
        report = VerificationReport()
        report.add("parse", False, str(exc))
        return report
    return verify_run_certificate(cert, pts=pts)


# --------------------------------------------------------------------------
# engine integration: the "exact" algorithm
# --------------------------------------------------------------------------


def synthesize_exact(task, deps=None, engine=None):
    """Engine protocol wrapper: a value-iteration bracket as an analysis
    task, with its :class:`RunCertificate` riding the result (and hence
    the cache sidecar).  Certificates carry no timings, so serial and
    pooled executions of the same task emit identical bytes."""
    import time

    from repro.engine.task import CertificateResult

    start = time.perf_counter()
    pts, _invariants = task.program.resolve()
    max_states = int(task.param("max_states", 200_000))
    explore = task.param("explore", "auto")
    solver = task.param("solver", "auto")
    from repro.core.fixpoint import build_sparse_model, iterate_model

    model = build_sparse_model(pts, max_states=max_states, explore=explore)
    result = iterate_model(model, solver=solver)
    cert = emit_run_certificate(
        pts,
        model,
        result,
        max_states=max_states,
        explore=explore,
        name=task.program.name,
        source=task.program.source or None,
        integer_mode=task.program.integer_mode,
    )
    return CertificateResult(
        algorithm="exact",
        status="ok",
        log_bound=None,
        seconds=time.perf_counter() - start,
        solver_info=f"explore={model.explored_via} solver={result.solver}",
        details={
            "lower": result.lower,
            "upper": result.upper,
            "states": result.states,
            "iterations": result.iterations,
            "truncated": result.truncated,
            "solver": result.solver,
            "certified": result.certified,
            "certify_sweeps": result.certify_sweeps,
            "oracle_residual": result.oracle_residual,
            "explorer": model.explored_via,
        },
        run_certificate=cert.as_dict(),
        task_key=task.cache_key,
    )
