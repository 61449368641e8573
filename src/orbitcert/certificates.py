"""Certificate files: canonical JSON with a content hash, plus re-verification.

A certificate is a JSON object written with sorted keys.  The hash field is
the sha256 of the compact canonical serialization of every other field, so
any semantic edit invalidates it.  A witness certificate records the
construction, not its tables: the inputs and the decision payload (the coe
pairs, or the conj blocks with their Smith matrices) determine the witness,
and the witness block, {type, level}, only names its relation and the level
to check it at.  Verification re-derives the decision, checks the payload
against it (a conj block's S and T must be unimodular and carry diag(m) to
diag(n)), rebuilds the witness from the inputs and runs
verify_chain(chain, level, relation), exact over the acting group, at any
level within the relation's point limit (cocycle.POINT_LIMITS).  Emission and
verification refuse an oversized level through the same check,
chain.require_checkable.  Both witnesses are chains checked stage by stage:
a coe witness's parts are elementary moves, each checked with verify_coe,
and a conj witness is one stage of block conjugacies, one part per block,
each checked with verify_conj.
Payload integers are read strictly: bools and floats are refused, never
truncated, and a verdict must be a JSON boolean.
"""
from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING

from . import __version__
from .decide import (
    CoeDecision,
    ConjDecision,
    CounterexampleReport,
    coe_decide,
    conj_decide,
    free_group_counterexample_check,
)
from .intmat import IntMatrix, det
from .supernatural import SupernaturalNumber, mul, parse_sn, sn_str

# the witness layer (chain, witness and the pieces under them) is imported
# by the functions that build or check a witness, so that a decision alone
# never loads it
if TYPE_CHECKING:
    from .chain import CoeChain

FORMAT = "orbitcert-certificate/3"
KINDS = ("coe", "conj", "coe-witness", "conj-witness", "counterexample")


class CertificateError(ValueError):
    """Malformed certificate, or a request outside the certificate's scope."""


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def content_hash(cert: dict) -> str:
    body = {k: v for k, v in cert.items() if k != "hash"}
    return "sha256:" + hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()


def seal(cert: dict) -> dict:
    """Attach the content hash; every other field is already in place."""
    out = dict(cert)
    out.pop("hash", None)
    out["hash"] = content_hash(out)
    return out


def dumps(cert: dict) -> str:
    # indented but key-sorted: line diffs stay meaningful and the hash is
    # computed over the compact form, so formatting cannot smuggle changes
    return json.dumps(cert, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def loads(text: str) -> dict:
    try:
        cert = json.loads(text)
    except json.JSONDecodeError as e:
        raise CertificateError(f"not valid JSON: {e}") from None
    if not isinstance(cert, dict):
        raise CertificateError("certificate must be a JSON object")
    for field in ("format", "version", "kind", "hash"):
        if field not in cert:
            raise CertificateError(f"missing field {field!r}")
    if cert["format"] != FORMAT:
        raise CertificateError(
            f"certificate format {cert['format']!r} is not {FORMAT!r}; "
            "re-emit the certificate with this version of orbitcert"
        )
    if cert["kind"] not in KINDS:
        raise CertificateError(f"unknown kind {cert['kind']!r}")
    return cert


def _header(kind: str) -> dict:
    return {"format": FORMAT, "version": __version__, "kind": kind}


# ---------------------------------------------------------------------------
# emission


def _inputs_block(ms, ns) -> dict:
    return {"ms": [sn_str(m) for m in ms], "ns": [sn_str(n) for n in ns]}


def coe_payload(d: CoeDecision) -> dict:
    if d.equivalent:
        return {
            "equivalent": True,
            "sigma": list(d.sigma),
            "pairs": [
                {"left": p.left_index, "right": p.right_index, "m": p.m, "n": p.n}
                for p in d.pairs
            ],
        }
    return {"equivalent": False, "obstruction": d.obstruction}


def conj_payload(d: ConjDecision) -> dict:
    if d.conjugate:
        return {
            "conjugate": True,
            "blocks": [
                {
                    "left_indices": list(b.left_indices),
                    "right_indices": list(b.right_indices),
                    "base": sn_str(b.base),
                    "left_multipliers": list(b.left_multipliers),
                    "right_multipliers": list(b.right_multipliers),
                    "s": b.conjugator[0].to_rows(),
                    "t": b.conjugator[1].to_rows(),
                }
                for b in d.blocks
            ],
        }
    return {"conjugate": False, "obstruction": d.obstruction}


def witness_block(relation: str, ms, ns, level: int,
                  decision: CoeDecision | ConjDecision | None = None) -> dict:
    """The recipe of a witness: its relation and the level to check it at.
    `verify` rebuilds the witness from the certificate's inputs, so no
    table is stored.  A level, or a part, beyond the relation's point limit
    is refused here by the check `verify` runs first
    (chain.require_checkable), with the same error.  decision is the
    relation's positive decision of (ms, ns), when the caller holds it."""
    from .chain import POINT_LIMITS, require_checkable

    chain = witness_from_block(relation, ms, ns, decision)
    require_checkable(chain, level, POINT_LIMITS[relation])
    return {"type": relation, "level": level}


# the names perfbench traces
coe_witness_block = conj_witness_block = witness_block


def certificate(ms, ns, decision: CoeDecision | ConjDecision, witness: dict | None = None,
                kind: str | None = None) -> dict:
    """A coe or conj certificate, as the decision's type says: its payload,
    and its kind unless `kind` is given ("coe-witness", "conj-witness")."""
    relation, payload = (("coe", coe_payload) if isinstance(decision, CoeDecision)
                         else ("conj", conj_payload))
    cert = _header(kind or relation)
    cert["inputs"] = _inputs_block(ms, ns)
    cert["payload"] = payload(decision)
    if witness is not None:
        cert["witness"] = witness
    return seal(cert)


def counterexample_certificate(report: CounterexampleReport) -> dict:
    cert = _header("counterexample")
    cert["inputs"] = {"p": report.p, "q": report.q, "n": report.n}
    cert["payload"] = {
        "certified": [[stmt, ok] for stmt, ok in report.certified],
        "cited": list(report.cited),
        "conjugate": False,
    }
    return seal(cert)


# ---------------------------------------------------------------------------
# reconstruction


def witness_from_block(relation: str, ms, ns,
                       decision: CoeDecision | ConjDecision | None = None) -> CoeChain:
    """The chain a `relation` block stands for, rebuilt from the inputs: an
    orbit equivalence's moves, or a conjugacy's blocks.
    decision is the relation's decision of (ms, ns), made here if None."""
    from .witness import build_coe_witness, build_conj_witness

    return (build_coe_witness if relation == "coe" else build_conj_witness)(ms, ns, decision)


# the names perfbench traces
coe_witness_from_block = conj_witness_from_block = witness_from_block


# ---------------------------------------------------------------------------
# verification


def _int(value, name: str, lo: int | None = 0, hi: int | None = None) -> int:
    """A JSON integer in [lo, hi), an end left open when None; bools and
    floats are refused, never truncated."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or (lo is not None and value < lo) or (hi is not None and value >= hi)):
        if (lo, hi) == (0, None):
            want = "a non-negative integer"
        else:
            want = "an integer" + ("" if lo is None else f" >= {lo}") + (
                "" if hi is None else f" and < {hi}")
        raise CertificateError(f"{name} must be {want}, got {value!r}")
    return value


def _bool(value, name: str) -> bool:
    """A JSON boolean; strings, numbers and lists are refused, never coerced."""
    if not isinstance(value, bool):
        raise CertificateError(f"{name} must be true or false, got {value!r}")
    return value


def _int_matrix(rows, name: str) -> IntMatrix:
    return IntMatrix.from_rows([[_int(v, f"{name} entry", None) for v in row] for row in rows])


def _parse_inputs(cert: dict) -> tuple[tuple[SupernaturalNumber, ...], tuple[SupernaturalNumber, ...]]:
    try:
        ms = tuple(parse_sn(s) for s in cert["inputs"]["ms"])
        ns = tuple(parse_sn(s) for s in cert["inputs"]["ns"])
    except (KeyError, TypeError, ValueError) as e:
        raise CertificateError(f"bad inputs block: {e}") from None
    return ms, ns


def _payload(cert: dict, verdict: str) -> dict:
    payload = cert.get("payload")
    if not isinstance(payload, dict) or verdict not in payload:
        raise CertificateError("missing decision payload")
    return payload


def _check_coe_payload(cert: dict, ms, ns, lines: list[str]) -> tuple[bool, CoeDecision]:
    """(the payload checks out, the fresh decision)."""
    payload = _payload(cert, "equivalent")
    fresh = coe_decide(ms, ns)
    if _bool(payload["equivalent"], "equivalent") != fresh.equivalent:
        lines.append("[FAIL] decision: recorded verdict does not reproduce")
        return False, fresh
    if not fresh.equivalent:
        lines.append("[pass] decision: non-equivalence reproduces "
                     f"({fresh.obstruction})")
        return True, fresh
    r = len(ms)
    try:
        sigma = [_int(v, "sigma entry", 0, r) for v in payload["sigma"]]
        pairs = [(_int(p["left"], "pair left", 0, r), _int(p["right"], "pair right", 0, len(ns)),
                  _int(p["m"], "pair m", 1), _int(p["n"], "pair n", 1))
                 for p in payload["pairs"]]
    except (KeyError, TypeError) as e:
        raise CertificateError(f"bad coe payload: {e}") from None
    ok = sorted(sigma) == list(range(r)) and sorted(p[0] for p in pairs) == list(range(r))
    ok = ok and all(
        sigma[left] == right
        and mul(SupernaturalNumber.from_int(m), ms[left])
        == mul(SupernaturalNumber.from_int(n), ns[right])
        for left, right, m, n in pairs
    )
    lines.append(f"[{'pass' if ok else 'FAIL'}] decision: sigma is a matching and "
                 "every pair identity m*M = n*N holds exactly")
    return ok, fresh


def _check_conj_payload(cert: dict, ms, ns, lines: list[str]) -> tuple[bool, ConjDecision]:
    """(the payload checks out, the fresh decision)."""
    payload = _payload(cert, "conjugate")
    fresh = conj_decide(ms, ns)
    if _bool(payload["conjugate"], "conjugate") != fresh.conjugate:
        lines.append("[FAIL] decision: recorded verdict does not reproduce")
        return False, fresh
    if not fresh.conjugate:
        lines.append(f"[pass] decision: non-conjugacy reproduces ({fresh.obstruction})")
        return True, fresh
    try:
        ok = True
        seen_left: list[int] = []
        seen_right: list[int] = []
        for b in payload["blocks"]:
            li = [_int(i, "left index", 0, len(ms)) for i in b["left_indices"]]
            ri = [_int(j, "right index", 0, len(ns)) for j in b["right_indices"]]
            base = parse_sn(b["base"])
            lm = [_int(v, "left multiplier", 1) for v in b["left_multipliers"]]
            rm = [_int(v, "right multiplier", 1) for v in b["right_multipliers"]]
            s = _int_matrix(b["s"], "s")
            t = _int_matrix(b["t"], "t")
            seen_left += li
            seen_right += ri
            ok = (
                len(li) == len(ri) == len(lm) == len(rm)
                and all(ms[i] == mul(SupernaturalNumber.from_int(q), base) for i, q in zip(li, lm))
                and all(ns[j] == mul(SupernaturalNumber.from_int(q), base) for j, q in zip(ri, rm))
                and (s @ IntMatrix.diagonal(lm) @ t).to_rows() == IntMatrix.diagonal(rm).to_rows()
                and abs(det(s)) == abs(det(t)) == 1
            )
            if not ok:
                break
        ok = ok and (sorted(seen_left) == list(range(len(ms)))
                     and sorted(seen_right) == list(range(len(ns))))
    except (KeyError, TypeError, ValueError) as e:
        raise CertificateError(f"bad conj payload: {e}") from None
    lines.append(f"[{'pass' if ok else 'FAIL'}] decision: blocks partition the factors, "
                 "M_i = m_i*L and N_j = n_j*L, and S*diag(m)*T = diag(n) exactly "
                 "with S and T unimodular")
    return ok, fresh


def _check_counterexample(cert: dict, lines: list[str]) -> bool:
    try:
        p, q, n = (_int(cert["inputs"][k], k, 2) for k in ("p", "q", "n"))
        recorded = [(str(s), _bool(ok, "certified flag"))
                    for s, ok in cert["payload"]["certified"]]
        cited = [str(s) for s in cert["payload"]["cited"]]
        conjugate = _bool(cert["payload"]["conjugate"], "conjugate")
    except (KeyError, TypeError, ValueError) as e:
        raise CertificateError(f"bad counterexample certificate: {e}") from None
    report = free_group_counterexample_check(p, q, n)
    ok = list(report.certified) == recorded and all(h for _, h in recorded)
    ok = ok and list(report.cited) == cited and bool(cited) and not conjugate
    lines.append(f"[{'pass' if ok else 'FAIL'}] counterexample: all certified "
                 "separations reproduce, the cited direction is recorded and "
                 "the verdict is non-conjugacy")
    return ok


def _witness_level(block, level: int | None) -> int:
    """The level to check a witness block at: the requested one, else the
    recorded one.  A block holds exactly {type, level}."""
    wtype = block.get("type") if isinstance(block, dict) else None
    if wtype not in ("coe", "conj"):
        raise CertificateError(f"bad witness block: unknown type {wtype!r}")
    lvl = _int(block.get("level"), "witness level")
    extra = set(block) - {"type", "level"}
    if extra:
        raise CertificateError(f"bad {wtype} witness block: unexpected {sorted(extra)}")
    return lvl if level is None else _int(level, "level")


def verify_certificate(cert: dict, level: int | None = None) -> tuple[bool, list[str]]:
    """Re-check a loaded certificate.  Returns (passed, report lines).

    The hash must match, the recorded decision must reproduce and embedded
    identities must hold exactly.  A witness block is checked only when the
    fresh decision is positive and the block is of the certificate's
    relation: the witness is then rebuilt from the certificate's inputs and
    must pass its exhaustive verifier at the requested level, defaulting to
    the recorded one; every check is exact over the acting group.  Raises
    CertificateError when the file is malformed or a level is not a
    natural number, and ValueError when the level is beyond the point limit.
    """
    lines: list[str] = []
    if content_hash(cert) != cert["hash"]:
        lines.append("[FAIL] content hash mismatch")
        return False, lines
    lines.append("[pass] content hash")
    kind = cert["kind"]
    relation = kind.split("-")[0]
    fresh = None
    if relation in ("coe", "conj"):
        ms, ns = _parse_inputs(cert)
        check = _check_coe_payload if relation == "coe" else _check_conj_payload
        ok, fresh = check(cert, ms, ns, lines)
    else:
        ok = _check_counterexample(cert, lines)

    block = cert.get("witness")
    if block is None:
        if kind.endswith("-witness"):
            raise CertificateError(f"kind {kind} requires a witness block")
        return ok, lines
    if kind == "counterexample":
        raise CertificateError("counterexample certificates carry no witness")
    lvl = _witness_level(block, level)
    bound = bool(fresh) and block["type"] == relation
    lines.append(f"[{'pass' if bound else 'FAIL'}] witness binding: a {relation} witness "
                 "between the input systems, under a positive verdict")
    if not bound:
        return False, lines
    from .chain import verify_chain

    # the part verifier follows the certificate's claim, never a part's kind
    report = verify_chain(witness_from_block(relation, ms, ns, fresh), lvl, relation)
    for check in report.checks:
        tag = "FAIL" if not check.ok else "vacuous" if check.vacuous else "pass"
        lines.append(f"[{tag}] witness {check.name}: {check.checked} checks")
    return ok and report.passed, lines
