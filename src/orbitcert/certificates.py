"""Certificate files: canonical JSON with a content hash, plus re-verification.

A certificate is a JSON object written with sorted keys.  The hash field is
the sha256 of the compact canonical serialization of every other field, so
any semantic edit invalidates it.  Witness tables are materialized per
cylinder in lexicographic order (first factor most significant) at a
declared level; verification above that level is refused, never
extrapolated.  Tables are read strictly: every entry must be a JSON
integer within int64 and every row must have the declared width.
"""
from __future__ import annotations

import hashlib
import json
from itertools import chain

import numpy as np

from . import __version__
from .cocycle import (
    CocycleTable,
    CoeWitness,
    ConjWitness,
    GroupIso,
    GroupValuedMap,
    LCMap,
    _materialize_lcmap,
    _materialize_table,
    coarsest_table,
    cylinder_index,
    verify_coe,
    verify_conj,
)
from .decide import (
    CoeDecision,
    ConjDecision,
    CounterexampleReport,
    coe_decide,
    conj_decide,
    free_group_counterexample_check,
)
from .dynamics import (
    SystemSpec,
    odometer_product,
    parse_system_spec,
    point_count,
    spec_str,
)
from .intmat import IntMatrix
from .supernatural import SupernaturalNumber, mul, parse_sn, sn_str

FORMAT = "orbitcert-certificate"
KINDS = ("coe", "conj", "coe-witness", "conj-witness", "counterexample")

# materialized tables share the verifiers' enumeration budgets
COE_POINT_LIMIT = 10**6
CONJ_POINT_LIMIT = 5 * 10**6


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
        raise CertificateError(f"unknown format {cert['format']!r}")
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


def _lcmap_block(f: LCMap, out_level: int, limit: int) -> dict:
    grid, vals = _materialize_lcmap(f, out_level, limit)
    return {"in_level": grid.level, "out_level": out_level, "table": vals.tolist()}


def _table_block(t: CocycleTable, limit: int) -> dict:
    _, gens = _materialize_table(t, limit)
    return {
        "level": t.level,
        "target_group": list(t.target_group),
        "generators": [g.tolist() for g in gens],
    }


def coe_witness_block(w: CoeWitness, level: int, radius: int, limit: int = COE_POINT_LIMIT) -> dict:
    # each point map is tabulated at the highest output level a check reads
    # it at: its own equivariance level, b's (a's) level and the level the
    # other map's roundtrip feeds it
    kf = max(level, w.b.level, w.psi.input_level(level))
    kb = max(level, w.a.level, w.phi.input_level(level))
    return {
        "type": "coe",
        "level": level,
        "radius": radius,
        "source": spec_str(w.source),
        "target": spec_str(w.target),
        "phi": _lcmap_block(w.phi, kf, limit),
        "psi": _lcmap_block(w.psi, kb, limit),
        "a": _table_block(w.a, limit),
        "b": _table_block(w.b, limit),
    }


def conj_witness_block(cw: ConjWitness, level: int, radius: int, limit: int = CONJ_POINT_LIMIT) -> dict:
    kf = max(level, cw.phi_inv.input_level(level))
    kb = max(level, cw.phi.input_level(level))
    return {
        "type": "conj",
        "level": level,
        "radius": radius,
        "source": spec_str(cw.phi.source),
        "target": spec_str(cw.phi.target),
        "rho": {
            "matrix": cw.rho.matrix.to_rows(),
            "inverse": cw.rho.inverse.to_rows(),
        },
        "phi": _lcmap_block(cw.phi, kf, limit),
        "phi_inv": _lcmap_block(cw.phi_inv, kb, limit),
    }


def coe_certificate(ms, ns, decision: CoeDecision, witness: dict | None = None,
                    kind: str = "coe") -> dict:
    cert = _header(kind)
    cert["inputs"] = _inputs_block(ms, ns)
    cert["payload"] = coe_payload(decision)
    if witness is not None:
        cert["witness"] = witness
    return seal(cert)


def conj_certificate(ms, ns, decision: ConjDecision, witness: dict | None = None,
                     kind: str = "conj") -> dict:
    cert = _header(kind)
    cert["inputs"] = _inputs_block(ms, ns)
    cert["payload"] = conj_payload(decision)
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


def _int_table(rows, shape: tuple[int, int], name: str) -> np.ndarray:
    """A JSON table as an int64 array, refusing anything but a list of
    `shape[0]` rows of `shape[1]` JSON integers within int64."""
    n, width = shape
    if type(rows) is not list or len(rows) != n:
        got = len(rows) if type(rows) is list else type(rows).__name__
        raise CertificateError(f"{name}: table holds {got} rows, wanted {n}")
    if any(type(r) is not list for r in rows) or set(map(len, rows)) != {width}:
        raise CertificateError(f"{name}: ragged table, wanted rows of {width} values")
    if set(map(type, chain.from_iterable(rows))) != {int}:
        raise CertificateError(f"{name}: table entries must be integers")
    if min(chain.from_iterable(rows)) < -2**63 or max(chain.from_iterable(rows)) >= 2**63:
        raise CertificateError(f"{name}: table entry outside int64")
    return np.array(rows, dtype=np.int64).reshape(n, width)


def _lcmap_from_block(block: dict, src: SystemSpec, tgt: SystemSpec, name: str) -> LCMap:
    """The tabulated map; at each output level up to the tabulated one it
    reports the least input level on whose cylinders its values are constant."""
    try:
        in_level = _budget(block["in_level"], f"{name} in_level")
        out_cap = _budget(block["out_level"], f"{name} out_level")
        rows = block["table"]
    except (KeyError, TypeError) as e:
        raise CertificateError(f"{name}: bad table block ({e})") from None
    arr = _int_table(rows, (point_count(src, in_level), tgt.rank), name)
    out_mods = np.array(tgt.space_moduli(out_cap), dtype=np.int64)
    bad = np.nonzero(((arr < 0) | (arr >= out_mods[None, :])).any(axis=1))[0]
    if bad.size:
        raise CertificateError(f"{name}: out-of-range table row {rows[int(bad[0])]}")
    coarse: dict[int, tuple[int, np.ndarray]] = {}

    def fit(k: int) -> tuple[int, np.ndarray]:
        if k > out_cap:
            raise CertificateError(
                f"{name}: tables are materialized at level {out_cap}; "
                f"re-emit the witness to verify at level {k}"
            )
        if k not in coarse:
            mods = np.array(tgt.space_moduli(k), dtype=np.int64)
            coarse[k] = coarsest_table(src, in_level, arr % mods[None, :])
        return coarse[k]

    def table(k: int, res: np.ndarray) -> np.ndarray:
        level, vals = fit(k)
        return vals[cylinder_index(src, level, res)]

    return LCMap(src, tgt, lambda k: fit(k)[0], table, name)


def _cocycle_from_block(block: dict, src: SystemSpec, name: str) -> CocycleTable:
    try:
        level = _budget(block["level"], f"{name} level")
        tg = tuple(_budget(m, f"{name} target_group entry") for m in block["target_group"])
        gens = block["generators"]
    except (KeyError, TypeError) as e:
        raise CertificateError(f"{name}: bad cocycle block ({e})") from None
    if type(gens) is not list or len(gens) != src.rank:
        raise CertificateError(f"{name}: wanted a list of {src.rank} generator tables")
    shape = (point_count(src, level), len(tg))
    return CocycleTable(src, tg, tuple(
        GroupValuedMap(src, tg, level, _int_table(rows, shape, f"{name}[{i}]"), f"{name}[{i}]")
        for i, rows in enumerate(gens)
    ))


def _specs_from_witness(block: dict) -> tuple[SystemSpec, SystemSpec]:
    try:
        return parse_system_spec(block["source"]), parse_system_spec(block["target"])
    except (KeyError, ValueError) as e:
        raise CertificateError(f"bad witness specs: {e}") from None


def coe_witness_from_block(block: dict) -> CoeWitness:
    src, tgt = _specs_from_witness(block)
    try:
        return CoeWitness(
            _lcmap_from_block(block["phi"], src, tgt, "phi"),
            _cocycle_from_block(block["a"], src, "a"),
            _lcmap_from_block(block["psi"], tgt, src, "psi"),
            _cocycle_from_block(block["b"], tgt, "b"),
        )
    except KeyError as e:
        raise CertificateError(f"witness block missing {e}") from None
    except (TypeError, ValueError) as e:
        raise CertificateError(str(e)) from None


def conj_witness_from_block(block: dict) -> ConjWitness:
    src, tgt = _specs_from_witness(block)
    try:
        rho = GroupIso(
            src.group_moduli(),
            tgt.group_moduli(),
            IntMatrix.from_rows(block["rho"]["matrix"]),
            IntMatrix.from_rows(block["rho"]["inverse"]),
        )
        return ConjWitness(
            rho,
            _lcmap_from_block(block["phi"], src, tgt, "phi"),
            _lcmap_from_block(block["phi_inv"], tgt, src, "phi_inv"),
        )
    except KeyError as e:
        raise CertificateError(f"witness block missing {e}") from None
    except (TypeError, ValueError) as e:
        raise CertificateError(str(e)) from None


# ---------------------------------------------------------------------------
# verification


def _parse_inputs(cert: dict) -> tuple[tuple[SupernaturalNumber, ...], tuple[SupernaturalNumber, ...]]:
    try:
        ms = tuple(parse_sn(s) for s in cert["inputs"]["ms"])
        ns = tuple(parse_sn(s) for s in cert["inputs"]["ns"])
    except (KeyError, TypeError, ValueError) as e:
        raise CertificateError(f"bad inputs block: {e}") from None
    return ms, ns


def _check_coe_payload(cert: dict, lines: list[str]) -> bool:
    ms, ns = _parse_inputs(cert)
    payload = cert.get("payload")
    if not isinstance(payload, dict) or "equivalent" not in payload:
        raise CertificateError("missing decision payload")
    fresh = coe_decide(ms, ns)
    if bool(payload["equivalent"]) != fresh.equivalent:
        lines.append("[FAIL] decision: recorded verdict does not reproduce")
        return False
    if not payload["equivalent"]:
        lines.append("[pass] decision: non-equivalence reproduces "
                     f"({fresh.obstruction})")
        return True
    try:
        sigma = [int(v) for v in payload["sigma"]]
        pairs = [(int(p["left"]), int(p["right"]), int(p["m"]), int(p["n"]))
                 for p in payload["pairs"]]
    except (KeyError, TypeError, ValueError) as e:
        raise CertificateError(f"bad coe payload: {e}") from None
    ok = sorted(sigma) == list(range(len(ms))) and len(pairs) == len(ms)
    if ok:
        for left, right, m, n in pairs:
            if sigma[left] != right or not (
                0 < m and 0 < n
                and mul(SupernaturalNumber.from_int(m), ms[left])
                == mul(SupernaturalNumber.from_int(n), ns[right])
            ):
                ok = False
                break
    lines.append(f"[{'pass' if ok else 'FAIL'}] decision: sigma is a matching and "
                 "every pair identity m*M = n*N holds exactly")
    return ok


def _check_conj_payload(cert: dict, lines: list[str]) -> bool:
    ms, ns = _parse_inputs(cert)
    payload = cert.get("payload")
    if not isinstance(payload, dict) or "conjugate" not in payload:
        raise CertificateError("missing decision payload")
    fresh = conj_decide(ms, ns)
    if bool(payload["conjugate"]) != fresh.conjugate:
        lines.append("[FAIL] decision: recorded verdict does not reproduce")
        return False
    if not payload["conjugate"]:
        lines.append(f"[pass] decision: non-conjugacy reproduces ({fresh.obstruction})")
        return True
    try:
        blocks = payload["blocks"]
        ok = True
        seen_left: list[int] = []
        seen_right: list[int] = []
        for b in blocks:
            li = [int(i) for i in b["left_indices"]]
            ri = [int(j) for j in b["right_indices"]]
            base = parse_sn(b["base"])
            lm = [int(v) for v in b["left_multipliers"]]
            rm = [int(v) for v in b["right_multipliers"]]
            s = IntMatrix.from_rows(b["s"])
            t = IntMatrix.from_rows(b["t"])
            seen_left += li
            seen_right += ri
            if len(li) != len(ri) or len(lm) != len(li) or len(rm) != len(ri):
                ok = False
                break
            for i, q in zip(li, lm):
                if ms[i] != mul(SupernaturalNumber.from_int(q), base):
                    ok = False
            for j, q in zip(ri, rm):
                if ns[j] != mul(SupernaturalNumber.from_int(q), base):
                    ok = False
            prod = s @ IntMatrix.diagonal(lm) @ t
            if prod.to_rows() != IntMatrix.diagonal(rm).to_rows():
                ok = False
            if not ok:
                break
        if ok and (sorted(seen_left) != list(range(len(ms)))
                   or sorted(seen_right) != list(range(len(ns)))):
            ok = False
    except (KeyError, TypeError, ValueError) as e:
        raise CertificateError(f"bad conj payload: {e}") from None
    lines.append(f"[{'pass' if ok else 'FAIL'}] decision: blocks partition the factors, "
                 "M_i = m_i*L and N_j = n_j*L, and S*diag(m)*T = diag(n) exactly")
    return ok


def _check_counterexample(cert: dict, lines: list[str]) -> bool:
    try:
        p = int(cert["inputs"]["p"])
        q = int(cert["inputs"]["q"])
        n = int(cert["inputs"]["n"])
        recorded = [(str(s), bool(ok)) for s, ok in cert["payload"]["certified"]]
        cited = [str(s) for s in cert["payload"]["cited"]]
    except (KeyError, TypeError, ValueError) as e:
        raise CertificateError(f"bad counterexample certificate: {e}") from None
    report = free_group_counterexample_check(p, q, n)
    ok = list(report.certified) == recorded and all(h for _, h in recorded)
    ok = ok and list(report.cited) == cited and bool(cited)
    lines.append(f"[{'pass' if ok else 'FAIL'}] counterexample: all certified "
                 "separations reproduce and the cited direction is recorded")
    return ok


def _budget(value, name: str) -> int:
    """A verification budget: a non-negative int (bools and floats are not)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise CertificateError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def _check_binding(cert: dict, block: dict, lines: list[str]) -> bool:
    """A witness proves the certificate's claim only if it is a witness of
    the certificate's relation, between the systems named by its inputs,
    backing a positive verdict."""
    kind = cert["kind"]
    if kind == "counterexample":
        raise CertificateError("counterexample certificates carry no witness")
    relation = kind.split("-")[0]
    ms, ns = _parse_inputs(cert)
    positive = cert["payload"]["equivalent" if relation == "coe" else "conjugate"] is True
    ok = (
        block["type"] == relation
        and positive
        and block.get("source") == spec_str(odometer_product(ms))
        and block.get("target") == spec_str(odometer_product(ns))
    )
    lines.append(f"[{'pass' if ok else 'FAIL'}] witness binding: a {relation} witness "
                 "between the input systems, under a positive verdict")
    return ok


def verify_certificate(cert: dict, level: int | None = None,
                       radius: int | None = None) -> tuple[bool, list[str]]:
    """Re-check a loaded certificate.  Returns (passed, report lines).

    The hash must match, the recorded decision must reproduce, embedded
    identities must hold exactly, and any materialized witness must be
    bound to the certificate's inputs and positive verdict and pass its
    exhaustive verifier at the requested level, defaulting to the embedded
    one.  The coe checks are exact over the acting group; radius only sets
    the box of the conj additivity check.  Raises CertificateError when the
    file is malformed or the requested level exceeds the materialization.
    """
    lines: list[str] = []
    if content_hash(cert) != cert["hash"]:
        lines.append("[FAIL] content hash mismatch")
        return False, lines
    lines.append("[pass] content hash")
    kind = cert["kind"]
    if kind in ("coe", "coe-witness"):
        ok = _check_coe_payload(cert, lines)
    elif kind in ("conj", "conj-witness"):
        ok = _check_conj_payload(cert, lines)
    else:
        ok = _check_counterexample(cert, lines)

    block = cert.get("witness")
    if block is not None:
        if not isinstance(block, dict) or "type" not in block:
            raise CertificateError("bad witness block")
        embedded = _budget(block.get("level"), "witness level")
        recorded = _budget(block.get("radius"), "witness radius")
        lvl = embedded if level is None else _budget(level, "level")
        rad = recorded if radius is None else _budget(radius, "radius")
        if lvl > embedded:
            raise CertificateError(
                f"witness is materialized for level {embedded}; "
                f"level {lvl} was requested"
            )
        ok = _check_binding(cert, block, lines) and ok
        if block["type"] == "coe":
            report = verify_coe(coe_witness_from_block(block), lvl, rad, COE_POINT_LIMIT)
        elif block["type"] == "conj":
            report = verify_conj(conj_witness_from_block(block), lvl, rad, CONJ_POINT_LIMIT)
        else:
            raise CertificateError(f"unknown witness type {block['type']!r}")
        for check in report.checks:
            tag = "pass" if check.ok else "FAIL"
            lines.append(f"[{tag}] witness {check.name}: {check.checked} checks")
        ok = ok and report.passed
    elif kind in ("coe-witness", "conj-witness"):
        raise CertificateError(f"kind {kind} requires a witness block")
    return ok, lines
