from __future__ import annotations

import json

import pytest

from orbitcert.certificates import (
    CertificateError,
    canonical_json,
    coe_certificate,
    coe_witness_block,
    coe_witness_from_block,
    conj_certificate,
    conj_witness_block,
    content_hash,
    counterexample_certificate,
    dumps,
    loads,
    seal,
    verify_certificate,
)
from orbitcert.decide import coe_decide, conj_decide, free_group_counterexample_check
from orbitcert.dynamics import enumerate_points
from orbitcert.supernatural import parse_sn_list
from orbitcert.witness import build_coe_witness, build_conj_witness

M_EXAMPLE = parse_sn_list("5*2^inf, 3^inf")
N_EXAMPLE = parse_sn_list("2^inf, 5*3^inf")
M_SWAP = parse_sn_list("2*5^inf, 3*5^inf")
N_SWAP = parse_sn_list("3*5^inf, 2*5^inf")


def _coe_cert(level=3, radius=4):
    d = coe_decide(M_EXAMPLE, N_EXAMPLE)
    w = build_coe_witness(M_EXAMPLE, N_EXAMPLE)
    return coe_certificate(
        M_EXAMPLE, N_EXAMPLE, d, coe_witness_block(w, level, radius)
    )


def test_coe_witness_certificate_roundtrip():
    cert = loads(dumps(_coe_cert()))
    ok, lines = verify_certificate(cert)
    assert ok, lines
    assert any("phi-equivariance" in ln for ln in lines)
    assert all(ln.startswith("[pass]") for ln in lines)


def test_conj_witness_certificate_roundtrip():
    d = conj_decide(M_SWAP, N_SWAP)
    cw = build_conj_witness(M_SWAP, N_SWAP)
    cert = conj_certificate(
        M_SWAP, N_SWAP, d, conj_witness_block(cw, 3, 4), kind="conj-witness"
    )
    ok, lines = verify_certificate(loads(dumps(cert)))
    assert ok, lines
    assert any("rho-isomorphism" in ln for ln in lines)


def test_counterexample_certificate_roundtrip():
    cert = counterexample_certificate(free_group_counterexample_check(2, 3, 5))
    ok, lines = verify_certificate(loads(dumps(cert)))
    assert ok, lines


def test_negative_certificates_reproduce():
    ms = parse_sn_list("2^inf")
    ns = parse_sn_list("2^inf, 3^inf")
    ok, _ = verify_certificate(loads(dumps(coe_certificate(ms, ns, coe_decide(ms, ns)))))
    assert ok
    d = conj_decide(M_EXAMPLE, N_EXAMPLE)
    ok, lines = verify_certificate(
        loads(dumps(conj_certificate(M_EXAMPLE, N_EXAMPLE, d)))
    )
    assert ok
    assert any("non-conjugacy reproduces" in ln for ln in lines)


def test_tampered_payload_fails_hash():
    cert = loads(dumps(_coe_cert()))
    cert["payload"]["equivalent"] = False
    ok, lines = verify_certificate(cert)
    assert not ok
    assert "hash mismatch" in lines[0]


def test_resealed_semantic_edit_still_fails():
    # fixing up the hash must not rescue a broken multiplier pair; bump the
    # odd multiplier (a factor of 2 would be absorbed by the 2^inf side)
    cert = loads(dumps(_coe_cert()))
    cert["payload"]["pairs"][0]["n"] += 1
    cert = seal(cert)
    ok, lines = verify_certificate(cert)
    assert not ok
    assert any(ln.startswith("[FAIL] decision") for ln in lines)


def test_resealed_table_edit_fails_witness_checks():
    cert = loads(dumps(_coe_cert()))
    table = cert["witness"]["phi"]["table"]
    table[0][0] = (table[0][0] + 1) % 2  # stay in range, change the map
    cert = seal(cert)
    ok, lines = verify_certificate(cert)
    assert not ok
    assert any(ln.startswith("[FAIL] witness") for ln in lines)


def test_verify_above_embedded_level_is_refused():
    cert = loads(dumps(_coe_cert(level=3)))
    with pytest.raises(CertificateError, match="materialized"):
        verify_certificate(cert, level=5)
    # below the embedded level is fine
    ok, _ = verify_certificate(cert, level=2, radius=3)
    assert ok


def test_malformed_certificates_rejected():
    with pytest.raises(CertificateError, match="JSON"):
        loads("{nope")
    with pytest.raises(CertificateError, match="object"):
        loads("[1,2]")
    cert = loads(dumps(_coe_cert()))
    for field in ("format", "kind", "hash"):
        broken = {k: v for k, v in cert.items() if k != field}
        with pytest.raises(CertificateError, match=field):
            loads(json.dumps(broken))
    bad_kind = dict(cert)
    bad_kind["kind"] = "magic"
    with pytest.raises(CertificateError, match="kind"):
        loads(json.dumps(bad_kind))


def test_witness_kind_requires_witness_block():
    d = coe_decide(M_EXAMPLE, N_EXAMPLE)
    cert = coe_certificate(M_EXAMPLE, N_EXAMPLE, d, None, kind="coe-witness")
    with pytest.raises(CertificateError, match="witness"):
        verify_certificate(loads(dumps(cert)))


def test_out_of_range_table_rejected():
    cert = loads(dumps(_coe_cert()))
    cert["witness"]["phi"]["table"][0][0] = -1
    cert = seal(cert)
    with pytest.raises(CertificateError, match="out-of-range"):
        verify_certificate(cert)


_RAGGED = object()


@pytest.mark.parametrize("table, entry", [
    ("phi", True), ("phi", 0.5), ("phi", "1"), ("phi", _RAGGED),
    ("a", False), ("a", 1.0), ("a", 2**63), ("a", -2**63 - 1), ("a", _RAGGED),
], ids=["phi-bool", "phi-float", "phi-str", "phi-ragged",
        "a-bool", "a-float", "a-above-int64", "a-below-int64", "a-ragged"])
def test_table_entries_must_be_int64_integers(table, entry):
    cert = loads(dumps(_coe_cert(level=2, radius=2)))
    block = cert["witness"][table]
    row = (block["table"] if table == "phi" else block["generators"][0])[0]
    if entry is _RAGGED:
        row.append(0)
    else:
        row[0] = entry
    with pytest.raises(CertificateError, match="ragged|integers|int64"):
        verify_certificate(seal(cert))


def test_hash_is_formatting_independent():
    cert = _coe_cert()
    again = loads(dumps(cert))
    assert content_hash(again) == cert["hash"]
    assert seal(again)["hash"] == cert["hash"]
    # canonical serialization is deterministic
    assert canonical_json(cert) == canonical_json(json.loads(json.dumps(cert)))


def test_reconstructed_witness_matches_original_pointwise():
    w = build_coe_witness(M_EXAMPLE, N_EXAMPLE)
    block = coe_witness_block(w, 3, 4)
    back = coe_witness_from_block(block)
    for xp in enumerate_points(w.source, back.phi.input_level(2)):
        assert back.phi(2, xp) == w.phi(2, xp)
    for yp in enumerate_points(w.target, back.psi.input_level(2)):
        assert back.psi(2, yp) == w.psi(2, yp)
    for i, gen in enumerate(back.a.generators):
        for xp in enumerate_points(w.source, gen.level):
            assert gen(xp) == w.a.generators[i](xp)


def test_coe_witness_is_bound_to_the_inputs():
    # the README pair's witness under a negative 2^inf vs 3^inf verdict
    ms, ns = parse_sn_list("2^inf"), parse_sn_list("3^inf")
    block = _coe_cert()["witness"]
    cert = coe_certificate(ms, ns, coe_decide(ms, ns), block, kind="coe-witness")
    ok, lines = verify_certificate(loads(dumps(cert)))
    assert not ok
    assert any(ln.startswith("[FAIL] witness binding") for ln in lines)
    # a positive verdict about other systems does not take it either
    ms, ns = parse_sn_list("3*2^inf, 5^inf"), parse_sn_list("2^inf, 3*5^inf")
    cert = coe_certificate(ms, ns, coe_decide(ms, ns), block, kind="coe-witness")
    ok, lines = verify_certificate(loads(dumps(cert)))
    assert not ok
    assert any(ln.startswith("[FAIL] witness binding") for ln in lines)


def test_conj_witness_is_bound_to_the_inputs():
    # the swap pair's conjugacy under the README pair's negative conj verdict
    block = conj_witness_block(build_conj_witness(M_SWAP, N_SWAP), 1, 2)
    d = conj_decide(M_EXAMPLE, N_EXAMPLE)
    cert = conj_certificate(M_EXAMPLE, N_EXAMPLE, d, block, kind="conj-witness")
    ok, lines = verify_certificate(loads(dumps(cert)))
    assert not ok
    assert any(ln.startswith("[FAIL] witness binding") for ln in lines)


def test_witness_type_must_match_the_kind():
    # a sound coe witness does not prove a conj claim about the same pair
    block = _coe_cert()["witness"]
    cert = conj_certificate(M_EXAMPLE, N_EXAMPLE, conj_decide(M_EXAMPLE, N_EXAMPLE), block)
    ok, lines = verify_certificate(loads(dumps(cert)))
    assert not ok
    assert any(ln.startswith("[FAIL] witness binding") for ln in lines)


@pytest.mark.parametrize("field", ["level", "radius"])
@pytest.mark.parametrize("value", [None, True, 2.0, -1, "3"])
def test_budget_fields_are_strict(field, value):
    cert = loads(dumps(_coe_cert(level=2, radius=2)))
    if value is None:
        del cert["witness"][field]
    else:
        cert["witness"][field] = value
    with pytest.raises(CertificateError, match=field):
        verify_certificate(seal(cert))


def test_requested_budget_must_be_a_natural():
    cert = loads(dumps(_coe_cert(level=2, radius=2)))
    for kw in ({"level": -1}, {"radius": -1}, {"level": True}):
        with pytest.raises(CertificateError, match="non-negative"):
            verify_certificate(cert, **kw)
