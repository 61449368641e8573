from __future__ import annotations

import json
import re

import pytest

from box_oracle import enumerate_points, image, value
from composite import compose_chain
from orbitcert.certificates import (
    FORMAT,
    CertificateError,
    canonical_json,
    certificate,
    content_hash,
    counterexample_certificate,
    dumps,
    loads,
    seal,
    verify_certificate,
    witness_block,
    witness_from_block,
)
from orbitcert.decide import coe_decide, conj_decide, free_group_counterexample_check
from orbitcert.supernatural import parse_sn_list
from orbitcert.witness import build_coe_witness

M_EXAMPLE = parse_sn_list("5*2^inf, 3^inf")
N_EXAMPLE = parse_sn_list("2^inf, 5*3^inf")
M_SWAP = parse_sn_list("2*5^inf, 3*5^inf")
N_SWAP = parse_sn_list("3*5^inf, 2*5^inf")


def _coe_cert(level=3):
    d = coe_decide(M_EXAMPLE, N_EXAMPLE)
    return certificate(
        M_EXAMPLE, N_EXAMPLE, d, witness_block("coe", M_EXAMPLE, N_EXAMPLE, level)
    )


def _conj_cert(level=3):
    d = conj_decide(M_SWAP, N_SWAP)
    block = witness_block("conj", M_SWAP, N_SWAP, level)
    return certificate(M_SWAP, N_SWAP, d, block, kind="conj-witness")


def test_coe_witness_certificate_roundtrip():
    cert = loads(dumps(_coe_cert()))
    ok, lines = verify_certificate(cert)
    assert ok, lines
    assert any("phi-equivariance" in ln for ln in lines)
    # a check with nothing to compare, such as the cocycle identity of a
    # rank-1 odometer, passes and says it was vacuous
    assert all(ln.startswith("[vacuous]") == ln.endswith(": 0 checks") for ln in lines), lines
    assert all(ln.startswith(("[pass]", "[vacuous]")) for ln in lines)
    assert "[vacuous] witness stage 0 part 0 (split) @3: cocycle-identity-a: 0 checks" in lines
    # every check line names its stage, its part and the level it ran at
    checks = [ln for ln in lines if re.match(r"\[(pass|vacuous)\] witness stage", ln)]
    assert len(checks) == 4 + 8 * 10
    assert all(re.match(r"\[(pass|vacuous)\] witness stage \d+ (part \d+ \([a-z]+(\^-1)?\) )?"
                        r"@\d+: ", ln) for ln in checks)


def test_conj_witness_certificate_roundtrip():
    ok, lines = verify_certificate(loads(dumps(_conj_cert())))
    assert ok, lines
    # the README block is one part, checked by its matrices
    assert "[pass] witness stage 0 part 0 (conj) @3: homomorphism: 4 checks" in lines, lines
    assert not any("part 1" in ln for ln in lines), lines


def test_counterexample_certificate_roundtrip():
    cert = counterexample_certificate(free_group_counterexample_check(2, 3, 5))
    ok, lines = verify_certificate(loads(dumps(cert)))
    assert ok, lines


def test_negative_certificates_reproduce():
    ms = parse_sn_list("2^inf")
    ns = parse_sn_list("2^inf, 3^inf")
    ok, _ = verify_certificate(loads(dumps(certificate(ms, ns, coe_decide(ms, ns)))))
    assert ok
    d = conj_decide(M_EXAMPLE, N_EXAMPLE)
    ok, lines = verify_certificate(
        loads(dumps(certificate(M_EXAMPLE, N_EXAMPLE, d)))
    )
    assert ok
    assert any("non-conjugacy reproduces" in ln for ln in lines)


def _negative_coe_cert():
    ms, ns = parse_sn_list("2^inf"), parse_sn_list("2^inf, 3^inf")
    return certificate(ms, ns, coe_decide(ms, ns))


def _negative_conj_cert():
    return certificate(M_EXAMPLE, N_EXAMPLE, conj_decide(M_EXAMPLE, N_EXAMPLE))


def _counterexample_cert():
    return counterexample_certificate(free_group_counterexample_check(2, 3, 5))


def _flags(value):
    return lambda p: p.update(certified=[[stmt, value] for stmt, _ in p["certified"]])


@pytest.mark.parametrize("make, edit, outcome", [
    (_coe_cert, lambda p: p.update(equivalent="no"), "error"),
    (_negative_coe_cert, lambda p: p.update(equivalent=0), "error"),
    (_negative_coe_cert, lambda p: p.update(equivalent=[]), "error"),
    (_conj_cert, lambda p: p.update(conjugate="no"), "error"),
    (_negative_conj_cert, lambda p: p.update(conjugate=0), "error"),
    (_counterexample_cert, _flags("false"), "error"),
    (_counterexample_cert, lambda p: p.update(conjugate="false"), "error"),
    (_counterexample_cert, lambda p: p.update(conjugate=True), "fail"),
], ids=["coe-string", "coe-zero", "coe-list", "conj-string", "conj-zero",
        "counterexample-flags", "counterexample-string", "counterexample-conjugate"])
def test_verdicts_must_be_json_booleans(make, edit, outcome):
    # each resealed edit once verified: bool() read "no" and "false" as true
    cert = loads(dumps(make()))
    edit(cert["payload"])
    cert = seal(cert)
    if outcome == "error":
        with pytest.raises(CertificateError, match="must be true or false"):
            verify_certificate(cert)
        return
    ok, lines = verify_certificate(cert)
    assert not ok, lines


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


def test_resealed_non_unimodular_conjugator_fails(tmp_path, capsys):
    # S*diag(m)*T = diag(n) holds for m = (1, 1), n = (1, 2), S = I and
    # T = diag(1, 2), and 2*2^inf = 2^inf, but Z/1 x Z/1 is not Z/1 x Z/2
    from orbitcert.cli import main

    ms = ns = parse_sn_list("2^inf, 2^inf")
    cert = loads(dumps(certificate(ms, ns, conj_decide(ms, ns))))
    block = cert["payload"]["blocks"][0]
    block["right_multipliers"] = [1, 2]
    block["t"] = [[1, 0], [0, 2]]
    cert = seal(cert)
    ok, lines = verify_certificate(cert)
    assert not ok
    assert any(ln.startswith("[FAIL] decision") and "unimodular" in ln for ln in lines), lines
    path = tmp_path / "forged.json"
    path.write_text(dumps(cert))
    assert main(["verify", str(path)]) == 1
    assert "[FAIL] decision" in capsys.readouterr().out


def _swap_pairs(payload):
    payload["pairs"][1] = dict(payload["pairs"][0])


@pytest.mark.parametrize("edit, outcome", [
    (lambda p: p["pairs"][0].update(left=0.4), "error"),
    (lambda p: p["pairs"][0].update(left=-2), "error"),
    (lambda p: p["sigma"].__setitem__(0, True), "error"),
    (lambda p: p["pairs"][0].update(m=1.0), "error"),
    (_swap_pairs, "fail"),
], ids=["float-left", "negative-left", "bool-sigma", "float-m", "factor-without-pair"])
def test_coe_payload_is_strict(edit, outcome):
    # each edit once left "[pass] decision" standing
    cert = loads(dumps(_coe_cert()))
    edit(cert["payload"])
    cert = seal(cert)
    if outcome == "error":
        with pytest.raises(CertificateError, match="must be an integer"):
            verify_certificate(cert)
        return
    ok, lines = verify_certificate(cert)
    assert not ok
    assert any(ln.startswith("[FAIL] decision") for ln in lines)


@pytest.mark.parametrize("field, value", [
    ("left_indices", [0.0, 1]), ("left_indices", [0, 2]), ("right_multipliers", [True, 2]),
], ids=["float-index", "index-out-of-range", "bool-multiplier"])
def test_conj_payload_is_strict(field, value):
    cert = loads(dumps(_conj_cert()))
    cert["payload"]["blocks"][0][field] = value
    with pytest.raises(CertificateError, match="must be an integer"):
        verify_certificate(seal(cert))


def test_verify_at_a_level_above_the_recorded_one():
    # the witness is rebuilt, so any level within the point limit is checked
    cert = loads(dumps(_coe_cert(level=2)))
    ok, lines = verify_certificate(cert, level=4)
    assert ok, lines


def test_old_format_is_refused_with_a_hint():
    text = dumps(_coe_cert()).replace(FORMAT, "orbitcert-certificate")
    with pytest.raises(CertificateError, match="'orbitcert-certificate'.*re-emit"):
        loads(text)


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
    cert = certificate(M_EXAMPLE, N_EXAMPLE, d, None, kind="coe-witness")
    with pytest.raises(CertificateError, match="witness"):
        verify_certificate(loads(dumps(cert)))


def test_witness_blocks_record_no_tables():
    assert _coe_cert()["witness"] == {"type": "coe", "level": 3}
    assert _conj_cert()["witness"] == {"type": "conj", "level": 3}
    # every check is exact over the acting group; no radius is read
    for cert in (loads(dumps(_coe_cert())), loads(dumps(_conj_cert()))):
        cert["witness"]["radius"] = 6
        with pytest.raises(CertificateError, match="unexpected"):
            verify_certificate(seal(cert))


def test_reconstructed_witness_matches_original_pointwise():
    # the witness verify checks is the one the library builds
    cert = loads(dumps(_coe_cert()))
    ms, ns = (parse_sn_list(",".join(cert["inputs"][k])) for k in ("ms", "ns"))
    back = compose_chain(witness_from_block("coe", ms, ns))
    w = compose_chain(build_coe_witness(M_EXAMPLE, N_EXAMPLE))
    for xp in enumerate_points(w.source, w.phi.input_level(2)):
        assert image(back.phi, 2, xp) == image(w.phi, 2, xp)
    for yp in enumerate_points(w.target, w.psi.input_level(2)):
        assert image(back.psi, 2, yp) == image(w.psi, 2, yp)
    for i, gen in enumerate(back.a.generators):
        for xp in enumerate_points(w.source, gen.level):
            assert value(gen, xp) == value(w.a.generators[i], xp)


def test_hash_is_formatting_independent():
    cert = _coe_cert()
    again = loads(dumps(cert))
    assert content_hash(again) == cert["hash"]
    assert seal(again)["hash"] == cert["hash"]
    # canonical serialization is deterministic
    assert canonical_json(cert) == canonical_json(json.loads(json.dumps(cert)))


def test_coe_witness_is_bound_to_the_inputs():
    # the README pair's witness under a negative 2^inf vs 3^inf verdict
    ms, ns = parse_sn_list("2^inf"), parse_sn_list("3^inf")
    block = _coe_cert()["witness"]
    cert = certificate(ms, ns, coe_decide(ms, ns), block, kind="coe-witness")
    ok, lines = verify_certificate(loads(dumps(cert)))
    assert not ok
    assert any(ln.startswith("[FAIL] witness binding") for ln in lines)
    # under a positive verdict about other systems it stands for their
    # witness: the witness is rebuilt from the certificate's own inputs
    ms, ns = parse_sn_list("3*2^inf, 5^inf"), parse_sn_list("2^inf, 3*5^inf")
    cert = certificate(ms, ns, coe_decide(ms, ns), block, kind="coe-witness")
    ok, lines = verify_certificate(loads(dumps(cert)))
    assert ok, lines


def test_conj_witness_is_bound_to_the_inputs():
    # the swap pair's conjugacy under the README pair's negative conj verdict
    block = witness_block("conj", M_SWAP, N_SWAP, 1)
    d = conj_decide(M_EXAMPLE, N_EXAMPLE)
    cert = certificate(M_EXAMPLE, N_EXAMPLE, d, block, kind="conj-witness")
    ok, lines = verify_certificate(loads(dumps(cert)))
    assert not ok
    assert any(ln.startswith("[FAIL] witness binding") for ln in lines)


def test_witness_type_must_match_the_kind():
    # a sound coe witness does not prove a conj claim about the same pair
    block = _coe_cert()["witness"]
    cert = certificate(M_EXAMPLE, N_EXAMPLE, conj_decide(M_EXAMPLE, N_EXAMPLE), block)
    ok, lines = verify_certificate(loads(dumps(cert)))
    assert not ok
    assert any(ln.startswith("[FAIL] witness binding") for ln in lines)


@pytest.mark.parametrize("field", ["level"])
@pytest.mark.parametrize("value", [None, True, 2.0, -1, "3"])
def test_budget_fields_are_strict(field, value):
    cert = loads(dumps(_coe_cert(level=2)))
    if value is None:
        del cert["witness"][field]
    else:
        cert["witness"][field] = value
    with pytest.raises(CertificateError, match=field):
        verify_certificate(seal(cert))


def test_requested_budget_must_be_a_natural():
    cert = loads(dumps(_coe_cert(level=2)))
    for kw in ({"level": -1}, {"level": True}):
        with pytest.raises(CertificateError, match="non-negative"):
            verify_certificate(cert, **kw)
