from __future__ import annotations

import json
import re
import time

import pytest

from orbitcert.cli import build_parser, main

COE_M = "5*2^inf,3^inf"
COE_N = "2^inf,5*3^inf"
SWAP_M = "2*5^inf,3*5^inf"
SWAP_N = "3*5^inf,2*5^inf"


def test_coe_example_exits_zero(capsys):
    assert main(["coe", COE_M, COE_N]) == 0
    out = capsys.readouterr().out
    assert "orbit equivalent" in out
    assert '"kind": "coe"' in out


def test_coe_trivial_pair(capsys):
    assert main(["coe", "2^inf", "2^inf"]) == 0
    assert "1*M0 = 1*N0" in capsys.readouterr().out


def test_coe_negative_exits_one(capsys):
    assert main(["coe", "2^inf", "3^inf"]) == 1
    assert "not orbit equivalent" in capsys.readouterr().out


def test_coe_parse_error_exits_two(capsys):
    assert main(["coe", "2^inf", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_conj_example_exits_one(capsys):
    assert main(["conj", COE_M, COE_N]) == 1
    assert "not conjugate" in capsys.readouterr().out


def test_conj_swap_exits_zero(capsys):
    assert main(["conj", SWAP_M, SWAP_N]) == 0
    assert "L=5^inf" in capsys.readouterr().out


def test_conj_identical_exits_zero(capsys):
    assert main(["conj", "6*2^inf*3^inf", "6*2^inf*3^inf"]) == 0
    capsys.readouterr()


def test_kinv_listing(capsys):
    assert main(["kinv", "2^inf"]) == 0
    out = capsys.readouterr().out
    assert "rank: 1" in out
    assert out.count("class {") == 2
    payload = json.loads(out.strip().splitlines()[-1])
    assert payload["total"] == "2^inf"


def test_eig_output(capsys):
    assert main(["eig", "3*2^inf", "3"]) == 0
    out = capsys.readouterr().out
    assert "T(2^inf)" in out


@pytest.mark.parametrize("m, k, group", [
    ("2^inf", "1000003", "T(2^inf)"),
    ("5*2^inf", "2000006", "T(2^inf*5)"),
])
def test_eig_of_powers_with_large_prime_factors(m, k, group, capsys):
    # only the primes of M are divided out of k, so k's large prime is never sought
    assert main(["eig", m, k]) == 0
    assert f"action: {group}" in capsys.readouterr().out


def test_counterexample_exits_zero(capsys):
    assert main(["counterexample", "2", "3", "5"]) == 0
    out = capsys.readouterr().out
    assert out.count("[pass] certified") == 4
    assert "[cited, not machine-checked]" in out


def test_counterexample_bad_inputs_exit_two(capsys):
    assert main(["counterexample", "2", "2", "5"]) == 2
    assert "error:" in capsys.readouterr().err
    # n*p beyond the bound is refused before the walk over powers starts
    for n, reason in ((10**9, "coprime"), (10**9 + 1, "n*p"), (5003, "n*p")):
        t0 = time.perf_counter()
        assert main(["counterexample", "2", "3", str(n)]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert reason in capsys.readouterr().err


def test_witness_roundtrips_through_verify(tmp_path, capsys):
    path = tmp_path / "w.json"
    assert main(["witness", "coe", COE_M, COE_N,
                 "--level", "3", "--out", str(path)]) == 0
    capsys.readouterr()
    # passes at the embedded level and below it
    assert main(["verify", str(path)]) == 0
    assert "verification passed" in capsys.readouterr().out
    assert main(["verify", str(path), "--level", "2"]) == 0
    capsys.readouterr()


def test_conj_witness_roundtrips_through_verify(tmp_path, capsys):
    path = tmp_path / "cw.json"
    assert main(["witness", "conj", SWAP_M, SWAP_N,
                 "--level", "3", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("ms, ns", [
    ("3*2^inf,3^inf", "2^inf,9*3^inf"),
    ("2^inf*3,3^inf", "2^inf,3^inf*3"),
    ("2*3^inf,2^inf", "3^inf,2*2^inf"),
])
def test_witness_with_growing_level_map_roundtrips(ms, ns, tmp_path, capsys):
    # psi reads its input one level deeper than its output
    path = tmp_path / "w.json"
    assert main(["witness", "coe", ms, ns, "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(path)]) == 0
    assert "verification passed" in capsys.readouterr().out


def test_reused_parser_carries_no_options_over(tmp_path, capsys):
    # the parser is built once per process; options of one call must not
    # leak into the next
    assert build_parser() is build_parser()
    f1, f2 = tmp_path / "f1.json", tmp_path / "f2.json"
    assert main(["coe", COE_M, COE_N, "--witness", "--out", str(f1)]) == 0
    assert main(["coe", COE_M, COE_N, "--out", str(f2)]) == 0
    assert "witness" in json.loads(f1.read_text())
    assert "witness" not in json.loads(f2.read_text())
    capsys.readouterr()
    path = tmp_path / "w.json"
    assert main(["witness", "coe", "2^inf,3^inf", "3^inf,2^inf",
                 "--level", "3", "--out", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(path), "--level", "2"]) == 0
    assert "witness stage 0 @2: seams" in capsys.readouterr().out
    assert main(["verify", str(path)]) == 0
    assert "witness stage 0 @3: seams" in capsys.readouterr().out


def test_witness_on_negative_pair_exits_one(capsys):
    assert main(["witness", "conj", COE_M, COE_N]) == 1
    assert "not conjugate" in capsys.readouterr().out


def test_verify_tampered_exits_one(tmp_path, capsys):
    path = tmp_path / "w.json"
    assert main(["witness", "coe", "2^inf", "2^inf",
                 "--level", "3", "--out", str(path)]) == 0
    cert = json.loads(path.read_text())
    cert["payload"]["equivalent"] = False
    path.write_text(json.dumps(cert, sort_keys=True, indent=2))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_verify_missing_file_exits_two(capsys):
    assert main(["verify", "/nonexistent/cert.json"]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_garbage_file_exits_two(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("not json at all")
    assert main(["verify", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_selftest_smoke(capsys):
    assert main(["selftest", "--seed", "3", "--count", "8"]) == 0
    out = capsys.readouterr().out
    assert "selftest passed" in out
    assert "cohomology-roundtrip: pass" in out


@pytest.mark.parametrize("count", ["-5", "0", "10001"])
def test_selftest_refuses_an_empty_corpus(count, capsys):
    # an empty corpus once printed "selftest passed" and exited 0, and the
    # corpus is bounded before any instance is generated
    from orbitcert.cli import SELFTEST_COUNT_LIMIT

    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--count", count])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    if int(count) < 1:
        assert "must be >= 1" in err
    else:
        assert int(count) == SELFTEST_COUNT_LIMIT + 1
        assert f"must be <= {SELFTEST_COUNT_LIMIT}, got {count}" in err


def _emit(tmp_path, capsys, *argv):
    path = tmp_path / "w.json"
    assert main([*argv, "--out", str(path)]) == 0
    capsys.readouterr()
    return path, json.loads(path.read_text())


def _reseal(path, cert):
    from orbitcert.certificates import dumps, seal

    path.write_text(dumps(seal(cert)))


def test_level_2_certificate_verifies_at_level_4(tmp_path, capsys):
    path, _ = _emit(tmp_path, capsys, "witness", "coe", COE_M, COE_N, "--level", "2")
    assert main(["verify", str(path), "--level", "4"]) == 0
    assert "verification passed" in capsys.readouterr().out


def test_positive_verdict_on_negative_pair_fails_without_a_build(tmp_path, capsys, monkeypatch):
    import orbitcert.witness as witness

    def refuse(*args):
        raise AssertionError("a witness was built for a negative pair")

    path, cert = _emit(tmp_path, capsys, "witness", "coe", "2^inf", "2^inf")
    # certificates imports the builder when it builds, so the builder's own
    # module is where a build would find it
    monkeypatch.setattr(witness, "build_coe_witness", refuse)
    cert["inputs"]["ns"] = ["3^inf"]
    _reseal(path, cert)
    assert main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] decision" in out
    assert "[FAIL] witness binding" in out
    assert "verification FAILED" in out


def test_old_format_certificate_exits_two(tmp_path, capsys):
    path, cert = _emit(tmp_path, capsys, "witness", "coe", COE_M, COE_N)
    cert["format"] = "orbitcert-certificate"
    _reseal(path, cert)
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert "'orbitcert-certificate'" in err and "re-emit" in err
    # the /2 format's conj blocks carried a box radius
    path, cert = _emit(tmp_path, capsys, "witness", "conj", SWAP_M, SWAP_N, "--level", "1")
    cert["format"] = "orbitcert-certificate/2"
    cert["witness"]["radius"] = 6
    _reseal(path, cert)
    t0 = time.perf_counter()
    assert main(["verify", str(path)]) == 2
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert "'orbitcert-certificate/2'" in err and "re-emit" in err


def test_radius_is_refused(tmp_path, capsys):
    # a huge radius once sized a box of (2r+1)^rank group elements
    path, cert = _emit(tmp_path, capsys, "witness", "conj", SWAP_M, SWAP_N, "--level", "1")
    cert["witness"]["radius"] = 10**9
    _reseal(path, cert)
    t0 = time.perf_counter()
    assert main(["verify", str(path)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "unexpected ['radius']" in capsys.readouterr().err
    for argv in (["conj", SWAP_M, SWAP_N, "--witness", "--radius", "6"],
                 ["witness", "conj", SWAP_M, SWAP_N, "--radius", "6"],
                 ["verify", str(path), "--radius", "6"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --radius" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["coe", "1000000000000000003*2^inf", "2^inf"],
    ["conj", "2^inf", "1000003^2*2^inf"],
    ["kinv", "1000000000039*2^inf"],
    ["counterexample", "1000003", "3", "5"],
], ids=["bare-natural", "prime-base", "kinv", "counterexample-p"])
def test_prime_factors_beyond_the_domain_exit_two_fast(argv, capsys):
    t0 = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "prime factor >= 1000000" in capsys.readouterr().err


@pytest.mark.parametrize("edit", ["coe-multiplier", "conj-multiplier", "counterexample-n"])
def test_resealed_unbounded_integers_exit_two_fast(edit, tmp_path, capsys):
    if edit == "coe-multiplier":
        path, cert = _emit(tmp_path, capsys, "witness", "coe", COE_M, COE_N, "--level", "1")
        cert["payload"]["pairs"][0]["m"] = 1000000000000000003
    elif edit == "conj-multiplier":
        path, cert = _emit(tmp_path, capsys, "witness", "conj", SWAP_M, SWAP_N, "--level", "1")
        cert["payload"]["blocks"][0]["left_multipliers"][0] = 1000000000000000003
    else:
        path, cert = _emit(tmp_path, capsys, "counterexample", "2", "3", "5")
        cert["inputs"]["n"] = 10**9 + 1
    _reseal(path, cert)
    t0 = time.perf_counter()
    assert main(["verify", str(path)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["witness", "coe", COE_M, COE_N],
    ["witness", "conj", SWAP_M, SWAP_N, "--level", "3"],
], ids=["coe", "conj"])
def test_readme_certificates_are_small(argv, tmp_path, capsys):
    path, _ = _emit(tmp_path, capsys, *argv)
    assert path.stat().st_size < 4096
    assert main(["verify", str(path)]) == 0


@pytest.mark.parametrize("relation, ms, ns", [
    ("coe", COE_M, COE_N), ("conj", SWAP_M, SWAP_N),
])
def test_level_beyond_point_limit_exits_two_fast(relation, ms, ns, tmp_path, capsys):
    path, cert = _emit(tmp_path, capsys, "witness", relation, ms, ns, "--level", "1")
    runs = [["verify", str(path), "--level", str(10**9)],
            ["witness", relation, ms, ns, "--level", str(10**9)]]
    cert["witness"]["level"] = 10**9
    resealed = tmp_path / "resealed.json"
    _reseal(resealed, cert)
    runs.append(["verify", str(resealed)])
    for argv in runs:
        t0 = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert f"level {10**9}" in err and "point limit" in err


WIDE_COE = (",".join(["2^inf*3"] + ["5^inf"] * 32), ",".join(["2^inf", "3*5^inf"] + ["5^inf"] * 31))
WIDE_CONJ = ",".join((["2^inf*3", "2^inf*9", "2^inf"] * 22)[:64])


@pytest.mark.parametrize("relation, ms, ns, level", [
    # a split part of the chain reads its input one level deeper
    pytest.param("coe", "2^inf*3*5^inf,2^2*3^inf*5^inf,2^inf*3*5^inf",
                 "2^2*3^inf*5^inf,2^inf*3*5^inf,2^inf*5^inf", 4, id="rank3-split"),
    # the merge of 33 cycles
    pytest.param("coe", *WIDE_COE, 2, id="coe-rank-33"),
    # a rank-64 block
    pytest.param("conj", WIDE_CONJ, WIDE_CONJ, 2, id="conj-rank-64"),
])
def test_parts_once_refused_for_their_grids_round_trip(relation, ms, ns, level, tmp_path,
                                                       capsys):
    # each part is checked by its pieces, so no grid, and no array axis,
    # bounds it: witness writes the certificate and verify passes it
    path, _ = _emit(tmp_path, capsys, "witness", relation, ms, ns, "--level", str(level))
    t0 = time.perf_counter()
    assert main(["verify", str(path)]) == 0
    assert time.perf_counter() - t0 < 5.0
    assert "verification passed" in capsys.readouterr().out


def test_a_split_beyond_the_point_limit_is_refused_before_it_is_built(tmp_path, capsys):
    # the pair's split and merge parts would have 2^21 cylinders each
    ms, ns = "2^21*5^inf,3^inf", "5^inf,2^21*3^inf"
    t0 = time.perf_counter()
    assert main(["witness", "coe", ms, ns]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "a split of 2097152 cylinders is beyond the point limit 1000000" in \
        capsys.readouterr().err


def test_witness_refuses_a_level_verify_would_refuse(tmp_path, capsys):
    from orbitcert.certificates import certificate
    from orbitcert.decide import coe_decide
    from orbitcert.supernatural import parse_sn_list

    # level 20 is the first that require_level refuses under the coe limit
    level, limit = 20, "point limit 1000000"
    path = tmp_path / "w.json"
    t0 = time.perf_counter()
    assert main(["witness", "coe", COE_M, COE_N, "--level", str(level), "--out", str(path)]) == 2
    assert time.perf_counter() - t0 < 1.0
    refused = capsys.readouterr().err
    assert f"level {level} is beyond the {limit}" in refused and not path.exists()
    # the certificate it no longer writes: verify refuses it with the same error
    left, right = parse_sn_list(COE_M), parse_sn_list(COE_N)
    _reseal(path, certificate(left, right, coe_decide(left, right),
                              {"type": "coe", "level": level}, kind="coe-witness"))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err == refused
    # a decision asked to embed the witness block refuses it before printing
    assert main(["coe", COE_M, COE_N, "--witness", "--level", str(level)]) == 2
    assert capsys.readouterr() == ("", refused)
    # one level lower the same round trip passes
    path, _ = _emit(tmp_path, capsys, "witness", "coe", COE_M, COE_N, "--level", str(level - 1))
    assert main(["verify", str(path)]) == 0


@pytest.mark.parametrize("ms, ns, levels", [
    # the README conjugacy, whose 5-part's level-5 grid would hold 9,765,625 points
    (SWAP_M, SWAP_N, (5, 12)),
    # the 2-part's maps read level 60 whatever the output level
    ("2^60*5^inf,3^37*5^inf", "3^37*5^inf,2^60*5^inf", (0, 4)),
], ids=["readme", "level-60-reads"])
def test_conj_parts_are_checked_by_their_matrices_at_any_level(ms, ns, levels, tmp_path,
                                                              capsys):
    from orbitcert.certificates import loads, verify_certificate

    for level in levels:
        path, _ = _emit(tmp_path, capsys, "witness", "conj", ms, ns, "--level", str(level))
        ok, lines = verify_certificate(loads(path.read_text()))
        assert ok, lines
        assert main(["verify", str(path)]) == 0
        assert "verification passed" in capsys.readouterr().out
    # the level bound left on a linear part: 2**23 points exceed the conj limit
    assert main(["verify", str(path), "--level", "23"]) == 2
    assert "level 23 is beyond the point limit 5000000" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["witness", "coe", COE_M, COE_N, "--level", "-1"],
    ["witness", "conj", SWAP_M, SWAP_N, "--level", "-1"],
    ["coe", COE_M, COE_N, "--witness", "--level", "-2"],
    ["verify", "w.json", "--level", "-1"],
    ["conj", SWAP_M, SWAP_N, "--witness", "--level", "-1"],
])
def test_negative_budget_flags_exit_two(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be >= 0" in capsys.readouterr().err


RANK3_M = "2^inf*3*5^inf,5^inf,3*5^inf"
RANK3_N = "2^2*5^inf,2^inf*3*5^inf,3*5^inf"


def test_rank3_witness_verifies_stage_by_stage(tmp_path, capsys):
    # its composite needed a level-2 grid of 2.25M points; each stage part
    # is checked on its own grid
    path, _ = _emit(tmp_path, capsys, "witness", "coe", RANK3_M, RANK3_N, "--level", "2")
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "verification passed" in out
    assert "[pass] witness stage 3 part 2 (split^-1) @2: a-inverts-b" in out


THREE_M = "2^inf*3^inf,2^inf,2^inf"
THREE_N = "2^inf,2^inf,2^inf*3^inf"


def test_multi_block_conjugacy_verifies_block_by_block(tmp_path, capsys):
    # one part per asymptotic class, each checked by its matrices: the
    # whole system's level-5 grid would hold 7,962,624 points, and the
    # (2^inf*3^inf) block's alone 7,776
    from orbitcert.certificates import witness_from_block
    from orbitcert.supernatural import parse_sn_list

    path, _ = _emit(tmp_path, capsys, "witness", "conj", THREE_M, THREE_N, "--level", "5")
    counts = {}
    for level in (5, 4):
        assert main(["verify", str(path), "--level", str(level)]) == 0
        out = capsys.readouterr().out
        assert "verification passed" in out
        checks = re.findall(rf"\[pass\] witness stage 0 (part (\d+) \(conj\) )?@{level}: "
                            r"([a-z-]+): (\d+) checks", out)
        assert [c for c in checks if c[2] == "seams"] == [("", "", "seams", "7")]
        assert sorted({c[1] for c in checks if c[0]}) == ["0", "1"]
        assert [c[2] for c in checks].count("homomorphism") == 2
        counts[level] = [(c[0], c[2], int(c[3])) for c in checks if c[0]]
    # no part's count grows with the level; the rank-2 part's roundtrips
    # test 2 * (2 + 2) divisibilities each
    assert counts[5] == counts[4] and max(n for *_, n in counts[5]) == 8
    chain = witness_from_block("conj", parse_sn_list(THREE_M), parse_sn_list(THREE_N))
    assert [(p.reads, p.writes) for p in chain.stages[0].parts] == [((1, 2), (0, 1)),
                                                                   ((0,), (2,))]


@pytest.mark.parametrize("exponent", [10**6, 10**9])
def test_huge_exponents_exit_two_fast(exponent, tmp_path, capsys):
    big = f"3^{exponent}*2^inf,3^inf"
    t0 = time.perf_counter()
    assert main(["coe", big, "2^inf,3^inf"]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert f"exponent {exponent} of 3 exceeds 64" in capsys.readouterr().err
    # the same input smuggled into a resealed certificate
    path, cert = _emit(tmp_path, capsys, "witness", "coe", "3*2^inf,3^inf", "2^inf,3^inf",
                       "--level", "1")
    cert["inputs"]["ms"][0] = big.split(",")[0]
    _reseal(path, cert)
    t0 = time.perf_counter()
    assert main(["verify", str(path)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert f"exponent {exponent} of 3 exceeds 64" in capsys.readouterr().err


def test_kinv_of_64_factors_exits_zero_fast():
    # the 2^64 subset products are never enumerated; the run happens in a
    # child process so that an enumeration times out instead of hanging
    import os
    import subprocess
    import sys
    from pathlib import Path

    import orbitcert

    sides = ",".join(["2^inf", "3^inf", "2^inf*5", "3*5^inf"] * 16)
    code = ("import sys, time\nfrom orbitcert.cli import main\nt0 = time.perf_counter()\n"
            "rc = main(['kinv', sys.argv[1]])\nprint('elapsed', time.perf_counter() - t0)\n"
            "sys.exit(rc)")
    env = dict(os.environ, PYTHONPATH=str(Path(orbitcert.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, sides], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert float(lines[-1].split()[1]) < 1.0
    payload = json.loads(lines[-2])
    assert payload["rank"] == 64
    assert sum(mult for _, mult in payload["classes"]) == 2**64


def test_conj_of_65_factors_exits_two_fast(capsys):
    # conj_decide's Smith elimination is cubic in the block size
    from orbitcert.decide import RANK_LIMIT

    side = ",".join(["2^inf"] * (RANK_LIMIT + 1))
    t0 = time.perf_counter()
    assert main(["conj", side, side]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "left: 65 factors exceed 64" in capsys.readouterr().err


def test_kinv_beyond_the_prime_limit_exits_two_fast(capsys):
    from orbitcert.decide import KINV_PRIME_LIMIT

    primes = [p for p in range(2, 60) if all(p % d for d in range(2, p))]
    assert len(primes) == KINV_PRIME_LIMIT + 1 == 17
    t0 = time.perf_counter()
    assert main(["kinv", ",".join(f"{p}^inf" for p in primes)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "17 distinct infinite primes exceed 16" in capsys.readouterr().err


def test_decision_commands_do_not_import_numpy(tmp_path):
    # coe, conj and kinv decide with Python integers, and witness and verify
    # check every part by its integer pieces: a fresh process that runs
    # them all on both README pairs has not imported numpy
    import os
    import subprocess
    import sys
    from pathlib import Path

    import orbitcert

    coe, conj = str(tmp_path / "coe.json"), str(tmp_path / "conj.json")
    code = ("import sys\nfrom orbitcert.cli import main\n"
            f"rcs = [main(['coe', {COE_M!r}, {COE_N!r}]), main(['conj', {SWAP_M!r}, {SWAP_N!r}]),\n"
            f"       main(['coe', '2^inf', '3^inf']), main(['kinv', {COE_M!r}])]\n"
            "print('rcs', rcs, 'numpy' in sys.modules)\n"
            f"rcs = [main(['witness', 'coe', {COE_M!r}, {COE_N!r}, '--out', {coe!r}]),\n"
            f"       main(['witness', 'conj', {SWAP_M!r}, {SWAP_N!r}, '--out', {conj!r}]),\n"
            f"       main(['verify', {coe!r}]), main(['verify', {conj!r}])]\n"
            "print('witness', rcs, 'numpy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(orbitcert.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "rcs [0, 0, 1, 0] False" in lines, proc.stdout
    assert lines[-1] == "witness [0, 0, 0, 0] False", proc.stdout
