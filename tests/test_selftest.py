from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import random
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from composite import composite_scale, only_part
from orbitcert import cli, intmat, selftest
from orbitcert.chain import verify_chain
from orbitcert.cocycle import CheckResult, VerifyReport
from orbitcert.decide import coe_decide, conj_decide, free_group_counterexample_check
from orbitcert.dynamics import point_count
from orbitcert.selftest import (
    SuiteResult,
    coe_positive_pair,
    conj_positive_pair,
    generate_instances,
    near_miss_pair,
    suite_coe_witnesses,
    suite_cohomology,
    suite_conj_vs_bruteforce,
    suite_conj_witnesses,
    suite_counterexample,
    suite_eig,
    suite_invariant_vs_decision,
    suite_snf,
    _check_grids,
    _mandated_conj_pairs,
)
from orbitcert.supernatural import INF, is_supernatural, parse_sn_list, sn_str
from orbitcert.witness import build_coe_witness, build_conj_witness


def test_coe_positive_pairs_are_coe():
    rng = random.Random(41)
    for _ in range(60):
        ms, ns = coe_positive_pair(rng)
        assert coe_decide(ms, ns).equivalent, (ms, ns)


def test_conj_positive_pairs_are_conjugate():
    rng = random.Random(42)
    for _ in range(60):
        ms, ns = conj_positive_pair(rng)
        assert conj_decide(ms, ns).conjugate, (ms, ns)


def test_near_misses_are_well_formed():
    rng = random.Random(43)
    for _ in range(40):
        ms, ns = near_miss_pair(rng)
        assert all(is_supernatural(m) for m in ms + ns)


def test_generated_corpus_mixes_verdicts():
    instances = generate_instances(7, 60)
    assert len(instances) == 60
    verdicts = {bool(coe_decide(ms, ns)) for ms, ns in instances}
    assert verdicts == {True, False}


def test_scale_estimators_monotone_in_level():
    ms, ns = _mandated_conj_pairs()[0]
    cw = only_part(build_conj_witness(ms, ns))

    def largest_grid(level):
        return max(point_count(spec, k) for spec, k in _check_grids(cw, level))

    assert largest_grid(2) <= largest_grid(3)
    w = build_coe_witness(ms, ns)
    assert composite_scale(w, 2) <= composite_scale(w, 3)


def test_corpus_is_screened_by_the_grids_verify_builds():
    # the composite of this pair's chain would hold 186,624 points, beyond
    # the coe budget, but verify checks the chain on its stage grids
    ms, ns = parse_sn_list("3^inf, 2^inf"), parse_sn_list("2^2*3^inf, 2^inf")
    assert (ms, ns) in generate_instances(17, 20)
    chain = build_coe_witness(ms, ns)
    assert composite_scale(chain, 4) == 186_624
    report = verify_chain(chain, level=4)
    assert report.passed, report.summary()


@pytest.mark.parametrize("count, digest", [
    (20, "427a3cc02e671333ecb7fbf3d71c21ffd93d50ddde2dfc6849bfb8e269e9ead8"),
    (200, "a3e9ea5f194b36842a2b7c79291d1044e37ec8d7675e27fc69e95b38221fedbb"),
])
def test_corpus_is_pinned(count, digest):
    # the screen plans the grid checks' grids for every part, linear parts
    # too, and a conjugacy's parts are whole blocks; the selftest benchmark
    # runs generate_instances(17, 20)
    rendered = [[[sn_str(m) for m in side] for side in pair]
                for pair in generate_instances(17, count)]
    text = json.dumps(rendered, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_mandated_pairs_are_conjugate():
    for ms, ns in _mandated_conj_pairs():
        assert conj_decide(ms, ns).conjugate


def test_suite_result_summary_marks_failures():
    good = SuiteResult("demo", 3)
    bad = SuiteResult("demo", 3, failures=["boom"])
    empty = SuiteResult("demo", 0)
    assert "pass" in good.summary()
    assert "FAIL" in bad.summary() and "boom" in bad.summary()
    assert "vacuous (0 checks" in empty.summary()
    assert good.ok and not bad.ok and empty.ok


def test_invariant_suite_small_run():
    res = suite_invariant_vs_decision(9, 40)
    assert res.ok, res.failures
    assert res.checked == 40


def test_counterexample_suite():
    res = suite_counterexample()
    assert res.ok and res.checked == 4


def test_cohomology_suite_small_run():
    res = suite_cohomology(29, count=3)
    assert res.ok, res.failures
    assert res.checked >= 9


def test_snf_suite_records_a_refused_decomposition(monkeypatch):
    # the fourth Smith form comes back with every entry of S moved by one;
    # _check_snf refuses it inside smith_normal_form
    real = intmat._check_snf
    calls = []

    def corrupt_the_fourth(a, n, dec):
        calls.append(a)
        if len(calls) == 4:
            dec = ([[x + 1 for x in row] for row in dec[0]], *dec[1:])
        real(a, n, dec)

    monkeypatch.setattr(intmat, "_check_snf", corrupt_the_fourth)
    res = suite_snf(17, count=6)
    assert res.checked == 6 and len(calls) == 6
    assert res.failures == [
        f"seed=17 #3 {calls[3]}: U*A*V != S; replay: orbitcert selftest --seed 17"]


def test_witness_suite_failures_end_with_a_replay_command(monkeypatch):
    def failing(*args, **kwargs):
        return VerifyReport("forced", 4, [CheckResult("forced", 1, [("forced",)])])

    monkeypatch.setattr(selftest, "verify_chain", failing)
    coe_pair = (parse_sn_list("5*2^inf,3^inf"), parse_sn_list("2^inf,5*3^inf"))
    for relation, res, (ms, ns) in (
        ("conj", suite_conj_witnesses([], level=4, extra=_mandated_conj_pairs()),
         _mandated_conj_pairs()[0]),
        ("coe", suite_coe_witnesses([coe_pair], level=3), coe_pair),
    ):
        assert len(res.failures) == 1, res.failures
        head, replay = res.failures[0].rsplit("; replay: ", 1)
        assert "FAIL" in head
        witness, verify = replay.split(" && ")
        if relation == "conj":
            assert witness.startswith(
                'orbitcert witness conj "2*5^inf,3*5^inf" "3*5^inf,2*5^inf" --level 4')
        prog, *argv = shlex.split(witness)
        assert prog == "orbitcert"
        args = cli.build_parser().parse_args(argv)
        assert (args.command, args.relation) == ("witness", relation)
        assert (parse_sn_list(args.ms), parse_sn_list(args.ns)) == (ms, ns)
        assert args.level == (4 if relation == "conj" else 3)
        out = args.out
        prog, *argv = shlex.split(verify)
        args = cli.build_parser().parse_args(argv)
        assert (prog, args.command, args.certificate) == ("orbitcert", "verify", out)


def test_decision_suite_failures_end_with_a_replay_command(monkeypatch):
    monkeypatch.setattr(selftest, "k_invariant_equal", lambda ms, ns: not coe_decide(ms, ns))
    monkeypatch.setattr(selftest, "conjugacy_bruteforce",
                        lambda ms, ns, *memos: not conj_decide(ms, ns))
    coe_pair = (parse_sn_list("5*2^inf,3^inf"), parse_sn_list("2^inf,5*3^inf"))
    for relation, res in (
        ("coe", suite_invariant_vs_decision(0, instances=[coe_pair])),
        ("conj", suite_conj_vs_bruteforce(5, samples=1, exhaustive=False)),
    ):
        assert len(res.failures) == 1, res.failures
        head, replay = res.failures[0].rsplit("; replay: ", 1)
        prog, *argv = shlex.split(replay)
        args = cli.build_parser().parse_args(argv)
        assert (prog, args.command) == ("orbitcert", relation)
        ms, ns = parse_sn_list(args.ms), parse_sn_list(args.ns)
        assert head.startswith(selftest._fmt_pair(ms, ns))
        if relation == "coe":
            assert (ms, ns) == coe_pair


def test_seeded_and_eigenvalue_suite_failures_end_with_a_replay_command(monkeypatch):
    # one forced failure per suite: a refused Smith decomposition, a false
    # verdict of power -3, a false separation, an untwist that refuses
    real, calls = intmat._check_snf, []

    def refuse_the_second(a, n, dec):
        calls.append(a)
        if len(calls) == 2:
            raise AssertionError("U*A*V != S")
        real(a, n, dec)

    monkeypatch.setattr(intmat, "_check_snf", refuse_the_second)
    monkeypatch.setattr(selftest, "eig_cross_check", lambda m, ks, level, guard, facts: {
        k: {"cyclic": k != -3 or m.factors != ((2, INF),)} for k in ks})
    report = free_group_counterexample_check(2, 3, 5)
    monkeypatch.setattr(selftest, "free_group_counterexample_check", lambda p, q, n: replace(
        report, certified=report.certified[:1] + ((report.certified[1][0], False),)))

    def refusing(*args, **kwargs):
        raise ValueError("forced")

    monkeypatch.setattr(selftest, "untwist_to_conjugacy", refusing)
    expected = {
        "smith-normal-form": ("selftest", {"seed": 23}),
        "eigenvalue-cross-check": ("eig", {"m": "2^inf", "k": -3}),
        "counterexample-family": ("counterexample", {"p": 7, "q": 2, "n": 9}),
        "cohomology-roundtrip": ("selftest", {"seed": 29}),
    }
    for res in (suite_snf(23, count=3), suite_eig(),
                suite_counterexample(7, 2, 9), suite_cohomology(29, count=1)):
        command, values = expected[res.name]
        assert len(res.failures) >= 1, res.name
        assert all("; replay: " in f for f in res.failures), res.name
        head, replay = res.failures[0].rsplit("; replay: ", 1)
        prog, *argv = shlex.split(replay)
        args = cli.build_parser().parse_args(argv)
        assert (prog, args.command) == ("orbitcert", command), res.failures[0]
        assert {name: getattr(args, name) for name in values} == values, res.failures[0]
    assert len(suite_eig().failures) == 1


def _rows(results):
    return [(r.name, r.checked, r.failures) for r in results]


def _in_a_worker(cpus: int) -> bool:
    return cpus > 1 and "fork" in multiprocessing.get_all_start_methods()


@pytest.mark.parametrize("seed, count, sizes", [
    (3, 8, (8, 2, 3, 1000, 2225, 1600, 4, 194)),
    (17, 20, (20, 7, 8, 1000, 2225, 1600, 4, 194)),
], ids=["3-8", "17-20"])
def test_run_all_in_workers_matches_the_in_process_run(seed, count, sizes, monkeypatch):
    # the sizes are pinned, so that no speed-up of a suite drops checks;
    # (17, 20) is the selftest benchmark's input
    monkeypatch.setattr(selftest, "_usable_cpus", lambda: 2)
    forked = selftest.run_all(seed, count)
    assert multiprocessing.active_children() == []
    monkeypatch.setattr(selftest, "_usable_cpus", lambda: 1)
    assert _rows(forked) == _rows(selftest.run_all(seed, count))
    assert [r.name for r in forked] == [
        "invariant-vs-decision", "coe-witness-soundness", "conj-witness-soundness",
        "smith-normal-form", "conj-vs-bruteforce", "eigenvalue-cross-check",
        "counterexample-family", "cohomology-roundtrip"]
    assert tuple(r.checked for r in forked) == sizes
    assert all(r.ok for r in forked)


def test_run_all_shows_a_failing_check_of_a_worker(monkeypatch):
    # the patch is inherited by the forked workers
    def failing(*args, **kwargs):
        return VerifyReport("forced", 4, [CheckResult("forced", 1, [("forced",)])])

    monkeypatch.setattr(selftest, "verify_chain", failing)
    monkeypatch.setattr(selftest, "_usable_cpus", lambda: 2)
    results = {r.name: r for r in selftest.run_all(17, 20)}
    assert multiprocessing.active_children() == []
    for name in ("coe-witness-soundness", "conj-witness-soundness"):
        res = results[name]
        assert res.checked > 0 and len(res.failures) == res.checked, name
        assert all("FAIL" in f and "; replay: orbitcert witness" in f for f in res.failures)
    assert all(r.ok for n, r in results.items() if "witness" not in n)


@pytest.mark.parametrize("cpus", [1, 2])
def test_run_all_reraises_a_suite_error(cpus, monkeypatch):
    def raising(*args, **kwargs):
        raise OverflowError(f"raised in process {os.getpid()}")

    monkeypatch.setattr(selftest, "eig_cross_check", raising)
    monkeypatch.setattr(selftest, "_usable_cpus", lambda: cpus)
    with pytest.raises(OverflowError) as exc:
        selftest.run_all(3, 8)
    assert multiprocessing.active_children() == []
    here = str(exc.value) == f"raised in process {os.getpid()}"
    assert here != _in_a_worker(cpus)


def test_importing_the_selftest_loads_no_process_pool():
    # every benchmark worker imports orbitcert.selftest; run_all imports the
    # pool's modules only when it forks
    import orbitcert

    code = ("import sys\nimport orbitcert.cli, orbitcert.selftest\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    env = dict(os.environ, PYTHONPATH=str(Path(orbitcert.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_the_eigenvalue_suite_loads_no_masked_arrays():
    # the first np.unique of a process imports numpy.ma, and the benchmark's
    # selftest parent never loads it, so each forked eigenvalue suite would
    # pay for that import again
    import orbitcert

    code = ("import sys\nfrom orbitcert.selftest import suite_eig\n"
            "assert suite_eig().ok\nprint('numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(orbitcert.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
