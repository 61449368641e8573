"""Acceptance gate: eight criteria, one verdict line each.

Shared corpus: 200 seeded instances (seed 17).  Witnesses are verified at
level 4, exactly over the acting group, and rank-3 coe witness chains at
level 2; cohomology corpus at level 3;
wall-clock ceilings pinned per criterion.  Verdict lines are
echoed in the terminal summary by the conftest hook.
"""
from __future__ import annotations

import time
from collections import Counter

import pytest

from conftest import ACCEPTANCE_LINES
from orbitcert.decide import coe_decide, conj_decide, free_group_counterexample_check
from orbitcert.selftest import (
    _mandated_conj_pairs,
    generate_instances,
    suite_coe_witnesses,
    suite_cohomology,
    suite_conj_vs_bruteforce,
    suite_conj_witnesses,
    suite_eig,
    suite_invariant_vs_decision,
    suite_snf,
)
from orbitcert.supernatural import parse_sn_list

SEED = 17
COUNT = 200


def _record(criterion: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


@pytest.fixture(scope="module")
def instances():
    return generate_instances(SEED, COUNT)


def test_criterion_1_example_reproduction():
    ms = parse_sn_list("5*2^inf, 3^inf")
    ns = parse_sn_list("2^inf, 5*3^inf")
    t0 = time.perf_counter()
    coe_yes = coe_decide(ms, ns).equivalent
    t_coe = time.perf_counter() - t0
    t0 = time.perf_counter()
    conj_no = not conj_decide(ms, ns).conjugate
    t_conj = time.perf_counter() - t0
    pad = parse_sn_list("2^inf")
    m3, n3 = ms + pad, ns + pad
    padded = coe_decide(m3, n3).equivalent and not conj_decide(m3, n3).conjugate
    ok = coe_yes and conj_no and padded and t_coe < 1.0 and t_conj < 1.0
    _record(
        1,
        ok,
        f"example pair coe-yes/conj-no in {t_coe * 1e3:.1f}/{t_conj * 1e3:.1f} ms "
        "(< 1 s each); padded r=3 family keeps both verdicts",
    )
    assert ok


def test_criterion_2_invariant_matches_decision():
    res = suite_invariant_vs_decision(SEED, COUNT)
    ok = res.ok and res.checked >= 200 and res.elapsed < 10.0
    _record(
        2,
        ok,
        f"k-invariant equality == coe decision on {res.checked} seeded instances "
        f"({res.positives} positive), {res.elapsed:.2f} s (< 10 s), "
        f"{len(res.failures)} mismatches",
    )
    assert ok, res.failures


def test_criterion_3_coe_witness_soundness(instances):
    res = suite_coe_witnesses(instances, level=4, max_rank=2)
    rank3 = suite_coe_witnesses([p for p in instances if len(p[0]) == 3], level=2, max_rank=3)
    elapsed = res.elapsed + rank3.elapsed
    ok = res.ok and rank3.ok and res.checked >= 20 and rank3.checked == 32 and elapsed < 60.0
    # a pair whose sides reorder each other is wired, with no split or merge
    wired = [sum(Counter(ms) == Counter(ns) for ms, ns in instances
                 if low <= len(ms) <= high and coe_decide(ms, ns))
             for low, high in ((1, 2), (3, 3))]
    _record(
        3,
        ok,
        f"{res.checked} coe-positive instances (r <= 2) at level 4 and "
        f"{rank3.checked} (r = 3) at level 2, {wired[0]} and {wired[1]} of them "
        f"wired by a permutation: built witness chains pass "
        f"verify_chain stage by stage in {elapsed:.2f} s (< 60 s), "
        f"{len(res.failures) + len(rank3.failures)} violations",
    )
    assert ok, res.failures + rank3.failures


def test_criterion_4_conj_witness_soundness(instances):
    res = suite_conj_witnesses(instances, level=4, extra=_mandated_conj_pairs())
    ok = res.ok and res.checked == 76
    _record(
        4,
        ok,
        f"{res.checked} conj-positive instances (mandated swap pair included): "
        f"S*diag(m)*T = diag(n) exact and verify_conj passes at level 4, "
        f"exact over the acting group, in {res.elapsed:.2f} s, "
        f"{len(res.failures)} violations",
    )
    assert ok, res.failures


def test_criterion_5_smith_normal_form():
    res = suite_snf(SEED, count=1000, max_dim=5, bound=20)
    ok = res.ok and res.checked == 1000 and res.elapsed < 5.0
    _record(
        5,
        ok,
        f"1000 random matrices (dims <= 5, entries in [-20, 20]): exact "
        f"U*A*V = S, unimodularity, divisibility chain, minor-gcd oracle in "
        f"{res.elapsed:.2f} s (< 5 s), {len(res.failures)} failures",
    )
    assert ok, res.failures


def test_criterion_6_conjugacy_oracle_equivalence():
    res = suite_conj_vs_bruteforce(SEED, samples=4000, exhaustive=True)
    ok = res.ok and res.checked >= 5000
    _record(
        6,
        ok,
        f"canonical conj_decide == brute-force partition search on "
        f"{res.checked} pairs (exhaustive rank <= 2 subfamily over {{2,3}} "
        f"plus 4000 seeded draws from the full {{2,3,5}} domain), "
        f"{len(res.failures)} disagreements",
    )
    assert ok, res.failures


def test_criterion_7_eigenvalue_calculus():
    res = suite_eig(kmax=12, max_level=5)
    rep = free_group_counterexample_check(2, 3, 5)
    certified = dict(rep.certified)
    separations = [
        next((ok for stmt, ok in certified.items() if marker in stmt), False)
        for marker in ("!= T(1)", "!= T(2^inf)", "not contained")
    ]
    cited = any("orbit equivalent" in c for c in rep.cited)
    ok = res.ok and all(separations) and cited
    _record(
        7,
        ok,
        f"eig_group == oracle on {res.checked} (M, k, level) triples in "
        f"{res.elapsed:.2f} s; counterexample 2 3 5 certifies the three "
        "eigenvalue separations with the coe direction flagged as cited",
    )
    assert ok, (res.failures, rep.certified)


def test_criterion_8_cocycle_algebra():
    res = suite_cohomology(SEED, count=12, level=3)
    ok = res.ok and res.checked >= 12
    _record(
        8,
        ok,
        f"twist/untwist round trips on the constructed corpus at level 3: "
        f"{res.checked} checks in {res.elapsed:.2f} s, untwisted "
        f"witnesses pass verify_conj whenever the premise holds, "
        f"{len(res.failures)} failures",
    )
    assert ok, res.failures
