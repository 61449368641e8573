from __future__ import annotations

import itertools
import math
import random
import re

import pytest

from orbitcert import decide, intmat
from orbitcert.decide import (
    CoeDecision,
    coe_decide,
    conj_decide,
    eig_cross_check,
    eig_group,
    eig_group_oracle,
    free_group_counterexample_check,
    k_invariant,
    k_invariant_equal,
)
from orbitcert.dynamics import Odometer, level_modulus
from orbitcert.intmat import IntMatrix, invariant_factors
from orbitcert.oracles import conjugacy_bruteforce
from orbitcert.selftest import suite_eig
from orbitcert.supernatural import (
    INF,
    ONE,
    SupernaturalNumber,
    class_key,
    div_exact,
    divides,
    gcd,
    mul,
    parse_sn,
    parse_sn_list,
    product,
    sn_str,
)

M_EXAMPLE = parse_sn_list("5*2^inf, 3^inf")
N_EXAMPLE = parse_sn_list("2^inf, 5*3^inf")


def test_example_pair_is_coe():
    d = coe_decide(M_EXAMPLE, N_EXAMPLE)
    assert d.equivalent
    assert d.sigma == (0, 1)
    assert [(p.m, p.n) for p in d.pairs] == [(1, 5), (5, 1)]


def test_example_pair_is_not_conjugate():
    d = conj_decide(M_EXAMPLE, N_EXAMPLE)
    assert not d.conjugate
    assert "not isomorphic" in d.obstruction


def test_padded_family_same_verdicts():
    pad = (parse_sn("2^inf"),)
    m3 = M_EXAMPLE + pad
    n3 = N_EXAMPLE + pad
    assert coe_decide(m3, n3).equivalent
    assert not conj_decide(m3, n3).conjugate


def test_swap_pair_is_conjugate():
    ms = parse_sn_list("2*5^inf, 3*5^inf")
    ns = parse_sn_list("3*5^inf, 2*5^inf")
    d = conj_decide(ms, ns)
    assert d.conjugate
    (block,) = d.blocks
    assert block.left_multipliers == (2, 3)
    assert block.right_multipliers == (3, 2)
    assert sn_str(block.base) == "5^inf"


def test_klein_versus_cyclic_is_coe_but_not_conjugate():
    ms = parse_sn_list("2*5^inf, 2*5^inf")
    ns = parse_sn_list("4*5^inf, 5^inf")
    assert coe_decide(ms, ns).equivalent
    assert not conj_decide(ms, ns).conjugate  # Z/2 x Z/2 vs Z/4


def test_obstruction_order():
    a = parse_sn_list("2^inf")
    assert "rank" in coe_decide(a, parse_sn_list("2^inf, 3^inf")).obstruction
    assert "total" in coe_decide(
        parse_sn_list("2^inf, 3^inf"), parse_sn_list("2^inf, 5*3^inf")
    ).obstruction
    assert "class" in coe_decide(
        parse_sn_list("2^inf*3^inf, 5^inf"), parse_sn_list("2^inf*5^inf, 3^inf")
    ).obstruction


def test_coe_rejects_finite_factor():
    with pytest.raises(ValueError, match="finite"):
        coe_decide(parse_sn_list("12"), parse_sn_list("2^inf"))


def test_imbalanced_multipliers_still_coe():
    # the 3-exponent books only balance inside the 3^inf class
    ms = parse_sn_list("2^inf*3^inf, 3*2^inf")
    ns = parse_sn_list("2^inf*3^inf, 9*2^inf")
    d = coe_decide(ms, ns)
    assert d.equivalent
    prods = [(p.m, p.n) for p in d.pairs]
    assert prods == [(1, 1), (3, 1)]


def test_k_invariant_contents():
    k = k_invariant(M_EXAMPLE)
    assert k.rank == 2
    assert sn_str(k.total) == "2^inf*3^inf*5"
    keys = dict(k.subset_classes)
    assert keys[frozenset()] == 1
    assert keys[frozenset({2})] == 1
    assert keys[frozenset({3})] == 1
    assert keys[frozenset({2, 3})] == 1


def test_k_invariant_equality_tracks_coe_on_examples():
    assert k_invariant_equal(M_EXAMPLE, N_EXAMPLE)
    assert not k_invariant_equal(M_EXAMPLE, parse_sn_list("2^inf, 3^inf"))
    assert k_invariant_equal(
        parse_sn_list("2*5^inf, 2*5^inf"), parse_sn_list("4*5^inf, 5^inf")
    )


def test_conj_decide_matches_bruteforce_spot_checks():
    rng = random.Random(7)
    pool = ["2^inf", "3*2^inf", "2^inf*3^inf", "5^inf", "2*5^inf", "4*5^inf", "3*5^inf"]
    for _ in range(60):
        r = rng.randint(1, 3)
        ms = tuple(parse_sn(rng.choice(pool)) for _ in range(r))
        ns = tuple(parse_sn(rng.choice(pool)) for _ in range(r))
        assert bool(conj_decide(ms, ns)) == conjugacy_bruteforce(ms, ns), (ms, ns)


def test_conjugate_implies_coe():
    rng = random.Random(11)
    pool = ["2^inf", "3*2^inf", "9*2^inf", "5^inf", "2*5^inf", "6*2^inf*3^inf"]
    hits = 0
    for _ in range(200):
        r = rng.randint(1, 3)
        ms = tuple(parse_sn(rng.choice(pool)) for _ in range(r))
        ns = tuple(ms[i] for i in rng.sample(range(r), r))
        if conj_decide(ms, ns).conjugate:
            hits += 1
            assert coe_decide(ms, ns).equivalent
    assert hits > 50


def _multiplier_pairs(rng, count):
    """Seeded equal-length multiplier tuples over the primes up to 13 with
    exponents 0-3: half drawn independently, half the first tuple's prime
    powers regrouped prime by prime, which gives an isomorphic product."""
    primes = (2, 3, 5, 7, 11, 13)
    for t in range(count):
        r = rng.randint(1, 5)
        exps = [[rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(r)] for _ in primes]
        if t % 2:
            other = [[rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(r)] for _ in primes]
        else:
            other = [rng.sample(column, r) for column in exps]
        yield tuple(tuple(math.prod(p**column[i] for p, column in zip(primes, side))
                          for i in range(r)) for side in (exps, other))


def test_conj_refuses_by_prime_exponents_before_elimination(monkeypatch):
    # one class, 17^inf, times the multipliers: conj_decide refuses exactly
    # when the invariant factors differ, and none of its refusals needs the
    # elimination; isomorphic unequal tuples still reach it
    class Eliminated(Exception):
        pass

    def refuse(*args):
        raise Eliminated

    def side(qs):
        return tuple(mul(SupernaturalNumber.from_int(q), parse_sn("17^inf")) for q in qs)

    seen = {"refused": 0, "equal": 0, "regrouped": 0}
    for qs, rs in _multiplier_pairs(random.Random(29), 600):
        ms, ns = side(qs), side(rs)
        iso = invariant_factors(qs) == invariant_factors(rs)
        got = conj_decide(ms, ns)
        assert got.conjugate == iso, (qs, rs)
        if not iso:
            assert "are not isomorphic" in got.obstruction
        else:
            (block,) = got.blocks
            s, t = block.conjugator
            left, right = block.left_multipliers, block.right_multipliers
            assert s @ IntMatrix.diagonal(list(left)) @ t == IntMatrix.diagonal(list(right))
        with monkeypatch.context() as patch:
            patch.setattr(intmat, "_smith", refuse)
            if iso and qs != rs:
                seen["regrouped"] += 1
                with pytest.raises(Eliminated):
                    conj_decide(ms, ns)
            else:
                seen["equal" if iso else "refused"] += 1
                assert conj_decide(ms, ns) == got, (qs, rs)
    assert min(seen.values()) >= 50, seen


def test_eig_group_values():
    assert eig_group(parse_sn("3*2^inf"), 3) == parse_sn("2^inf")
    assert eig_group(parse_sn("2^inf"), 2) == parse_sn("2^inf")
    assert eig_group(parse_sn("5*2^inf"), 10) == parse_sn("2^inf")
    assert eig_group(parse_sn("5*2^inf"), 3) == parse_sn("5*2^inf")
    assert eig_group(parse_sn("2^inf"), 0) == ONE


def test_eig_group_matches_the_gcd_formula():
    # the closed form div_exact(m, gcd(|k|, m)), which factorizes |k| in full
    family = [
        SupernaturalNumber.from_map({p: e for p, e in zip((2, 3, 5), combo) if e})
        for combo in itertools.product((0, 1, 2, INF), repeat=3)
    ]
    for m in family:
        for k in [*range(-60, 0), *range(1, 61)]:
            expected = div_exact(m, gcd(SupernaturalNumber.from_int(abs(k)), m))
            assert eig_group(m, k) == expected, (sn_str(m), k)


def _walk(n, step, drop_first=False):
    """Cycle lengths of x -> x + step on Z/n, by walking every cycle point by
    point: the reference for eig_group_oracle.  drop_first leaves out the
    cycle through 0, for a mutant."""
    seen = [False] * n
    out = set()
    for start in range(n):
        if seen[start]:
            continue
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = (x + step) % n
            length += 1
        if start > 0 or not drop_first:
            out.add(length)
    return out


def test_eig_oracle_frozen_sets():
    # cycle lengths L; the eigenvalues are the union of (1/L)Z/Z
    m = parse_sn("2^inf")
    assert eig_group_oracle(m, [2], 2) == {2: {2}}
    assert eig_group_oracle(m, [2], 3) == {2: {4}}
    assert eig_group_oracle(m, [0], 3) == {0: {1}}
    assert eig_group_oracle(parse_sn("3^inf"), [2], 2) == {2: {9}}
    assert eig_group_oracle(m, [2, 0, -2], 3) == {2: {4}, 0: {1}, -2: {4}}


def test_eig_oracle_guard():
    with pytest.raises(ValueError, match="guard"):
        eig_group_oracle(parse_sn("2^inf*3^inf*5^inf"), [1], 5, guard=10**4)


def test_eig_oracle_matches_the_walk_on_every_truncation_the_suite_reads(monkeypatch):
    read = {}  # n -> (m, level, residues of k mod n)
    real = decide.eig_group_oracle

    def record(m, ks, level, guard=10**4, walks=None):
        ks = list(ks)
        n = level_modulus(Odometer(m), level)
        read.setdefault(n, (m, level, set()))[2].update(k % n for k in ks)
        return real(m, ks, level, guard, walks)

    monkeypatch.setattr(decide, "eig_group_oracle", record)
    assert suite_eig().ok
    assert len(read) == 106
    for n, (m, level, residues) in read.items():
        got = real(m, residues, level, 2500)
        assert got == {r: _walk(n, r) for r in residues}, (n, sorted(residues))


def test_eig_oracle_edge_powers():
    big = 10**30 + 7  # beyond int64
    # n = 1: one cycle of length 1 whatever k is
    assert eig_group_oracle(parse_sn("2^inf"), [0, 1, -5, big], 0) == {
        0: {1}, 1: {1}, -5: {1}, big: {1}}
    for text, level in [("2^inf", 3), ("2^inf*3^inf", 2), ("4*3^inf*5", 1)]:
        m = parse_sn(text)
        n = level_modulus(Odometer(m), level)
        ks = [0, n, -n, 2 * n + 3, -(3 * n) - 1, n - 1, big, -big]
        got = eig_group_oracle(m, ks, level)
        assert set(got) == set(ks)
        for k in ks:
            assert got[k] == _walk(n, k % n), (text, level, k)
        assert got[0] == got[n] == got[-n] == {1}


def test_eig_cross_check_family():
    for text in ["2^inf", "3^inf", "2^inf*3^inf", "5*2^inf", "3*5^inf"]:
        m = parse_sn(text)
        # 1000003 is a prime beyond the factorization domain; only the
        # primes of m bound the level offset
        ks = [-6, -1, 0, 1, 2, 3, 4, 12, 1000003, -2000006]
        got = eig_cross_check(m, ks, 3)
        assert set(got) == set(ks)
        for k, res in got.items():
            assert len(res) == 4 and all(res.values()), (text, k, res)


def test_truncation_of_predicted_group_needs_deeper_levels():
    # at matching levels the oracle can be a strict subgroup of the truncation
    m = parse_sn("2^inf")
    (oracle,) = eig_group_oracle(m, [2], 2)[2]
    predicted = level_modulus(Odometer(eig_group(m, 2)), 2)
    assert predicted % oracle == 0 and oracle < predicted
    (deeper,) = eig_group_oracle(m, [2], 3)[2]
    assert deeper % predicted == 0


def test_tgroup_lattice():
    assert divides(parse_sn("2*3"), parse_sn("2^inf*3"))
    assert not divides(parse_sn("4"), parse_sn("2*3"))
    assert divides(parse_sn("8"), parse_sn("2^inf"))
    assert not divides(parse_sn("3^inf"), parse_sn("5*2^inf"))


def _mutant(step, drop_first):
    def oracle(m, ks, level, guard=10**4, walks=None):
        n = level_modulus(Odometer(m), level)
        return {k: _walk(n, step(k), drop_first) for k in ks}

    return oracle


@pytest.mark.parametrize("mutant", [
    _mutant(lambda k: k, drop_first=True),
    _mutant(lambda k: k + 1, drop_first=False),
    # wrong on negative powers only: their verdicts are their own, never
    # taken from k's unless the oracle's lengths for -k agree
    _mutant(lambda k: k if k >= 0 else k - 1, drop_first=False),
], ids=["drops-first-cycle", "steps-by-k-plus-one", "negative-powers-step-once-more"])
def test_eig_suite_rejects_a_mutant_oracle(mutant, request, monkeypatch):
    monkeypatch.setattr(decide, "eig_group_oracle", mutant)
    res = suite_eig()
    assert res.checked == 1600
    assert res.failures
    if "negative" in request.node.callspec.id:
        # the oracle is right on k >= 0, so no such power fails
        assert all(int(re.search(r" k=(-?\d+) ", f)[1]) < 0 for f in res.failures)


def test_counterexample_family_certified():
    rep = free_group_counterexample_check(2, 3, 5)
    assert rep.passed
    assert len(rep.certified) == 4
    assert all(ok for _, ok in rep.certified)
    assert rep.cited and "orbit equivalent" in rep.cited[0]


def test_counterexample_preconditions():
    with pytest.raises(ValueError, match="prime"):
        free_group_counterexample_check(2, 2, 5)
    with pytest.raises(ValueError, match="prime"):
        free_group_counterexample_check(4, 3, 5)
    with pytest.raises(ValueError, match="coprime"):
        free_group_counterexample_check(2, 3, 6)
    with pytest.raises(ValueError, match="exceed"):
        free_group_counterexample_check(2, 3, 1)
    with pytest.raises(ValueError, match="n\\*p = 10006 exceeds 10000"):
        free_group_counterexample_check(2, 3, 5003)


def test_coe_and_k_invariant_agree_randomly():
    rng = random.Random(23)
    pool = [
        "2^inf", "3*2^inf", "9*2^inf", "3^inf", "5*3^inf", "2^inf*3^inf",
        "5^inf", "2*5^inf", "7*2^inf",
    ]
    for _ in range(150):
        r = rng.randint(1, 3)
        s = rng.randint(1, 3)
        ms = tuple(parse_sn(rng.choice(pool)) for _ in range(r))
        ns = tuple(parse_sn(rng.choice(pool)) for _ in range(s))
        assert bool(coe_decide(ms, ns)) == k_invariant_equal(ms, ns), (ms, ns)


def _subset_classes_by_enumeration(ms) -> tuple:
    """The subset-class multiset walked over all 2^r subsets, the oracle of
    k_invariant's one-factor-at-a-time fold."""
    keys: dict = {}
    for size in range(len(ms) + 1):
        for comb in itertools.combinations(ms, size):
            key = class_key(product(comb) if comb else ONE)
            keys[key] = keys.get(key, 0) + 1
    return tuple(sorted(keys.items(), key=lambda kv: sorted(kv[0])))


def test_k_invariant_fold_matches_subset_enumeration():
    from orbitcert.selftest import generate_instances, random_side

    sides = [side for pair in generate_instances(17, 200) for side in pair]
    rng = random.Random(31)
    sides += [random_side(rng, max_rank=12, primes=(2, 3, 5, 7)) for _ in range(40)]
    assert max(len(s) for s in sides) >= 10
    for ms in sides:
        inv = k_invariant(ms)
        assert inv.subset_classes == _subset_classes_by_enumeration(ms), ms
        assert inv.total == product(ms)
