"""Independent brute-force oracles used to cross-check the fast paths.

Everything here is deliberately written against definitions (minors, element
orders, exhaustive partition search) rather than reusing the algorithms under
test, and is only suitable for desk-scale inputs.
"""
from __future__ import annotations

from itertools import combinations, product
from math import gcd as igcd

from .intmat import FiniteAbelianGroup, IntMatrix, matrix_gcd_of_minors
from .supernatural import (
    INF,
    SupernaturalNumber,
    class_key,
    is_supernatural,
)


def snf_diagonal_by_minors(a: IntMatrix) -> tuple[int, ...]:
    """Expected Smith diagonal: d_1*...*d_k equals the gcd of all k x k minors."""
    out = []
    prev = 1
    for k in range(1, min(a.rows, a.cols) + 1):
        g = matrix_gcd_of_minors(a, k)
        if g == 0:
            out.extend([0] * (min(a.rows, a.cols) - len(out)))
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def element_orders(group: FiniteAbelianGroup, limit: int = 10**5) -> dict[int, int]:
    """Multiset (as counts) of element orders of prod Z/d, by enumeration."""
    if group.cardinality > limit:
        raise ValueError("group too large for enumeration")
    counts: dict[int, int] = {}
    for elem in product(*(range(d) for d in group.orders)):
        o = 1
        for x, d in zip(elem, group.orders):
            if x:
                o = o * (d // igcd(x, d)) // igcd(o, d // igcd(x, d))
        counts[o] = counts.get(o, 0) + 1
    return counts


def fab_isomorphic_bruteforce(a: FiniteAbelianGroup, b: FiniteAbelianGroup,
                              profiles: dict | None = None) -> bool:
    """Finite abelian groups are isomorphic iff their element-order profiles
    match.  `profiles`, when given, keeps each profile by the group's orders
    for the calls that share it."""
    if a.cardinality != b.cardinality:
        return False
    profiles = {} if profiles is None else profiles
    for g in (a, b):
        if g.orders not in profiles:
            profiles[g.orders] = element_orders(g)
    return profiles[a.orders] == profiles[b.orders]


def _common_divisor_candidates(
    members: list[dict[int, int | float]], key: frozenset[int]
) -> list[dict[int, int | float]]:
    """All L with the given infinite support such that every member is a
    finite multiple of L with multiplier coprime to L; members and
    candidates are exponent maps."""
    finite_primes = sorted({p for m in members for p, v in m.items() if v is not INF} - key)
    per_prime: list[list[int]] = []
    for p in finite_primes:
        vals = {m.get(p, 0) for m in members}
        choices = [0]
        if len(vals) == 1:
            (v,) = vals
            if v > 0:
                choices.append(v)
        per_prime.append(choices)
    base = dict.fromkeys(key, INF)
    return [{**base, **{p: v for p, v in zip(finite_primes, combo) if v}}
            for combo in product(*per_prime)]


def _finite_part_over(m: dict[int, int | float], l: dict[int, int | float]) -> int | None:
    """The natural q with m = q * l and gcd(q, l) = 1, or None; m and l are
    exponent maps."""
    q = 1
    for p in m.keys() | l.keys():
        vm, vl = m.get(p, 0), l.get(p, 0)
        if vl is INF:
            if vm is not INF:
                return None
            continue
        if vm is INF:
            return None  # infinite prime missing from l
        e = vm - vl
        if e < 0 or (vl > 0 and e > 0):
            return None
        q *= p**e
    return q


def _match_blocks(
    left: list[dict[int, int | float]], right: list[dict[int, int | float]],
    key: frozenset[int], profiles: dict,
) -> bool:
    """Exhaustive search for a partition of one equivalence class, given by
    its members' exponent maps, into matched blocks, each sharing a common
    divisor L with isomorphic finite parts."""
    if not left and not right:
        return True
    if not left or not right:
        return False
    first, rest = left[0], left[1:]
    for size in range(0, len(rest) + 1):
        for others in combinations(range(len(rest)), size):
            block_l = [first] + [rest[i] for i in others]
            remaining_l = [rest[i] for i in range(len(rest)) if i not in others]
            for rsel in combinations(range(len(right)), len(block_l)):
                block_r = [right[i] for i in rsel]
                remaining_r = [right[i] for i in range(len(right)) if i not in rsel]
                for l in _common_divisor_candidates(block_l + block_r, key):
                    ms = [_finite_part_over(m, l) for m in block_l]
                    ns = [_finite_part_over(n, l) for n in block_r]
                    if None in ms or None in ns:
                        continue
                    if not fab_isomorphic_bruteforce(
                        FiniteAbelianGroup(tuple(ms)), FiniteAbelianGroup(tuple(ns)), profiles
                    ):
                        continue
                    if _match_blocks(remaining_l, remaining_r, key, profiles):
                        return True
    return False


def conjugacy_bruteforce(
    ms: tuple[SupernaturalNumber, ...], ns: tuple[SupernaturalNumber, ...],
    verdicts: dict | None = None, profiles: dict | None = None,
) -> bool:
    """Search over all block partitions and per-prime common-divisor choices.

    `verdicts` and `profiles`, when given, are dicts the calls of one run
    share.  The search of one class depends on nothing but its key and the
    class's members on each side, in order, so `verdicts` keeps each
    class's verdict under the key and the members' factors, and `profiles`
    each group's element-order profile by its orders."""
    if not all([is_supernatural(x) for x in ms + ns]):
        raise ValueError("inputs must be supernatural")
    verdicts = {} if verdicts is None else verdicts
    profiles = {} if profiles is None else profiles
    for key in {class_key(x) for x in ms + ns}:
        left = [x.factors for x in ms if class_key(x) == key]
        right = [x.factors for x in ns if class_key(x) == key]
        seen = (key, tuple(left), tuple(right))
        found = verdicts.get(seen)
        if found is None:
            found = verdicts[seen] = _match_blocks(
                [dict(m) for m in left], [dict(n) for n in right], key, profiles)
        if not found:
            return False
    return True
