"""Decision procedures: orbit equivalence and conjugacy of odometer products,
the ordered K-theoretic invariant, and rational eigenvalue groups."""
from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from .dynamics import Odometer, level_modulus
from .intmat import IntMatrix, solve_conjugator
from .supernatural import (
    INF,
    ONE,
    SupernaturalNumber,
    _canonical,
    _is_prime,
    class_key,
    divides,
    factorize,
    is_supernatural,
    mul,
    product,
    sim_witness,
    sn_str,
)


def _require_supernatural(ms: tuple[SupernaturalNumber, ...], side: str) -> None:
    if not ms:
        raise ValueError(f"{side}: at least one factor is required")
    if len(ms) > RANK_LIMIT:
        raise ValueError(f"{side}: {len(ms)} factors exceed {RANK_LIMIT}")
    for m in ms:
        if not is_supernatural(m):
            raise ValueError(f"{side}: {sn_str(m)} is finite; factors must be supernatural")


# ---------------------------------------------------------------------------
# continuous orbit equivalence


@dataclass(frozen=True)
class CoePair:
    """One matched factor pair: m * left = n * right exactly."""

    left_index: int
    right_index: int
    m: int
    n: int


@dataclass(frozen=True)
class CoeDecision:
    equivalent: bool
    sigma: tuple[int, ...] | None  # right_index = sigma[left_index]
    pairs: tuple[CoePair, ...] | None
    obstruction: str | None

    def __bool__(self) -> bool:
        return self.equivalent


def _by_class(side: tuple[SupernaturalNumber, ...]) -> dict[frozenset, list[int]]:
    """Factor indices of one side grouped by class key, each group in order."""
    out: dict[frozenset, list[int]] = {}
    for i, m in enumerate(side):
        out.setdefault(class_key(m), []).append(i)
    return out


def coe_decide(
    ms: tuple[SupernaturalNumber, ...], ns: tuple[SupernaturalNumber, ...]
) -> CoeDecision:
    """Decide continuous orbit equivalence of two odometer products.

    The criterion: equal length, a bijection matching factors with equal
    infinite-exponent prime sets, and multipliers (m_i, n_i) with
    m_i * M_i = n_i * N_sigma(i) whose two total products agree exactly.
    """
    _require_supernatural(ms, "left")
    _require_supernatural(ns, "right")
    if len(ms) != len(ns):
        return CoeDecision(False, None, None, f"rank mismatch: {len(ms)} vs {len(ns)}")

    total_m = product(ms)
    total_n = product(ns)
    if total_m != total_n:
        return CoeDecision(
            False,
            None,
            None,
            f"total products differ: {sn_str(total_m)} vs {sn_str(total_n)}",
        )

    left_by_key, right_by_key = _by_class(ms), _by_class(ns)
    if set(left_by_key) != set(right_by_key) or any(
        len(left_by_key[k]) != len(right_by_key[k]) for k in left_by_key
    ):
        def show(d):
            return sorted((sorted(k), len(v)) for k, v in d.items())

        return CoeDecision(
            False,
            None,
            None,
            f"asymptotic class multisets differ: {show(left_by_key)} vs {show(right_by_key)}",
        )

    # in-order matching inside each class; any choice works once the totals
    # agree, this one is canonical
    sigma = [0] * len(ms)
    pairs = []
    for key, lefts in left_by_key.items():
        for i, j in zip(lefts, right_by_key[key]):
            sigma[i] = j
            mi, ni = sim_witness(ms[i], ns[j])
            assert mul(SupernaturalNumber.from_int(mi), ms[i]) == mul(
                SupernaturalNumber.from_int(ni), ns[j]
            )
            pairs.append(CoePair(i, j, mi, ni))
    pairs.sort(key=lambda p: p.left_index)
    return CoeDecision(True, tuple(sigma), tuple(pairs), None)


@dataclass(frozen=True)
class KInvariant:
    """Rank, the distinguished total, and every sub-product with its class."""

    rank: int
    total: SupernaturalNumber
    subset_classes: tuple[tuple[frozenset, int], ...]  # (key, multiplicity)


def k_invariant(ms: tuple[SupernaturalNumber, ...]) -> KInvariant:
    """The class key of a sub-product is the union of its factors' keys, so
    the multiset over all 2^r subsets is folded in one factor at a time:
    each subset so far either leaves the new factor out or takes it in."""
    _require_supernatural(ms, "input")
    factor_keys = [class_key(m) for m in ms]
    primes = frozenset().union(*factor_keys)
    if len(primes) > KINV_PRIME_LIMIT:
        raise ValueError(f"{len(primes)} distinct infinite primes exceed {KINV_PRIME_LIMIT}, "
                         "the supported bound for the invariant listing")
    keys: dict[frozenset, int] = {frozenset(): 1}
    for km in factor_keys:
        grown = dict(keys)
        for key, count in keys.items():
            grown[key | km] = grown.get(key | km, 0) + count
        keys = grown
    return KInvariant(
        len(ms),
        product(ms),
        tuple(sorted(keys.items(), key=lambda kv: sorted(kv[0]))),
    )


def k_invariant_equal(
    ms: tuple[SupernaturalNumber, ...], ns: tuple[SupernaturalNumber, ...]
) -> bool:
    a, b = k_invariant(ms), k_invariant(ns)
    return a.rank == b.rank and a.total == b.total and a.subset_classes == b.subset_classes


# ---------------------------------------------------------------------------
# conjugacy


@dataclass(frozen=True)
class ConjBlock:
    left_indices: tuple[int, ...]
    right_indices: tuple[int, ...]
    base: SupernaturalNumber  # the common supernatural part L
    left_multipliers: tuple[int, ...]  # M_i = m_i * L
    right_multipliers: tuple[int, ...]
    conjugator: tuple[IntMatrix, IntMatrix]  # S diag(m) T = diag(n)


@dataclass(frozen=True)
class ConjDecision:
    conjugate: bool
    blocks: tuple[ConjBlock, ...] | None
    obstruction: str | None

    def __bool__(self) -> bool:
        return self.conjugate


def _block_base(members: tuple[SupernaturalNumber, ...], key: frozenset) -> SupernaturalNumber:
    """Largest common shape: infinity on the class key, the shared finite
    exponent where every member agrees, 1 elsewhere."""
    primes = set()
    for m in members:
        primes.update(p for p, _ in m.factors)
    exps = {}
    for p in sorted(primes):
        if p in key:
            exps[p] = INF
        else:
            vals = {m.v(p) for m in members}
            if len(vals) == 1 and vals != {0}:
                exps[p] = vals.pop()
    return _canonical(exps)


def _finite_multiplier(
    m: SupernaturalNumber, base: dict[int, int | float]
) -> tuple[int, list[tuple[int, int]]]:
    """The integer q with m = q * base, given by the base's exponents, and
    q's prime powers (p, d), d >= 1; exponents at infinite primes of the
    base are absorbed by the base."""
    q, powers = 1, []
    for p, e in m.factors:
        if e is INF:
            continue
        d = e - base.get(p, 0)
        assert d >= 0
        if d:
            q *= p**d
            powers.append((p, d))
    return q, powers


def conj_decide(
    ms: tuple[SupernaturalNumber, ...], ns: tuple[SupernaturalNumber, ...]
) -> ConjDecision:
    """Decide conjugacy: one block per asymptotic class; the finite
    multiplier tuples over the block base must generate isomorphic finite
    abelian groups.  Any valid block partition exists iff this canonical
    one works.

    Z/q_1 x ... x Z/q_r is the sum over p and i of Z/p^(v_p(q_i)), so two
    such products are isomorphic iff, prime by prime, the multisets of
    their multipliers' exponents agree.  A block is refused by that
    comparison, read off the factors, before any elimination; only
    isomorphic tuples reach solve_conjugator."""
    _require_supernatural(ms, "left")
    _require_supernatural(ns, "right")
    if len(ms) != len(ns):
        return ConjDecision(False, None, f"rank mismatch: {len(ms)} vs {len(ns)}")

    left_by_key, right_by_key = _by_class(ms), _by_class(ns)
    if set(left_by_key) != set(right_by_key):
        return ConjDecision(False, None, "asymptotic classes differ")

    blocks = []
    for key in sorted(left_by_key, key=sorted):
        li = tuple(left_by_key[key])
        ri = tuple(right_by_key[key])
        if len(li) != len(ri):
            return ConjDecision(
                False, None, f"class {sorted(key)} has {len(li)} vs {len(ri)} factors"
            )
        members = tuple(ms[i] for i in li) + tuple(ns[j] for j in ri)
        base = _block_base(members, key)
        exps = dict(base.factors)
        left = [_finite_multiplier(ms[i], exps) for i in li]
        right = [_finite_multiplier(ns[j], exps) for j in ri]
        mm = tuple(q for q, _ in left)
        nn = tuple(q for q, _ in right)
        if mm != nn and sorted(pd for _, powers in left for pd in powers) != sorted(
            pd for _, powers in right for pd in powers
        ):
            return ConjDecision(
                False,
                None,
                f"class {sorted(key)}: multiplier groups Z/{mm} and Z/{nn} are not isomorphic",
            )
        blocks.append(ConjBlock(li, ri, base, mm, nn, solve_conjugator(mm, nn)))
    return ConjDecision(True, tuple(blocks), None)


# ---------------------------------------------------------------------------
# eigenvalue groups.  A subgroup of Q/Z is named by its order: T(A) by the
# supernatural A, and the finite cyclic group (1/d)Z/Z by the integer d, so
# containment is divisibility.


def eig_group(m: SupernaturalNumber, k: int) -> SupernaturalNumber:
    """Modulus A of the rational eigenvalue group T(A) of the k-th power of an
    odometer with supernatural limit m: A = m / gcd(|k|, m) for k != 0 and
    A = 1 for k = 0.  Only the primes of m are divided out of |k|, so k may
    have prime factors of any size."""
    if k == 0:
        return ONE
    out = {}
    for p, e in m.factors:
        out[p] = e if e is INF else max(e - _valuation(k, p), 0)
    return _canonical(out)


def _valuation(k: int, p: int) -> int:
    """Exponent of the prime p in the nonzero integer k, by repeated division."""
    r, v = abs(k), 0
    while r % p == 0:
        r //= p
        v += 1
    return v


def eig_group_oracle(
    m: SupernaturalNumber, ks: Iterable[int], level: int, guard: int = 10**4,
    walks: dict[tuple[int, int], set[int]] | None = None,
) -> dict[int, set[int]]:
    """Cycle lengths of translation by each k of ks on the level truncation
    Z/n, n = lm(m, level).  A cycle of length L carries the eigenvalues
    (1/L)Z/Z, so the eigenvalue set of the truncation is the union of
    (1/L)Z/Z over the lengths returned for k.

    One permutation row x -> x + k mod n is stacked per distinct pair
    {k, -k} of residues mod n, and every point is labelled with the least
    point of its cycle by pointer doubling: after t rounds a label is the
    least of 2^t successive points, and no cycle is longer than n.  A
    label's count is its cycle's length.  x -> x - k is the inverse
    permutation of x -> x + k, and a permutation and its inverse have the
    same cycles, so one row serves both.  Independent of eig_group: nothing
    but finite permutations is used.

    `walks`, when given, holds the cycle lengths of rows already walked,
    keyed by (n, row): they depend on nothing else, so a row found there
    is not walked again, and every row walked is added.
    """
    n = level_modulus(Odometer(m), level)
    if n > guard:
        raise ValueError(f"level-{level} modulus {n} exceeds the enumeration guard {guard}")
    # Python ints, so k may be any size; the row of k is the lesser of k, -k mod n
    row_of = {k: min(k % n, -k % n) for k in ks}
    walks = {} if walks is None else walks
    rows = sorted({r for r in row_of.values() if (n, r) not in walks})
    if rows:
        _walk_rows(n, rows, walks)
    return {k: walks[n, r] for k, r in row_of.items()}


def _walk_rows(n: int, rows: list[int], walks: dict[tuple[int, int], set[int]]) -> None:
    """Cycle lengths of x -> x + r mod n for each r of rows, into walks."""
    import numpy as np  # the only numpy of the decisions, kept out of their import

    step = np.arange(n, dtype=np.int64) + np.array(rows, dtype=np.int64)[:, None]
    step[step >= n] -= n
    # flat indices: point x of row i is i*n + x, so a row's least index is
    # its least point
    step += n * np.arange(len(rows), dtype=np.int64)[:, None]
    step = step.reshape(-1)
    label = np.arange(len(rows) * n, dtype=np.int64)
    for _ in range((n - 1).bit_length()):
        np.minimum(label, label[step], out=label)
        step = step[step]
    counts = np.bincount(label, minlength=len(rows) * n)
    least = np.flatnonzero(counts)
    lengths: dict[int, set[int]] = {r: set() for r in rows}
    # one code per distinct (row, cycle length) pair; a set, since np.unique
    # would import numpy.ma
    for code in set((least // n * (n + 1) + counts[least]).tolist()):
        lengths[rows[code // (n + 1)]].add(code % (n + 1))
    walks.update(((n, r), got) for r, got in lengths.items())


def eig_cross_check(
    m: SupernaturalNumber, ks: Iterable[int], level: int, guard: int = 10**4,
    walks: dict[tuple[int, int], set[int]] | None = None,
) -> dict[int, dict[str, bool]]:
    """Four independent confrontations, for each power k of ks, of
    eig_group's modulus A with the cycle lengths of the permutation oracle
    on finite truncations.

    - cyclic: the oracle group is (1/N)Z/Z with N = lm(m)/gcd(|k|, lm(m)):
      N is a cycle length and every length divides N
    - contained: every length divides A, so the oracle group lies in T(A)
    - monotone: every length at one level divides a length one level up
    - exhausts: raising the level by vmax, the largest exponent in |k| of
      a prime of m, makes the oracle cover the current truncation of T(A):
      lm(A, j) divides a length at level j + vmax

    A power k reads the levels up to level + vmax, those beyond `level`
    only while the guard admits them; each level is walked once, for every
    power that reads it.  `walks` is handed to the oracle, so callers that
    check several limits can share the permutation walks they have in common.
    """
    vmax = {k: max((_valuation(k, p) for p, _ in m.factors), default=0) if k else 0
            for k in ks}
    lengths: dict[int, dict[int, set[int]]] = {k: {} for k in vmax}
    for lvl in range(level + max(vmax.values(), default=0) + 1):
        if lvl > level and level_modulus(Odometer(m), lvl) > guard:
            break
        reading = [k for k, v in vmax.items() if lvl <= level + v]
        for k, got in eig_group_oracle(m, reading, lvl, guard, walks).items():
            lengths[k][lvl] = got
    n = level_modulus(Odometer(m), level)
    groups = {k: eig_group(m, k) for k in vmax}
    # many powers share a group, so each group's truncations are built once
    truncations = {a: [level_modulus(Odometer(a), j) for j in range(level + 1)]
                   for a in set(groups.values())}
    return {k: _confront(k, a, truncations[a], n, vmax[k], lengths[k])
            for k, a in groups.items()}


def _confront(
    k: int, a: SupernaturalNumber, truncations: list[int], n: int, vmax: int,
    lengths: dict[int, set[int]],
) -> dict[str, bool]:
    """eig_cross_check's four verdicts for one power k with eigenvalue group
    T(a), whose level-j truncation modulus is truncations[j], from the
    oracle's cycle lengths of translation by k at each level it read."""
    level = len(truncations) - 1
    got = lengths[level]
    cyc = n // math.gcd(abs(k), n)
    return {
        "cyclic": cyc in got and all(cyc % d == 0 for d in got),
        "contained": all(e <= a.v(p) for d in got for p, e in factorize(d).items()),
        "monotone": all(
            any(up % d == 0 for up in lengths[lo + 1])
            for lo in range(level)
            for d in lengths[lo]
        ),
        "exhausts": all(
            any(d % truncations[j] == 0 for d in lengths[j + vmax])
            for j in range(level + 1)
            if j + vmax in lengths
        ),
    }


# ---------------------------------------------------------------------------
# the rigidity gap for products with a free group


@dataclass(frozen=True)
class CounterexampleReport:
    p: int
    q: int
    n: int
    certified: tuple[tuple[str, bool], ...]  # (statement, holds)
    cited: tuple[str, ...]  # used but not machine-checked here

    @property
    def passed(self) -> bool:
        return all(h for _, h in self.certified)


# the separation checks eig_group at every power up to n*p, so that product
# is bounded before anything is computed
COUNTEREXAMPLE_POWERS = 10**4

# the invariant lists one class per set of infinite primes a sub-product can
# carry, up to 2^(distinct infinite primes) of them, so their number is
# bounded before the fold
KINV_PRIME_LIMIT = 16

# conj_decide's Smith elimination is cubic in a block's size, so a side's
# number of factors is bounded before anything is decided
RANK_LIMIT = 64


def free_group_counterexample_check(p: int, q: int, n: int) -> CounterexampleReport:
    """Certify the eigenvalue-group separations behind the family of
    non-conjugate but orbit-equivalent product actions built from a rank-2
    free group factor: the n p^inf odometer against the q^inf one.

    Preconditions: p, q distinct primes, n > 1 coprime to both, and
    n*p <= COUNTEREXAMPLE_POWERS, the number of powers the last separation
    walks.
    """
    if not (_is_prime(p) and _is_prime(q)) or p == q:
        raise ValueError("p and q must be distinct primes")
    if n <= 1:
        raise ValueError("n must exceed 1")
    if math.gcd(n, p * q) != 1:
        raise ValueError("n must be coprime to p and q")
    if n * p > COUNTEREXAMPLE_POWERS:
        raise ValueError(f"n*p = {n * p} exceeds {COUNTEREXAMPLE_POWERS}, "
                         "the supported bound on the powers checked")

    npinf = mul(SupernaturalNumber.from_int(n), SupernaturalNumber.from_map({p: INF}))
    pinf = SupernaturalNumber.from_map({p: INF})
    qinf = SupernaturalNumber.from_map({q: INF})

    certified = [
        (
            f"T({sn_str(npinf)}) != T(1): the twisted side has nontrivial eigenvalues",
            npinf != ONE,
        ),
        (
            f"T({sn_str(npinf)}) != T({sn_str(pinf)}): the factor n is visible",
            npinf != pinf,
        ),
        (
            f"T({sn_str(qinf)}) is not contained in T({sn_str(npinf)})",
            not divides(qinf, npinf),
        ),
    ]
    powers_ok = eig_group(pinf, 0) == ONE and all(
        eig_group(pinf, k) == pinf for k in range(1, n * p + 1)
    )
    certified.append(
        (
            f"every power of the {p}^inf odometer has eigenvalue group T(1) or T({p}^inf)",
            powers_ok,
        )
    )
    cited = (
        "the two product actions are continuously orbit equivalent "
        "(free-group cocycle construction; not machine-checked here)",
    )
    return CounterexampleReport(p, q, n, tuple(certified), cited)
