"""Seeded randomized cross-check suites.

Everything here is shared by the `selftest` command and the acceptance
tests: a deterministic instance generator for odometer products, whose
corpus is the first draws of a seeded stream, and one suite function per
checked property.  Each suite returns a SuiteResult whose failures list
is empty exactly when the suite passes; every failure line names the
offending instance and ends with `replay: <command>`, the orbitcert
command that replays it.
"""
from __future__ import annotations

import functools
import itertools
import math
import os
import random
from dataclasses import dataclass, field

from .chain import verify_chain
from .cocycle import (
    CoeWitness,
    GroupValuedMap,
    slide,
    twist,
    untwist_to_conjugacy,
    verify_coe,
)
from .decide import (
    EigFacts,
    coe_decide,
    conj_decide,
    eig_cross_check,
    free_group_counterexample_check,
    k_invariant_equal,
)
from .dynamics import Odometer, level_modulus, point_count
from .intmat import IntMatrix, _smith  # the elimination, without the wrapping
from .linear import cylinder_index, cylinders, image
from .oracles import conjugacy_bruteforce, snf_diagonal_by_minors
from .supernatural import (
    INF,
    SupernaturalNumber,
    class_key,
    factorize,
    sn_str,
)
from .witness import build_coe_witness, build_conj_witness

DOMAIN_PRIMES = (2, 3, 5, 7, 11, 13)
SMALL_PRIMES = (2, 3, 5)


@dataclass
class SuiteResult:
    name: str
    checked: int
    failures: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        # a suite with nothing to check passes, and says it was vacuous
        tag = "FAIL" if not self.ok else "vacuous" if not self.checked else "pass"
        head = f"{self.name}: {tag} ({self.checked} checks, {self.elapsed:.2f}s)"
        if self.failures:
            shown = "; ".join(str(f) for f in self.failures[:3])
            head += f" first failures: {shown}"
        return head


def _fmt_pair(ms, ns) -> str:
    return f"({', '.join(map(sn_str, ms))}) vs ({', '.join(map(sn_str, ns))})"


def _replay_command(relation: str, ms, ns, level: int | None = None) -> str:
    """The CLI command that decides (ms, ns) again, or with a level the
    commands that rebuild the witness for (ms, ns) and verify it."""
    pair = " ".join(f'"{",".join(map(sn_str, side))}"' for side in (ms, ns))
    if level is None:
        return f"orbitcert {relation} {pair}"
    return (f"orbitcert witness {relation} {pair} --level {level} --out w.json"
            " && orbitcert verify w.json")


def _replay_selftest(seed: int) -> str:
    """The CLI command that runs the seeded suites again."""
    return f"orbitcert selftest --seed {seed}"


# ---------------------------------------------------------------------------
# instance generation


def random_factor(
    rng: random.Random,
    primes: tuple[int, ...] = DOMAIN_PRIMES,
    max_exp: int = 3,
) -> SupernaturalNumber:
    """One odometer limit: exponents in {0..max_exp, inf} per prime, at
    least one infinite prime."""
    while True:
        exps: dict[int, int | float] = {}
        for p in primes:
            roll = rng.random()
            if roll < 0.45:
                continue
            if roll < 0.70:
                exps[p] = INF
            else:
                exps[p] = rng.randint(1, max_exp)
        if any(e is INF for e in exps.values()):
            return SupernaturalNumber.from_map(exps)


def random_side(
    rng: random.Random,
    max_rank: int = 3,
    primes: tuple[int, ...] = DOMAIN_PRIMES,
    max_exp: int = 3,
) -> tuple[SupernaturalNumber, ...]:
    return tuple(
        random_factor(rng, primes, max_exp) for _ in range(rng.randint(1, max_rank))
    )


def _side_maps(side: tuple[SupernaturalNumber, ...]) -> list[dict[int, int | float]]:
    return [dict(f.factors) for f in side]


def _from_maps(maps: list[dict[int, int | float]]) -> tuple[SupernaturalNumber, ...]:
    return tuple(SupernaturalNumber.from_map(m) for m in maps)


def coe_positive_pair(
    rng: random.Random, max_rank: int = 3
) -> tuple[tuple[SupernaturalNumber, ...], tuple[SupernaturalNumber, ...]]:
    """A pair that is orbit equivalent by construction: start from identical
    sides, then apply moves that preserve the total product and the class-key
    multiset (shuffling factors, transferring finite exponents between
    factors at a prime finite in both, and rewriting finite exponents freely
    at primes that are infinite somewhere on the side)."""
    r = rng.randint(1, max_rank)
    primes = SMALL_PRIMES if rng.random() < 0.4 else (2, 3)
    ms = tuple(random_factor(rng, primes, max_exp=2) for _ in range(r))
    maps = _side_maps(ms)
    union_keys = set().union(*(class_key(f) for f in ms))
    for _ in range(rng.randint(1, 5)):
        move = rng.random()
        if move < 0.45 and union_keys:
            # finite exponents at an absorbed prime do not change anything
            i = rng.randrange(r)
            p = rng.choice(sorted(union_keys))
            if maps[i].get(p) is not INF:
                e = rng.randint(0, 2)
                if e:
                    maps[i][p] = e
                else:
                    maps[i].pop(p, None)
        elif move < 0.8 and r >= 2:
            # transfer finite exponent mass between two factors
            i, j = rng.sample(range(r), 2)
            movable = [
                p
                for p in primes
                if maps[i].get(p, 0) is not INF
                and maps[j].get(p, 0) is not INF
                and maps[i].get(p, 0) > 0
            ]
            if movable:
                p = rng.choice(movable)
                take = rng.randint(1, int(maps[i][p]))
                maps[i][p] = int(maps[i][p]) - take
                if not maps[i][p]:
                    del maps[i][p]
                maps[j][p] = int(maps[j].get(p, 0)) + take
        else:
            rng.shuffle(maps)
    return ms, _from_maps(maps)


def conj_positive_pair(
    rng: random.Random, max_rank: int = 3
) -> tuple[tuple[SupernaturalNumber, ...], tuple[SupernaturalNumber, ...]]:
    """A conjugate pair by construction: per asymptotic class a common base
    and finite multipliers; the right side permutes the multipliers or
    replaces a multiplier by a coprime splitting with the same group."""
    r = rng.randint(1, max_rank)
    keys: list[frozenset] = []
    pool = [frozenset(s) for s in ((2,), (3,), (5,), (2, 3), (2, 5))]
    rng.shuffle(pool)
    sizes: list[int] = []
    left = r
    while left:
        t = rng.randint(1, left)
        sizes.append(t)
        left -= t
    ms: list[SupernaturalNumber] = []
    ns: list[SupernaturalNumber] = []
    for t in sizes:
        key = pool.pop()
        allowed = [q for q in (1, 2, 3, 4, 5, 6, 9) if all(q % p for p in key)]
        qs = [rng.choice(allowed) for _ in range(t)]
        qs2 = qs[:]
        rng.shuffle(qs2)
        if t >= 2 and rng.random() < 0.4:
            i, j = rng.sample(range(t), 2)
            a, b = qs2[i], qs2[j]
            if math.gcd(a, b) == 1 and all((a * b) % p for p in key):
                qs2[i], qs2[j] = a * b, 1
        base = {p: INF for p in key}
        for q, side in ((qs, ms), (qs2, ns)):
            for v in q:
                side.append(SupernaturalNumber.from_map({**base, **factorize(v)}))
    order = list(range(r))
    rng.shuffle(order)
    ms = [ms[i] for i in order]
    rng.shuffle(order)
    ns = [ns[i] for i in order]
    return tuple(ms), tuple(ns)


def near_miss_pair(
    rng: random.Random, max_rank: int = 3
) -> tuple[tuple[SupernaturalNumber, ...], tuple[SupernaturalNumber, ...]]:
    """Perturb one exponent of a constructed positive; usually breaks either
    the total product or a class key."""
    ms, ns = coe_positive_pair(rng, max_rank)
    maps = _side_maps(ns)
    i = rng.randrange(len(maps))
    p = rng.choice(DOMAIN_PRIMES)
    cur = maps[i].get(p, 0)
    choices = [0, 1, 2, INF]
    new = rng.choice([c for c in choices if c != cur])
    if new:
        maps[i][p] = new
    else:
        maps[i].pop(p, None)
    if not any(e is INF for e in maps[i].values()):
        maps[i][p] = INF
    return ms, _from_maps(maps)


def instance_stream(seed: int):
    """The seeded stream of instances, without end: constructed positives,
    near misses, and unconstrained draws over primes up to 13."""
    rng = random.Random(seed)
    while True:
        roll = rng.random()
        if roll < 0.30:
            yield coe_positive_pair(rng)
        elif roll < 0.42:
            yield conj_positive_pair(rng)
        elif roll < 0.58:
            yield near_miss_pair(rng)
        else:
            yield random_side(rng), random_side(rng)


def generate_instances(
    seed: int, count: int = 200
) -> list[tuple[tuple[SupernaturalNumber, ...], tuple[SupernaturalNumber, ...]]]:
    """The mixed corpus: the first `count` instances of instance_stream(seed)."""
    return list(itertools.islice(instance_stream(seed), count))


# ---------------------------------------------------------------------------
# suites


def _timed(fn):
    import time

    # wrapped under the suite's own name, so that a suite pickles by name
    # when run_all sends it to a worker process
    @functools.wraps(fn)
    def run(*a, **kw) -> SuiteResult:
        t0 = time.perf_counter()
        res: SuiteResult = fn(*a, **kw)
        res.elapsed = time.perf_counter() - t0
        return res

    return run


@_timed
def suite_invariant_vs_decision(seed: int, count: int = 200, instances=None) -> SuiteResult:
    """The subset-product invariant must coincide with the decision procedure
    on every instance."""
    if instances is None:
        instances = generate_instances(seed, count)
    failures = []
    positives = 0
    for ms, ns in instances:
        dec = bool(coe_decide(ms, ns))
        inv = k_invariant_equal(ms, ns)
        positives += dec
        if dec != inv:
            failures.append(f"{_fmt_pair(ms, ns)}: decide={dec} invariant={inv}; "
                            f"replay: {_replay_command('coe', ms, ns)}")
    res = SuiteResult("invariant-vs-decision", len(instances), failures)
    res.positives = positives
    return res


def _witness_suite(relation: str, pairs, level: int, build) -> SuiteResult:
    """Every pair's witness chain, built by `build` from the pair (ms, ns)
    and its positive decision, must pass verify_chain as a witness of
    `relation`; a failure ends with its replay command."""
    failures = []
    for ms, ns, decision in pairs:
        replay = _replay_command(relation, ms, ns, level)
        try:  # construction failures are failures too
            report = verify_chain(build(ms, ns, decision), level, relation)
            if not report.passed:
                failures.append(f"{_fmt_pair(ms, ns)}: {report.summary()}; replay: {replay}")
        except Exception as e:
            failures.append(f"{_fmt_pair(ms, ns)}: {e!r}; replay: {replay}")
    return SuiteResult(f"{relation}-witness-soundness", len(pairs), failures)


@_timed
def suite_coe_witnesses(instances, level: int = 4, max_rank: int = 2) -> SuiteResult:
    """Every orbit-equivalent instance of rank at most max_rank gets an
    explicit chain witness which must survive the stage-wise verifier."""
    decided = ((ms, ns, coe_decide(ms, ns)) for ms, ns in instances if len(ms) <= max_rank)
    return _witness_suite("coe", [p for p in decided if p[2]], level, build_coe_witness)


@_timed
def suite_conj_witnesses(instances, level: int = 4, extra=()) -> SuiteResult:
    """Every conjugate instance gets an explicit conjugacy, one stage of
    block conjugacies, and each block must pass verify_conj.  The blocks'
    matrices satisfy S diag(m) T = diag(n) exactly: solve_conjugator checks
    that for every block the decision returns."""
    decided = ((ms, ns, conj_decide(ms, ns)) for ms, ns in list(instances) + list(extra))
    return _witness_suite("conj", [p for p in decided if p[2]], level, build_conj_witness)


@_timed
def suite_snf(seed: int, count: int = 1000, max_dim: int = 5, bound: int = 20) -> SuiteResult:
    """Smith normal form on random integer matrices against the minor-gcd
    oracle.  Every elimination behind smith_normal_form (intmat._smith)
    proves its own decomposition (intmat._check_snf: U*A*V = S, unimodular
    U and V, a non-negative diagonal, the divisibility chain); a refusal
    there is a failure line.  The entries are drawn as
    randrange(2*bound + 1) - bound, the stream randint(-bound, bound) draws."""
    rng = random.Random(seed)
    draw, span = rng.randrange, 2 * bound + 1
    failures = []
    for t in range(count):
        rows, cols = draw(max_dim) + 1, draw(max_dim) + 1
        a = [[draw(span) - bound for _ in range(cols)] for _ in range(rows)]
        try:
            s = _smith(a, cols)[0]
        except AssertionError as e:
            problem = str(e)
        else:
            if tuple([s[i][i] for i in range(min(rows, cols))]) == snf_diagonal_by_minors(
                    IntMatrix.from_rows(a)):
                continue
            problem = "minor-gcd oracle disagrees"
        # the line is built only for a failure: most matrices pass
        failures.append(f"seed={seed} #{t} {a}: {problem}; replay: {_replay_selftest(seed)}")
    return SuiteResult("smith-normal-form", count, failures)


def _enumerate_factors(primes: tuple[int, ...], max_exp: int) -> list[SupernaturalNumber]:
    """All limits over the primes with exponents in {0..max_exp, inf} and at
    least one infinite prime."""
    choices = list(range(max_exp + 1)) + [INF]
    out = []
    for combo in itertools.product(choices, repeat=len(primes)):
        if not any(e is INF for e in combo):
            continue
        out.append(
            SupernaturalNumber.from_map(
                {p: e for p, e in zip(primes, combo) if e}
            )
        )
    return out


def _enumerate_sides(factors, max_rank: int):
    out = []
    for r in range(1, max_rank + 1):
        out.extend(itertools.combinations_with_replacement(factors, r))
    return out


@_timed
def suite_conj_vs_bruteforce(
    seed: int, samples: int = 4000, exhaustive: bool = True
) -> SuiteResult:
    """The canonical one-block-per-class rule against the exhaustive search
    over all block partitions and per-prime common-divisor choices.

    Runs every pair of sides with at most two factors over primes {2, 3}
    and exponents up to 2, then seeded samples from the full domain (three
    factors, primes {2, 3, 5})."""
    pairs = []
    if exhaustive:
        sides = _enumerate_sides(_enumerate_factors((2, 3), 2), 2)
        pairs += [(ms, ns) for ms in sides for ns in sides]
    rng = random.Random(seed)
    factors = _enumerate_factors(SMALL_PRIMES, 2)
    label = {f: sn_str(f) for f in factors}  # a side is sorted by its factors' text
    for _ in range(samples):
        ms = tuple(sorted((rng.choice(factors) for _ in range(rng.randint(1, 3))), key=label.get))
        ns = tuple(sorted((rng.choice(factors) for _ in range(rng.randint(1, 3))), key=label.get))
        pairs.append((ms, ns))
    verdicts: dict = {}  # the oracle's verdicts per class, shared by the pairs
    profiles: dict = {}  # and its element-order profiles per group
    failures = [f"{_fmt_pair(ms, ns)}; replay: {_replay_command('conj', ms, ns)}"
                for ms, ns in pairs
                if bool(conj_decide(ms, ns)) != conjugacy_bruteforce(ms, ns, verdicts, profiles)]
    return SuiteResult("conj-vs-bruteforce", len(pairs), failures)


@_timed
def suite_eig(kmax: int = 12, max_level: int = 5, guard: int = 2500) -> SuiteResult:
    """Closed-form eigenvalue groups against the permutation oracle, over
    every limit shape on primes {2, 3, 5} with exponents in {0, 1, 2, inf},
    all |k| <= kmax, and every level <= max_level the guard admits.  The
    limits share their permutation walks, a row of Z/n walked once, and the
    truncations and factorizations the confrontations read (EigFacts)."""
    failures = []
    checked = 0
    facts = EigFacts()
    for combo in itertools.product((0, 1, 2, INF), repeat=3):
        m = SupernaturalNumber.from_map({p: e for p, e in zip(SMALL_PRIMES, combo) if e})
        lvl = max_level
        while lvl > 0 and level_modulus(Odometer(m), lvl) > guard:
            lvl -= 1
        for k, parts in eig_cross_check(m, range(-kmax, kmax + 1), lvl, guard, facts).items():
            checked += 1
            bad = [name for name, ok in parts.items() if not ok]
            if bad:
                failures.append(f"M={sn_str(m)} k={k} level={lvl}: {bad}; "
                                f'replay: orbitcert eig "{sn_str(m)}" {k}')
    return SuiteResult("eigenvalue-cross-check", checked, failures)


@_timed
def suite_counterexample(p: int = 2, q: int = 3, n: int = 5) -> SuiteResult:
    report = free_group_counterexample_check(p, q, n)
    failures = [stmt for stmt, ok in report.certified if not ok]
    if not report.cited:
        failures.append("missing cited orbit-equivalence direction")
    replay = f"orbitcert counterexample {p} {q} {n}"
    return SuiteResult("counterexample-family", len(report.certified),
                       [f"{f}; replay: {replay}" for f in failures])


@_timed
def suite_cohomology(seed: int, count: int = 12, level: int = 3) -> SuiteResult:
    """Twist/untwist round trips over a constructed corpus.

    Starting from each part (phi, rho) of a conjugacy, the conjugacy of
    one block, pick a transfer u = rho(s) where s translates each factor by
    a multiple of its level-1 modulus, constant on level-1 cylinders; the
    shifted point map u(x).phi(x) then equals
    phi(tau(x)) for the explicit bijection tau(x) = s(x).x, so a genuine
    twisted witness exists: its point maps are the conjugacy's slid by -u.
    Untwisting it must return a verified conjugacy, and a corrupted transfer
    must be rejected by the premise check."""
    rng = random.Random(seed)
    failures = []
    checked = 0
    built = 0
    while built < count:
        ms, ns = conj_positive_pair(rng, max_rank=2)
        try:
            chain = build_conj_witness(ms, ns)
        except ValueError:
            continue
        blocks = [p.witness for p in chain.stages[0].parts]
        # the tests check the twisted witnesses on the grids of their
        # truncations; a block's maps read level max(level, depth), and the
        # multipliers drawn here give depth <= 2, so at level 3 its largest
        # grids are its systems' truncations
        if any(point_count(spec, level) > 20_000 for w in blocks for spec in (w.source, w.target)):
            continue
        built += 1
        for w in blocks:
            x_spec, y_spec = w.source, w.target
            d = x_spec.space_moduli(1)
            # s on the level-1 cylinders, in grid order
            shifts = [[di * rng.randint(-2, 2) for di in d] for _ in range(point_count(x_spec, 1))]
            rho, rho_inv = w.phi.rho, w.psi.rho  # rho[i] is rho(e_i)
            tgy = y_spec.group_moduli()

            def transfer(shifts, sign=1, name="corpus-u"):
                return GroupValuedMap(x_spec, tgy, 1, [
                    [sign * sum(c * row[j] for c, row in zip(s, rho)) for j in range(len(tgy))]
                    for s in shifts], name=name)

            u = transfer(shifts)
            phi_u, psi_u = slide(w, transfer(shifts, -1), rho_inv)
            # v(y) = -s(psi_u(y)), constant on psi_u's cylinders
            v = GroupValuedMap(y_spec, x_spec.group_moduli(), psi_u.input_level(1), [
                [-c for c in shifts[cylinder_index(d, image(psi_u, 1, y))]]
                for y in cylinders(psi_u.moduli)], psi_u.moduli, "corpus-v")
            twisted = CoeWitness(phi_u, twist(w.a, u), psi_u, twist(w.b, v))
            if built <= 3:
                checked += 1
                sanity = verify_coe(twisted, level=2)
                if not sanity.passed:
                    failures.append(
                        f"{_fmt_pair(ms, ns)}: twisted witness is not genuine: {sanity.summary()}"
                    )
                    continue
            checked += 1
            # untwist verifies its output as a conjugacy and raises AssertionError
            # when that fails
            try:
                out = untwist_to_conjugacy(twisted, u, (w.a, w.b), level)
            except ValueError as e:
                failures.append(f"{_fmt_pair(ms, ns)}: untwist rejected its own twist: {e}")
                continue
            except AssertionError as e:
                failures.append(f"{_fmt_pair(ms, ns)}: untwisted witness fails: {e}")
                continue
            # untwisting recovers the original conjugacy map exactly
            deep = max(out.phi.input_level(2), w.phi.input_level(2))
            mods = x_spec.space_moduli(deep)
            n = point_count(x_spec, deep)
            picks = rng.sample(range(n), min(10, n))
            checked += len(picks)
            points = ([i // math.prod(mods[j + 1:]) % m for j, m in enumerate(mods)]
                      for i in picks)
            if any(image(out.phi, 2, p) != image(w.phi, 2, p) for p in points):
                failures.append(f"{_fmt_pair(ms, ns)}: untwist did not recover the base map")
            # a transfer corrupted on one cylinder must fail the premise
            key = rng.choice(range(len(shifts)))
            bad_shifts = [list(s) for s in shifts]
            bad_shifts[key][rng.randrange(len(d))] += 1
            bad_u = transfer(bad_shifts, name="bad-u")
            checked += 1
            try:
                untwist_to_conjugacy(twisted, bad_u, (w.a, w.b), level)
                failures.append(f"{_fmt_pair(ms, ns)}: corrupted transfer accepted")
            except ValueError:
                pass
    return SuiteResult("cohomology-roundtrip", checked,
                       [f"{f}; replay: {_replay_selftest(seed)}" for f in failures])


# the suites' indices in run_all's job list, longest first, the order in
# which they are handed to the workers.  Measured in a worker for
# run_all(17, 20) on a 2-core x86 guest: smith-normal-form 53 ms,
# eigenvalue-cross-check 24, cohomology-roundtrip 23, conj-vs-bruteforce
# 16, then the short ones in list order, 5 ms together.  On two workers
# one runs smith-normal-form and the short suites, the other the next
# three, and the call takes about 72 ms.
_LONGEST_FIRST = (3, 5, 7, 4, 0, 1, 2, 6)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_all(seed: int = 0, count: int = 200) -> list[SuiteResult]:
    """Every suite on the instances generate_instances(seed, count), in a
    fixed order.  The suites share nothing but the instances, so they run
    side by side in forked worker processes, at most one per usable CPU,
    longest first (_LONGEST_FIRST has their measured times), and each
    one's elapsed time is its own wall time.  On one usable CPU, or where
    fork is not offered, they run one after another in this process.  No
    worker outlives the call."""
    instances = generate_instances(seed, count)
    jobs = [
        functools.partial(suite_invariant_vs_decision, seed, count, instances=instances),
        functools.partial(suite_coe_witnesses, instances),
        functools.partial(suite_conj_witnesses, instances, extra=_mandated_conj_pairs()),
        functools.partial(suite_snf, seed),
        functools.partial(suite_conj_vs_bruteforce, seed, samples=1000),
        suite_eig,
        suite_counterexample,
        functools.partial(suite_cohomology, seed),
    ]
    workers = min(_usable_cpus(), len(jobs))
    if workers > 1:
        # imported here: every importer of this module would pay for them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork, not spawn, so that workers do not import numpy and this
        # package again, and not forkserver, whose server would outlive
        # the call
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                futures = {i: pool.submit(jobs[i]) for i in _LONGEST_FIRST}
                return [futures[i].result() for i in range(len(jobs))]
    return [job() for job in jobs]


def _mandated_conj_pairs():
    from .supernatural import parse_sn_list

    return [
        (parse_sn_list("2*5^inf, 3*5^inf"), parse_sn_list("3*5^inf, 2*5^inf")),
    ]
