"""Locally constant maps, orbit cocycles, and exhaustive finite-level checks.

Every map here is finite integer data given by pieces (orbitcert.linear):
a point map (LCMap) is an affine map of integers on each cylinder of its
modulus, a group-valued map (GroupValuedMap) and a cocycle (CocycleTable)
are constant on each cylinder of theirs.  A map between inverse towers
also carries a level map: its output at level k depends only on the
input's level level_map(k) projection.

A cocycle is stored by its values on the acting group's standard generators.
On Z^a x prod Z/n_i such values extend to a genuine cocycle exactly when the
group's relations hold at every point (generators commute; the values around
an orbit of a cyclic generator add up to zero), so the orbit-equivalence
checks test each identity on generators only and hold for every element of
the acting group, not for a sampled box.  A conjugacy is the orbit
equivalence whose cocycles do not depend on the point, a(g, x) = rho(g) for
a group isomorphism rho; verify_conj checks that and then the coe checks.
Each check is decided by congruences on the pieces and the columns, on no
grid, at the levels a check on the grid of a truncation would read;
orbitcert.chain states why.

Chains of such witnesses, checked stage by stage, are in orbitcert.chain; a
conjugacy is one stage of block conjugacies, each checked by verify_conj.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

from .dynamics import PointAtLevel, SystemSpec, generator, require_level
from .linear import (
    _SAMPLES,
    _constant_on,
    _record,
    cylinder_index,
    cylinders,
    equivariance,
    homomorphism,
    identity,
    inverse,
    refine,
    roundtrip,
    runs,
)

# the verifiers' point limits, by the relation a witness is checked for
POINT_LIMITS = {"coe": 10**6, "conj": 5 * 10**6}


def _ints(v) -> tuple[int, ...]:
    return tuple(map(int, v))


def require_cylinders(moduli, limit: int, what: str) -> None:
    """Refuse a map or cocycle of more than `limit` cylinders."""
    n = math.prod(moduli)
    if n > limit:
        raise ValueError(f"{what} of {n} cylinders is beyond the point limit {limit}")


@dataclass(frozen=True, eq=False)
class LCMap:
    """Locally constant map between systems, a piecewise affine map of
    residues: pieces[r] = (t_r, A_r) for the r-th cylinder r of `moduli`
    (D, one per source factor, default 1) in mixed-radix order, and the map
    sends r + D.u to t_r + u.A_r, A_r one row per source factor, reduced mod
    the output level's moduli (orbitcert.linear).  A linear map, given by
    its integer matrix rho, rho[i] the image of e_i, is the one-piece map
    with offset 0 (linear_map)."""

    source: SystemSpec
    target: SystemSpec
    level_map: Callable[[int], int]
    pieces: tuple
    moduli: tuple[int, ...] | None = None
    name: str = ""
    # memos of level_map and of orbitcert.linear's restrictions, never copied
    _levels: dict = field(default_factory=dict, init=False, repr=False)
    _restricted: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        mods = (1,) * self.source.rank if self.moduli is None else _ints(self.moduli)
        shared: dict = {}  # equal rows as one object, which the checks compare by identity
        given: dict = {}  # each rows object handed in, kept, and its shared rows
        pieces = []
        for t, rows in self.pieces:
            got = given.get(id(rows))
            if got is None:
                norm = tuple(map(_ints, rows))
                got = given[id(rows)] = (rows, shared.setdefault(norm, norm))
            pieces.append((_ints(t), got[1]))
        pieces = tuple(pieces)
        sr, tr = self.source.rank, self.target.rank
        if len(mods) != sr or min(mods) < 1 or len(pieces) != math.prod(mods) or any(
                [len(t) != tr for t, _rows in pieces]) or any(
                [len(rows) != sr or any([len(row) != tr for row in rows]) for rows in shared]):
            raise ValueError(f"{self.name or 'map'}: one piece per cylinder, an offset and "
                             f"{sr} rows of {tr} entries each, is required")
        object.__setattr__(self, "moduli", mods)
        object.__setattr__(self, "pieces", pieces)

    @property
    def rho(self) -> tuple | None:
        """The matrix of a linear map, None for any other."""
        if len(self.pieces) == 1 and not any(self.pieces[0][0]):
            return self.pieces[0][1]
        return None

    def input_level(self, k: int) -> int:
        """level_map(k), memoized (level maps can be deep compositions)."""
        got = self._levels.get(k)
        if got is None:
            got = self._levels[k] = self.level_map(k)
        return got


def linear_map(source: SystemSpec, target: SystemSpec, level_map, rho, name: str = "") -> LCMap:
    """x -> x.rho, rho[i] the image of e_i: one piece, offset 0."""
    return LCMap(source, target, level_map, (((0,) * target.rank, rho),), name=name)


def _canonical_values(spec, group, moduli, level, values, arity, what):
    mods = spec.space_moduli(level)
    if len(moduli) != spec.rank or any(m < 1 or big % m for m, big in zip(moduli, mods)):
        raise ValueError(f"{what}: cylinder moduli {moduli} must divide the level-{level} "
                         f"moduli {mods}")
    if len(values) != math.prod(moduli):
        raise ValueError(f"{what}: one value per cylinder of {moduli} is required")
    out = []
    for cols in values:
        cols = list(cols) if arity else [cols]
        if len(cols) != (arity or 1) or any([len(col) != len(group) for col in cols]):
            raise ValueError(f"{what}: one column of {len(group)} entries per source factor "
                             f"is required, {spec.rank} in all")
        cols = tuple([tuple([c % m if m else c for c, m in zip(map(int, col), group)])
                      for col in cols])
        out.append(cols if arity else cols[0])
    return tuple(out)


@dataclass(frozen=True, eq=False)
class GroupValuedMap:
    """Locally constant map from a system into an abelian group given by a
    moduli descriptor (n for Z/n, 0 for Z).  level is the locality level,
    and values[r] the value on the r-th cylinder of `moduli`, which divide
    the level-`level` moduli (default: those moduli, the level grid),
    stored canonically (cyclic coordinates reduced mod n)."""

    source: SystemSpec
    target_group: tuple[int, ...]
    level: int
    values: tuple
    moduli: tuple[int, ...] | None = None
    name: str = ""

    def __post_init__(self):
        mods = self.source.space_moduli(self.level) if self.moduli is None else _ints(self.moduli)
        object.__setattr__(self, "moduli", mods)
        object.__setattr__(self, "values", _canonical_values(
            self.source, self.target_group, mods, self.level, self.values, 0,
            self.name or "group-valued map"))

    def at(self, x) -> tuple[int, ...]:
        """The value at a point given by residues at level `level` or finer."""
        return self.values[cylinder_index(self.moduli, x)]


@dataclass(frozen=True, eq=False)
class CocycleTable:
    """Cocycle values on the acting group's standard generators; everything
    else is produced by the cocycle identity (the target is abelian).
    values[r][i] is a(e_i, x) on the r-th cylinder of `moduli`, which divide
    the level-`level` moduli, canonical in the target group.  By default a
    cocycle has one cylinder: a(e_i, x) = values[0][i] does not depend on
    the point, the cocycle of a homomorphism."""

    source: SystemSpec
    target_group: tuple[int, ...]
    values: tuple
    moduli: tuple[int, ...] | None = None
    level: int = 0
    # b(h, y) per group element h and cylinder index y, as orbitcert.linear's
    # inverse check reads it, kept for every check that reads this cocycle
    _reads: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        mods = (1,) * self.source.rank if self.moduli is None else _ints(self.moduli)
        object.__setattr__(self, "moduli", mods)
        object.__setattr__(self, "values", _canonical_values(
            self.source, self.target_group, mods, self.level, self.values, self.source.rank,
            "cocycle"))

    @cached_property
    def runs(self) -> list[dict]:
        """The prefix sums read() telescopes the cocycle with (orbitcert.linear)."""
        return runs(self)


@dataclass(frozen=True, eq=False)
class CoeWitness:
    """Orbit-equivalence data: point maps both ways plus both orbit cocycles.
    A conjugacy is such a witness whose cocycles are homomorphism cocycles."""

    phi: LCMap
    a: CocycleTable
    psi: LCMap
    b: CocycleTable

    def __post_init__(self):
        if self.phi.source != self.psi.target or self.phi.target != self.psi.source:
            raise ValueError("phi and psi must be mutually inverse in shape")
        if self.a.source != self.phi.source:
            raise ValueError("a must live on the source system")
        if self.a.target_group != self.phi.target.group_moduli():
            raise ValueError("a must take values in the target acting group")
        if self.b.source != self.phi.target:
            raise ValueError("b must live on the target system")
        if self.b.target_group != self.phi.source.group_moduli():
            raise ValueError("b must take values in the source acting group")

    @property
    def source(self) -> SystemSpec:
        return self.phi.source

    @property
    def target(self) -> SystemSpec:
        return self.phi.target


# ---------------------------------------------------------------------------
# constructors


def homomorphism_cocycle(spec: SystemSpec, iso_columns, target_group: tuple[int, ...]) \
        -> CocycleTable:
    """a(g, x) = rho(g) for the homomorphism with columns rho(e_i), given
    by those columns.  A conjugacy is the orbit equivalence whose two
    cocycles are of this form, for rho and rho^-1."""
    return CocycleTable(spec, target_group, (tuple(iso_columns),))


def inverse_coe(w: CoeWitness) -> CoeWitness:
    return CoeWitness(w.psi, w.b, w.phi, w.a)


# ---------------------------------------------------------------------------
# cohomology


def twist(a: CocycleTable, u: GroupValuedMap) -> CocycleTable:
    """Cohomologous cocycle a'(g, x) = u(g.x) + a(g, x) - u(x), on the
    common cylinders of a and u."""
    if u.source != a.source or u.target_group != a.target_group:
        raise ValueError("transfer shape mismatch")
    mods = tuple(math.lcm(p, q) for p, q in zip(a.moduli, u.moduli))
    umods, uvals = u.moduli, u.values
    # the cylinder of u holding r + e_i is `stride` after r's, or wraps
    strides = [math.prod(umods[i + 1:]) for i in range(len(umods))]
    values = []
    for r in cylinders(mods):
        at = cylinder_index(umods, r)
        here, cols = uvals[at], a.values[cylinder_index(a.moduli, r)]
        values.append(tuple([
            tuple([p + q - s for p, q, s in zip(
                uvals[at + st if v % m + 1 < m else at - (m - 1) * st], col, here)])
            for v, m, st, col in zip(r, umods, strides, cols)]))
    return CocycleTable(a.source, a.target_group, tuple(values), mods, max(a.level, u.level))


def slide(w: CoeWitness, u: GroupValuedMap, rho_inv) -> tuple[LCMap, LCMap]:
    """w's point maps slid by the transfer u, a map into the target's acting
    group: phi'(x) = phi(x) - u(x) and psi'(y) = psi(y) + rho^-1(u(psi(y))),
    where rho_inv[j], a row of integers, is rho^-1(e_j).  phi' has phi's
    pieces on the cylinders of u, psi' psi's on the cylinders on which psi
    at u's level lies in one cylinder of u.  Slid by -u, a conjugacy's phi is
    equivariant through twist(rho, u), and psi' inverts it wherever
    u(psi'(y)) = u(psi(y)); untwist_to_conjugacy slides back by u."""
    x, y, phi, psi = w.source, w.target, w.phi, w.psi
    umods, uvals = u.moduli, u.values
    mods, pieces = refine(phi, umods)
    slid_phi = tuple([(tuple([p - q for p, q in zip(t, uvals[cylinder_index(umods, r)])]), rows)
                      for r, (t, rows) in zip(cylinders(mods), pieces)])
    deep = psi.input_level(u.level)
    # the cylinders on which psi at u's level lies in one cylinder of u
    psi_mods, pieces = refine(psi, _constant_on(psi, u.level, (1,) * y.rank, umods)[0])
    back: dict = {}  # rho^-1(u) per cylinder of u
    shifts = []
    for t, rows in pieces:
        at = cylinder_index(umods, t)
        shift = back.get(at)
        if shift is None:
            shift = back[at] = [sum([c * row[i] for c, row in zip(uvals[at], rho_inv)])
                                for i in range(len(t))]
        shifts.append((tuple([p + q for p, q in zip(t, shift)]), rows))
    return (LCMap(x, y, lambda k: max(phi.input_level(k), u.level), slid_phi, mods, "slid-phi"),
            LCMap(y, x, lambda k: max(psi.input_level(k), deep), tuple(shifts), psi_mods,
                  "slid-psi"))


def untwist_to_conjugacy(
    w: CoeWitness,
    u: GroupValuedMap,
    rho: tuple[CocycleTable, CocycleTable],
    level: int = 4,
    point_limit: int = POINT_LIMITS["coe"],
) -> CoeWitness:
    """When a(g, x) = u(g.x) + rho(g) - u(x) holds everywhere (checked
    exactly on generators, so for every g), slide the point map by u to
    obtain a genuine conjugacy.  rho is given as a conjugacy carries it,
    as the pair of homomorphism cocycles rho and rho^-1.

    rho must be a group isomorphism.  The untwisted witness carries rho's
    columns as its cocycles, so its own homomorphism, cocycle-identity and
    inverse checks decide that, and only rho can make them fail.  The
    premise is the cohomology equation, twist(rho, u) = a on generators,
    plus the coe checks on the input witness, which cover every identity
    the construction consumes.  The cheap checks come first: rho's, then
    the premise, then the input's; the output's point maps are checked
    only once all of them hold, and the output's report keeps
    verify_conj's check order."""
    if u.source != w.source or u.target_group != w.target.group_moduli():
        raise ValueError("transfer shape mismatch")
    rho_a, rho_b = rho
    CoeWitness(w.phi, rho_a, w.psi, rho_b)  # refuses a rho of the wrong shape
    phi, psi = slide(w, u, rho_b.values[0])
    out = CoeWitness(phi, rho_a, psi, rho_b)
    require_level(w.source, level, point_limit)
    require_level(w.target, level, point_limit)
    rho_checks = [CheckResult(*homomorphism(out))] + _cocycle_checks(out)
    bad = [c for c in rho_checks if not c.ok]
    if bad:
        raise ValueError("rho is not a group isomorphism: "
                         + "; ".join(f"{c.name} {c.violations}" for c in bad))

    expect = twist(rho_a, u)
    mods = tuple(math.lcm(p, q) for p, q in zip(w.a.moduli, expect.moduli))
    at = max(w.a.level, expect.level)
    violations: list = []
    for r in cylinders(mods):
        got, want = (t.values[cylinder_index(t.moduli, r)] for t in (w.a, expect))
        _record(violations, [("premise", generator(w.source, i), PointAtLevel(at, r))
                             for i in range(w.source.rank) if got[i] != want[i]])
    if violations:
        raise ValueError(
            "premise fails: the cocycle is not cohomologous to rho via u; "
            f"counterexamples {violations}"
        )
    for dep in _coe_checks(w, level, point_limit):
        if not dep.ok:
            raise ValueError(
                f"premise fails: the input is not a valid witness at this scale "
                f"({dep.name}); counterexamples {dep.violations}"
            )
    checks = rho_checks[:1] + _map_checks(out, level) + rho_checks[1:]
    report = VerifyReport("conj-witness", level, checks)
    if not report.passed:
        raise AssertionError("untwisted witness failed verification:\n" + report.summary())
    return out


# ---------------------------------------------------------------------------
# verification reports


@dataclass
class CheckResult:
    name: str
    checked: int
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def vacuous(self) -> bool:
        """Passed without a comparison: nothing was there to check.  It
        still counts as passed."""
        return self.ok and not self.checked


@dataclass
class VerifyReport:
    """Every identity is checked on generators, so a passing report holds
    over the whole acting group, not a sampled box."""

    kind: str
    level: int
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def summary(self) -> str:
        lines = [f"{self.kind} verification at level={self.level}, exact over the acting group"]
        for c in self.checks:
            status = "FAIL" if not c.ok else "vacuous" if c.vacuous else "ok"
            lines.append(f"  [{status}] {c.name}: {c.checked} comparisons")
            for v in c.violations[:_SAMPLES]:
                lines.append(f"         counterexample: {v}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# checks


def verify_cocycle_identity(
    a: CocycleTable, level: int = 4, point_limit: int = POINT_LIMITS["coe"]
) -> VerifyReport:
    """a(g1+g2, x) = a(g1, g2.x) + a(g2, x) for all g1, g2 in the acting group
    and every point, through the group's relations on the cocycle's own
    cylinders.  level is recorded in the report only."""
    return VerifyReport("cocycle-identity", level, [CheckResult(*identity("cocycle-identity", a))])


def require_grids(w: CoeWitness, level: int, limit: int) -> None:
    """Refuse, before anything is checked, a level beyond `limit` (the
    level bound on untrusted input, require_level) and a map or cocycle of
    more than `limit` cylinders."""
    require_level(w.source, level, limit)
    require_level(w.target, level, limit)
    for mods in (w.phi.moduli, w.psi.moduli, w.a.moduli, w.b.moduli):
        require_cylinders(mods, limit, "a part's map")


def _coe_checks(w: CoeWitness, level: int, limit: int) -> list[CheckResult]:
    """The checks of verify_coe, shared with verify_conj and the untwist
    premise, refused up front beyond the point limit (require_grids)."""
    require_grids(w, level, limit)
    return _map_checks(w, level) + _cocycle_checks(w)


def _pairs(w: CoeWitness, *calls) -> list[CheckResult]:
    """The checks (check, name, *args), each of w and its mirror image with
    phi, a and psi, b exchanged.  An involution, phi = psi and a = b, is
    its own mirror image, and its second check repeats the first."""
    out = []
    for check, name, *args in calls:
        if w.phi is w.psi and w.a is w.b and len(out) % 2:
            out.append(CheckResult(name, out[-1].checked,
                                   [(name,) + v[1:] for v in out[-1].violations]))
        else:
            out.append(CheckResult(*check(name, *args)))
    return out


def _map_checks(w: CoeWitness, level: int) -> list[CheckResult]:
    """Equivariance of both point maps and both roundtrips."""
    return _pairs(w, (equivariance, "phi-equivariance", w.phi, w.a, max(level, w.b.level)),
                  (equivariance, "psi-equivariance", w.psi, w.b, max(level, w.a.level)),
                  (roundtrip, "psi-after-phi", w.phi, w.psi, level),
                  (roundtrip, "phi-after-psi", w.psi, w.phi, level))


def _cocycle_checks(w: CoeWitness) -> list[CheckResult]:
    """Both inverse checks and both cocycle identities.  On a conjugacy's
    one-cylinder cocycles their verdicts depend on rho and rho^-1 alone."""
    return _pairs(w, (inverse, "b-inverts-a", w.phi, w.a, w.b),
                  (inverse, "a-inverts-b", w.psi, w.b, w.a),
                  (identity, "cocycle-identity-a", w.a), (identity, "cocycle-identity-b", w.b))


def verify_coe(w: CoeWitness, level: int = 4,
               point_limit: int = POINT_LIMITS["coe"]) -> VerifyReport:
    """Exhaustive soundness check of an orbit-equivalence witness, exact over
    the whole acting group: both cocycles satisfy the group's relations,
    phi and psi are equivariant through them on every generator, the point
    maps are mutually inverse at `level`, and b(a(g, x), phi(x)) = g and
    a(b(h, y), psi(y)) = h on generators.  Each cocycle is thus a bijection
    of the acting groups at every point.  Equivariance is checked at the
    level the inversion checks read the point maps, when that is above
    `level`.  A level beyond the point limit is refused up front."""
    return VerifyReport("coe-witness", level, _coe_checks(w, level, point_limit))


def verify_conj(w: CoeWitness, level: int = 4,
                point_limit: int = POINT_LIMITS["conj"]) -> VerifyReport:
    """Exhaustive check of a conjugacy witness, exact over the whole acting
    group.  A conjugacy is an orbit equivalence whose cocycles do not depend
    on the point, a(g, x) = rho(g) and b(h, y) = rho^-1(h): homomorphism
    checks that, and the checks of verify_coe follow.  On constant
    cocycles they make rho well defined (cocycle-identity), an isomorphism
    with inverse rho^-1 (b-inverts-a, a-inverts-b), and phi and psi mutually
    inverse maps, equivariant through rho and rho^-1.  A level beyond the
    point limit is refused up front."""
    checks = [CheckResult(*homomorphism(w))] + _coe_checks(w, level, point_limit)
    return VerifyReport("conj-witness", level, checks)
