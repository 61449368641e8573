"""Locally constant maps, orbit cocycles, and exhaustive finite-level checks.

Maps between inverse towers are kept as evaluable objects carrying a level
map: to produce output at level k they request their input at level
level_map(k) and are constant on the fibers of that projection.  Composites
therefore stay cheap to build; full tables are only materialized inside the
verification routines, which enumerate every point of the relevant truncation.

A cocycle is stored by its values on the acting group's standard generators.
On Z^a x prod Z/n_i such tables extend to a genuine cocycle exactly when the
group's relations hold at every point (generators commute; the values around
an orbit of a cyclic generator add up to zero), so the orbit-equivalence
checks test each identity on generators only and hold for every element of
the acting group, not for a sampled box.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .dynamics import (
    GroupElement,
    PointAtLevel,
    SystemSpec,
    act,
    add_coords,
    box_elements,
    canonical_coords,
    generator,
    neg_coords,
    point_count,
    project_to,
)
from .intmat import IntMatrix

_SAMPLES = 5  # violations kept per check


@dataclass(frozen=True, eq=False)
class LCMap:
    """Locally constant map between systems, evaluable at every level.

    evaluate(k, x) receives x already projected to exactly level_map(k) and
    must return a point at level k of the target.  vectorized, when present,
    maps (k, residue matrix) to the output residue matrix in one shot and must
    agree with evaluate pointwise; verification uses it to build tables.
    """

    source: SystemSpec
    target: SystemSpec
    level_map: Callable[[int], int]
    evaluate: Callable[[int, PointAtLevel], PointAtLevel]
    name: str = ""
    vectorized: Callable[[int, np.ndarray], np.ndarray] | None = None
    _cache: dict = field(default_factory=dict, repr=False)
    _levels: dict = field(default_factory=dict, repr=False)

    def input_level(self, k: int) -> int:
        """level_map(k), memoized (level maps can be deep compositions)."""
        got = self._levels.get(k)
        if got is None:
            got = self._levels[k] = (self.level_map(k), self.target.space_moduli(k))
        return got[0]

    def __call__(self, k: int, x: PointAtLevel) -> PointAtLevel:
        got = self._levels.get(k)
        if got is None:
            got = self._levels[k] = (self.level_map(k), self.target.space_moduli(k))
        need, mods = got
        if x.level < need:
            raise ValueError(
                f"{self.name or 'map'}: output level {k} needs input level {need}, got {x.level}"
            )
        xp = project_to(self.source, x, need)
        key = (k, xp.residues)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        y = self.evaluate(k, xp)
        if y.level != k:
            raise AssertionError(f"{self.name or 'map'} returned level {y.level}, wanted {k}")
        if len(y.residues) != len(mods) or any(
            not 0 <= r < m for r, m in zip(y.residues, mods)
        ):
            raise AssertionError(f"{self.name or 'map'} returned an out-of-range point")
        self._cache[key] = y
        return y


@dataclass(frozen=True, eq=False)
class GroupValuedMap:
    """Locally constant map from a system into an abelian group given by a
    moduli descriptor (n for Z/n, 0 for Z).  level is the locality modulus:
    the value depends only on the level-`level` projection of the point."""

    source: SystemSpec
    target_group: tuple[int, ...]
    level: int
    evaluate: Callable[[PointAtLevel], GroupElement]
    name: str = ""
    _cache: dict = field(default_factory=dict, repr=False)

    def __call__(self, x: PointAtLevel) -> GroupElement:
        if x.level < self.level:
            raise ValueError(
                f"{self.name or 'cocycle'}: needs level {self.level}, got {x.level}"
            )
        xp = project_to(self.source, x, self.level)
        hit = self._cache.get(xp.residues)
        if hit is not None:
            return hit
        v = self.evaluate(xp)
        out = GroupElement(canonical_coords(self.target_group, v.coords))
        self._cache[xp.residues] = out
        return out


Transfer = GroupValuedMap  # a transfer function u: X -> H is just such a map


@dataclass(frozen=True, eq=False)
class CocycleTable:
    """Cocycle values on the acting group's standard generators; everything
    else is produced by the cocycle identity (the target is abelian)."""

    source: SystemSpec
    target_group: tuple[int, ...]
    generators: tuple[GroupValuedMap, ...]

    def __post_init__(self):
        if len(self.generators) != self.source.rank:
            raise ValueError("one generator map per source factor is required")
        for gmap in self.generators:
            if gmap.target_group != self.target_group:
                raise ValueError("generator target group mismatch")
            if gmap.source != self.source:
                raise ValueError("generator source mismatch")

    @property
    def level(self) -> int:
        return max((g.level for g in self.generators), default=0)


def _steps(c: int, modulus: int) -> int:
    # canonical step count: cyclic coordinates walk forward, Z keeps the sign
    return c % modulus if modulus else c


def extend_cocycle(
    table: CocycleTable,
    g: GroupElement,
    x: PointAtLevel,
    order: Sequence[int] | None = None,
) -> GroupElement:
    """Value on an arbitrary group element, telescoped from generator values.

    a(gh, x) = a(g, h.x) + a(h, x) and a(-e, x) = -a(e, (-e).x); the factor
    processing order is irrelevant for an abelian target (tested), the default
    walks factors left to right.
    """
    spec = table.source
    if x.level < table.level:
        raise ValueError(f"point level {x.level} below cocycle level {table.level}")
    src_mods = spec.group_moduli()
    if len(g.coords) != spec.rank:
        raise ValueError("group element arity mismatch")
    val = (0,) * len(table.target_group)
    cur = x
    for i in order if order is not None else range(spec.rank):
        steps = _steps(g.coords[i], src_mods[i])
        ei = generator(spec, i)
        nei = GroupElement(neg_coords(src_mods, ei.coords))
        if steps >= 0:
            for _ in range(steps):
                val = add_coords(table.target_group, val, table.generators[i](cur).coords)
                cur = act(spec, cur.level, ei, cur)
        else:
            for _ in range(-steps):
                cur = act(spec, cur.level, nei, cur)
                val = add_coords(
                    table.target_group,
                    val,
                    neg_coords(table.target_group, table.generators[i](cur).coords),
                )
    return GroupElement(canonical_coords(table.target_group, val))


@dataclass(frozen=True, eq=False)
class CoeWitness:
    """Orbit-equivalence data: point maps both ways plus both orbit cocycles."""

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


@dataclass(frozen=True)
class GroupIso:
    """Isomorphism of acting groups given by an integer matrix pair."""

    source_group: tuple[int, ...]
    target_group: tuple[int, ...]
    matrix: IntMatrix
    inverse: IntMatrix

    def apply(self, coords: tuple[int, ...]) -> tuple[int, ...]:
        return canonical_coords(self.target_group, self.matrix.apply(coords))

    def apply_inverse(self, coords: tuple[int, ...]) -> tuple[int, ...]:
        return canonical_coords(self.source_group, self.inverse.apply(coords))

    def defects(self) -> list[str]:
        out = []
        ns, nt = len(self.source_group), len(self.target_group)
        if (self.matrix.rows, self.matrix.cols) != (nt, ns):
            return [f"matrix shape {self.matrix.rows}x{self.matrix.cols}, wanted {nt}x{ns}"]
        if (self.inverse.rows, self.inverse.cols) != (ns, nt):
            return [f"inverse shape {self.inverse.rows}x{self.inverse.cols}, wanted {ns}x{nt}"]
        out.extend(_hom_defects(self.matrix, self.source_group, self.target_group, "rho"))
        out.extend(_hom_defects(self.inverse, self.target_group, self.source_group, "rho^-1"))
        for p, grp, tag in (
            (self.inverse @ self.matrix, self.source_group, "rho^-1*rho"),
            (self.matrix @ self.inverse, self.target_group, "rho*rho^-1"),
        ):
            n = len(grp)
            for i in range(n):
                for j in range(n):
                    want = 1 if i == j else 0
                    diff = p.get(i, j) - want
                    if grp[i]:
                        diff %= grp[i]
                    if diff != 0:
                        out.append(f"{tag} is not the identity at ({i},{j})")
        return out


def _hom_defects(m: IntMatrix, src: tuple[int, ...], tgt: tuple[int, ...], tag: str) -> list[str]:
    # killing n_j * e_j in the source must land on 0 in the target
    out = []
    for j, nj in enumerate(src):
        if nj == 0:
            continue
        for i, ni in enumerate(tgt):
            x = nj * m.get(i, j)
            if (x % ni if ni else x) != 0:
                out.append(f"{tag} is not well defined on factor {j}")
                break
    return out


@dataclass(frozen=True, eq=False)
class ConjWitness:
    """Conjugacy data: a group isomorphism rho and an equivariant point map."""

    rho: GroupIso
    phi: LCMap
    phi_inv: LCMap

    def __post_init__(self):
        if self.phi.source != self.phi_inv.target or self.phi.target != self.phi_inv.source:
            raise ValueError("phi and phi_inv must be mutually inverse in shape")
        if self.rho.source_group != self.phi.source.group_moduli():
            raise ValueError("rho source group mismatch")
        if self.rho.target_group != self.phi.target.group_moduli():
            raise ValueError("rho target group mismatch")

    @property
    def source(self) -> SystemSpec:
        return self.phi.source

    @property
    def target(self) -> SystemSpec:
        return self.phi.target


# ---------------------------------------------------------------------------
# constructors


def identity_lcmap(spec: SystemSpec, name: str = "id") -> LCMap:
    return LCMap(spec, spec, lambda k: k, lambda k, x: x, name,
                 vectorized=lambda k, res: res)


def constant_generator(
    spec: SystemSpec, target_group: tuple[int, ...], coords: tuple[int, ...], name: str = ""
) -> GroupValuedMap:
    g = GroupElement(canonical_coords(target_group, coords))
    return GroupValuedMap(spec, target_group, 0, lambda x: g, name)


def homomorphism_cocycle(spec: SystemSpec, iso_columns: list[tuple[int, ...]],
                         target_group: tuple[int, ...]) -> CocycleTable:
    gens = tuple(
        constant_generator(spec, target_group, col, f"hom[{i}]")
        for i, col in enumerate(iso_columns)
    )
    return CocycleTable(spec, target_group, gens)


def identity_witness(spec: SystemSpec) -> CoeWitness:
    gm = spec.group_moduli()
    phi = identity_lcmap(spec)
    table = homomorphism_cocycle(
        spec, [generator(spec, i).coords for i in range(spec.rank)], gm
    )
    return CoeWitness(phi, table, identity_lcmap(spec), table)


def inverse_coe(w: CoeWitness) -> CoeWitness:
    return CoeWitness(w.psi, w.b, w.phi, w.a)


def _chain_vectorized(first: LCMap, second: LCMap):
    """Vectorized evaluator for second o first, when both stages have one."""
    if first.vectorized is None or second.vectorized is None:
        return None

    def vec(k: int, res: np.ndarray) -> np.ndarray:
        mid = second.input_level(k)
        return second.vectorized(k, first.vectorized(mid, res))

    return vec


def compose_coe(w1: CoeWitness, w2: CoeWitness) -> CoeWitness:
    """Chain witnesses X -> Y and Y -> Z into X -> Z."""
    if w1.target != w2.source:
        raise ValueError("middle systems do not match")
    x, z = w1.source, w2.target
    gz = z.group_moduli()
    gx = x.group_moduli()

    phi = LCMap(
        x,
        z,
        lambda k: w1.phi.input_level(w2.phi.input_level(k)),
        lambda k, xp: w2.phi(k, w1.phi(w2.phi.input_level(k), xp)),
        f"({w2.phi.name})o({w1.phi.name})",
        vectorized=_chain_vectorized(w1.phi, w2.phi),
    )
    psi = LCMap(
        z,
        x,
        lambda k: w2.psi.input_level(w1.psi.input_level(k)),
        lambda k, zp: w1.psi(k, w2.psi(w1.psi.input_level(k), zp)),
        f"({w1.psi.name})o({w2.psi.name})",
        vectorized=_chain_vectorized(w2.psi, w1.psi),
    )

    def a_gen(i: int) -> GroupValuedMap:
        lvl = max(w1.a.generators[i].level, w1.phi.level_map(w2.a.level))

        def ev(xp: PointAtLevel) -> GroupElement:
            h = w1.a.generators[i](xp)
            y = w1.phi(w2.a.level, xp)
            return extend_cocycle(w2.a, h, y)

        return GroupValuedMap(x, gz, lvl, ev, f"a12[{i}]")

    def b_gen(j: int) -> GroupValuedMap:
        lvl = max(w2.b.generators[j].level, w2.psi.level_map(w1.b.level))

        def ev(zp: PointAtLevel) -> GroupElement:
            h = w2.b.generators[j](zp)
            y = w2.psi(w1.b.level, zp)
            return extend_cocycle(w1.b, h, y)

        return GroupValuedMap(z, gx, lvl, ev, f"b21[{j}]")

    a = CocycleTable(x, gz, tuple(a_gen(i) for i in range(x.rank)))
    b = CocycleTable(z, gx, tuple(b_gen(j) for j in range(z.rank)))
    return CoeWitness(phi, a, psi, b)


def conj_to_coe(cw: ConjWitness) -> CoeWitness:
    """A conjugacy is an orbit equivalence whose cocycles are homomorphisms."""
    x, y = cw.source, cw.target
    a = homomorphism_cocycle(
        x, [cw.rho.apply(generator(x, i).coords) for i in range(x.rank)], y.group_moduli()
    )
    b = homomorphism_cocycle(
        y, [cw.rho.apply_inverse(generator(y, j).coords) for j in range(y.rank)],
        x.group_moduli(),
    )
    return CoeWitness(cw.phi, a, cw.phi_inv, b)


# ---------------------------------------------------------------------------
# cohomology


def twist(a: CocycleTable, u: Transfer) -> CocycleTable:
    """Cohomologous cocycle a'(g, x) = u(g.x) + a(g, x) - u(x)."""
    if u.source != a.source or u.target_group != a.target_group:
        raise ValueError("transfer shape mismatch")
    spec = a.source
    tg = a.target_group

    def gen(i: int) -> GroupValuedMap:
        lvl = max(a.generators[i].level, u.level)
        ei = generator(spec, i)

        def ev(xp: PointAtLevel) -> GroupElement:
            gx = act(spec, xp.level, ei, xp)
            s = add_coords(tg, u(gx).coords, a.generators[i](xp).coords)
            return GroupElement(add_coords(tg, s, neg_coords(tg, u(xp).coords)))

        return GroupValuedMap(spec, tg, lvl, ev, f"twist[{i}]")

    return CocycleTable(spec, tg, tuple(gen(i) for i in range(spec.rank)))


def untwist_to_conjugacy(
    w: CoeWitness,
    u: Transfer,
    rho: GroupIso,
    level: int = 4,
    radius: int = 6,
    point_limit: int = 10**6,
) -> ConjWitness:
    """When a(g, x) = u(g.x) + rho(g) - u(x) holds everywhere (checked
    exactly on generators, so for every g), slide the point map by u to
    obtain a genuine conjugacy.  radius only feeds the final verify_conj.

    The premise check covers everything the construction relies on: the
    cohomology equation itself, plus the witness identities it consumes
    (phi-equivariance through a at the given level, and both roundtrips)."""
    if u.source != w.source or u.target_group != w.phi.target.group_moduli():
        raise ValueError("transfer shape mismatch")
    if rho.source_group != w.source.group_moduli() or rho.target_group != w.target.group_moduli():
        raise ValueError("rho shape mismatch")
    bad = rho.defects()
    if bad:
        raise ValueError("rho is not a group isomorphism: " + "; ".join(bad))

    premise = _check_premise(w, u, rho, point_limit)
    if not premise.ok:
        raise ValueError(
            "premise fails: the cocycle is not cohomologous to rho via u; "
            f"counterexamples {premise.violations}"
        )
    for dep in (
        _check_equivariance("phi-equivariance", w.phi, w.a, level, point_limit),
        _check_roundtrip("psi-after-phi", w.phi, w.psi, level, point_limit),
        _check_roundtrip("phi-after-psi", w.psi, w.phi, level, point_limit),
    ):
        if not dep.ok:
            raise ValueError(
                f"premise fails: the input is not a valid witness at this scale "
                f"({dep.name}); counterexamples {dep.violations}"
            )

    x, y = w.source, w.target
    tgy = y.group_moduli()

    def phi_eval(k: int, xp: PointAtLevel) -> PointAtLevel:
        shift = neg_coords(tgy, u(xp).coords)
        return act(y, k, GroupElement(shift), w.phi(k, xp))

    phi = LCMap(
        x, y,
        lambda k: max(w.phi.level_map(k), u.level),
        phi_eval,
        "untwisted-phi",
    )

    def inv_eval(k: int, yp: PointAtLevel) -> PointAtLevel:
        xu = w.psi(u.level, yp)
        t = rho.apply_inverse(u(xu).coords)
        return act(x, k, GroupElement(t), w.psi(k, yp))

    phi_inv = LCMap(
        y, x,
        lambda k: max(w.psi.level_map(k), w.psi.level_map(u.level)),
        inv_eval,
        "untwisted-phi-inv",
    )
    cw = ConjWitness(rho, phi, phi_inv)
    report = verify_conj(cw, level, radius, point_limit)
    if not report.passed:
        raise AssertionError("untwisted witness failed verification:\n" + report.summary())
    return cw


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


@dataclass
class VerifyReport:
    """radius is None when no check samples a box: every identity was
    checked on generators and so holds over the whole acting group."""

    kind: str
    level: int
    radius: int | None
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def summary(self) -> str:
        scope = ("exact over the acting group" if self.radius is None
                 else f"radius={self.radius}")
        lines = [f"{self.kind} verification at level={self.level}, {scope}"]
        for c in self.checks:
            status = "ok" if c.ok else "FAIL"
            lines.append(f"  [{status}] {c.name}: {c.checked} comparisons")
            for v in c.violations[:_SAMPLES]:
                lines.append(f"         counterexample: {v}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# finite grids (materialization happens only here)


class _Grid:
    """Numpy-indexed enumeration of one truncation level, lexicographic, the
    first factor most significant."""

    def __init__(self, spec: SystemSpec, level: int, limit: int = 10**6):
        self.spec = spec
        self.level = level
        n = point_count(spec, level)
        if n > limit:
            raise ValueError(f"level-{level} grid would hold {n} points (limit {limit})")
        self.moduli = np.array(spec.space_moduli(level), dtype=np.int64)
        self.size = n
        strides = np.ones(len(self.moduli), dtype=np.int64)
        for i in range(len(self.moduli) - 2, -1, -1):
            strides[i] = strides[i + 1] * self.moduli[i + 1]
        self.strides = strides
        idx = np.arange(n, dtype=np.int64)
        self.res = (idx[:, None] // strides[None, :]) % self.moduli[None, :]
        self._rows = None

    def rows(self) -> list:
        if self._rows is None:
            self._rows = [tuple(r) for r in self.res.tolist()]
        return self._rows

    def point(self, i: int) -> PointAtLevel:
        res = tuple(int((i // s) % m) for s, m in zip(self.strides, self.moduli))
        return PointAtLevel(self.level, res)

    def index_of(self, res: np.ndarray) -> np.ndarray:
        return res @ self.strides

    def translate(self, coords: Sequence[int]) -> np.ndarray:
        """Index array of x + coords over the whole grid."""
        c = np.array(coords, dtype=np.int64)
        return ((self.res + c[None, :]) % self.moduli[None, :]) @ self.strides

    def project_index(self, other: "_Grid") -> np.ndarray:
        """For each point here, the index of its projection in a coarser grid."""
        if other.level > self.level:
            raise ValueError("projection must go to a coarser grid")
        return (self.res % other.moduli[None, :]) @ other.strides


def _materialize_lcmap(f: LCMap, out_level: int, limit: int) -> tuple[_Grid, np.ndarray]:
    grid = _Grid(f.source, f.level_map(out_level), limit)
    if f.vectorized is not None:
        vals = np.ascontiguousarray(f.vectorized(out_level, grid.res), dtype=np.int64)
        mods = np.array(f.target.space_moduli(out_level), dtype=np.int64)
        if vals.shape != (grid.size, f.target.rank) or (vals < 0).any() or (
            vals >= mods[None, :]
        ).any():
            raise AssertionError(f"{f.name or 'map'}: vectorized table out of range")
        return grid, vals
    vals = np.empty((grid.size, f.target.rank), dtype=np.int64)
    lvl = grid.level
    for i, r in enumerate(grid.rows()):
        vals[i] = f(out_level, PointAtLevel(lvl, r)).residues
    return grid, vals


def _materialize_table(t: CocycleTable, limit: int) -> tuple[_Grid, list[np.ndarray]]:
    grid = _Grid(t.source, t.level, limit)
    out = []
    lvl = grid.level
    for gmap in t.generators:
        vals = np.empty((grid.size, len(t.target_group)), dtype=np.int64)
        for i, r in enumerate(grid.rows()):
            vals[i] = gmap(PointAtLevel(lvl, r)).coords
        out.append(vals)
    return grid, out


def _canonicalize_cols(vals: np.ndarray, group: tuple[int, ...]) -> np.ndarray:
    out = vals.copy()
    for j, m in enumerate(group):
        if m:
            out[:, j] %= m
    return out


def _record(violations: list, items) -> None:
    room = _SAMPLES - len(violations)
    if room > 0:
        violations.extend(items[:room])


def _peak(tables: list[np.ndarray]) -> int:
    """Largest absolute entry, as a Python int."""
    return max((max(-int(t.min()), int(t.max())) for t in tables if t.size), default=0)


def _require_int64(bound: int, name: str) -> None:
    # every sum a check forms is bounded by `bound`; below 2**62 none can wrap
    if bound >= 2**62:
        raise ValueError(f"{name}: cocycle values too large to check exactly")


def _check_equivariance(
    name: str, phi: LCMap, a: CocycleTable, level: int, limit: int
) -> CheckResult:
    """phi(e_i.x) = a(e_i, x).phi(x) at output level `level`, for every
    generator and every point.  Once a satisfies the cocycle relations the
    telescoped sum gives phi(g.x) = a(g, x).phi(x) for every g."""
    src = phi.source
    gphi, PHI = _materialize_lcmap(phi, level, limit)
    ga, AG = _materialize_table(a, limit)
    grid = _Grid(src, max(gphi.level, ga.level), limit)
    to_phi = grid.project_index(gphi)
    to_a = grid.project_index(ga)
    tmods = np.array(phi.target.space_moduli(level), dtype=np.int64)
    phi_x = PHI[to_phi]
    checked = 0
    violations: list = []
    for i in range(src.rank):
        e = generator(src, i).coords
        lhs = PHI[to_phi[grid.translate(e)]]
        rhs = (phi_x + AG[i][to_a] % tmods) % tmods
        checked += grid.size
        bad = np.nonzero((lhs != rhs).any(axis=1))[0]
        _record(violations, [
            (name, e, grid.point(int(x)), tuple(int(v) for v in lhs[x]),
             tuple(int(v) for v in rhs[x]))
            for x in bad[:_SAMPLES]
        ])
    return CheckResult(name, checked, violations)


def _check_roundtrip(
    name: str, phi: LCMap, psi: LCMap, level: int, limit: int
) -> CheckResult:
    src = phi.source
    mid_level = psi.level_map(level)
    gphi, PHI_mid = _materialize_lcmap(phi, mid_level, limit)
    gpsi, PSI = _materialize_lcmap(psi, level, limit)
    out = PSI[PHI_mid @ gpsi.strides]
    # compare on a grid fine enough to pin the level-`level` projection too
    grid = _Grid(src, max(level, gphi.level), limit)
    got = out[grid.project_index(gphi)]
    expect = grid.res % np.array(src.space_moduli(level), dtype=np.int64)[None, :]
    bad = np.nonzero((got != expect).any(axis=1))[0]
    violations = [
        (
            name,
            grid.point(int(i)),
            tuple(int(v) for v in got[i]),
            tuple(int(v) for v in expect[i]),
        )
        for i in bad[:_SAMPLES]
    ]
    return CheckResult(name, grid.size, violations)


def _check_inverse_cocycle(
    name: str, phi: LCMap, a: CocycleTable, b: CocycleTable, limit: int
) -> CheckResult:
    """b(a(e_i, x), phi(x)) = e_i for every generator and every point.

    When a and b satisfy the cocycle relations and phi is equivariant at b's
    level, c(g, x) = b(a(g, x), phi(x)) is itself a cocycle, so c = e_i on
    every generator makes b(a(g, x), phi(x)) = g for every g.

    b at an arbitrary h is read off cyclic prefix sums of b's generator
    tables: on b's grid e_j walks an orbit of length M, and for h_j = q*M + r
    the value b(h_j e_j, y) is q times the orbit sum plus the sum of the
    first r steps, so the cost does not grow with the size of h.
    """
    src = phi.source
    ga, AG = _materialize_table(a, limit)
    gb, BG = _materialize_table(b, limit)
    gphi, PHI_b = _materialize_lcmap(phi, gb.level, limit)
    grid = _Grid(src, max(ga.level, gphi.level), limit)
    to_a = grid.project_index(ga)
    y = PHI_b[grid.project_index(gphi)]  # phi(x) at b's level, as residues
    moduli = [int(m) for m in gb.moduli]
    _require_int64(len(moduli) * (_peak(AG) + 2 * max(moduli)) * _peak(BG), name)
    shape = tuple(moduli) + (len(b.target_group),)
    prefix = []  # prefix[j][..., t, ...]: sum of b_j over t steps of e_j, t < 2M
    for j, vals in enumerate(BG):
        nd = vals.reshape(shape)
        run = np.cumsum(np.concatenate([nd, nd], axis=j), axis=j)
        zero = np.zeros_like(np.take(nd, [0], axis=j))
        prefix.append(np.concatenate([zero, run], axis=j))
    src_group = src.group_moduli()
    checked = 0
    violations: list = []
    for i in range(src.rank):
        h = AG[i][to_a]
        cur = y.copy()
        got = np.zeros((grid.size, len(b.target_group)), dtype=np.int64)
        for j, m in enumerate(moduli):
            q, r = np.divmod(h[:, j], m)
            at = list(cur.T)
            base = prefix[j][tuple(at)]
            at[j] = cur[:, j] + m
            orbit = prefix[j][tuple(at)] - base
            at[j] = cur[:, j] + r
            got += q[:, None] * orbit + prefix[j][tuple(at)] - base
            cur[:, j] = (cur[:, j] + r) % m
        got = _canonicalize_cols(got, b.target_group)
        e = canonical_coords(src_group, generator(src, i).coords)
        checked += grid.size
        bad = np.nonzero((got != np.array(e, dtype=np.int64)[None, :]).any(axis=1))[0]
        _record(violations, [
            (name, e, grid.point(int(x)), tuple(int(v) for v in got[x]))
            for x in bad[:_SAMPLES]
        ])
    return CheckResult(name, checked, violations)


def verify_cocycle_identity(
    a: CocycleTable, level: int = 4, radius: int = 6, point_limit: int = 10**6
) -> VerifyReport:
    """a(g1+g2, x) = a(g1, g2.x) + a(g2, x) for all g1, g2 in the acting group
    and every point, through the group's relations on the cocycle's own
    locality grid.  level and radius are recorded in the report only."""
    check = _identity_check("cocycle-identity", a, point_limit)
    return VerifyReport("cocycle-identity", level, None, [check])


def _identity_check(name: str, a: CocycleTable, limit: int) -> CheckResult:
    """Generator tables f_i extend to one genuine cocycle exactly when the
    acting group's relations hold at every point: f_i(x) + f_j(e_i.x) =
    f_j(x) + f_i(e_j.x) for every pair of generators, and for a cyclic
    factor of order n the values around each e_i-orbit add up to zero.
    The tables are constant on the cylinders of their own locality grid and
    the action permutes those cylinders, so the grid covers every point."""
    grid, AG = _materialize_table(a, limit)
    spec = a.source
    group = spec.group_moduli()
    tg = a.target_group
    _require_int64(_peak(AG) * max(4, *group), name)
    step = [grid.translate(generator(spec, i).coords) for i in range(spec.rank)]
    shape = tuple(int(m) for m in grid.moduli) + (len(tg),)
    checked = 0
    violations: list = []
    for i in range(spec.rank):
        for j in range(i + 1, spec.rank):
            diff = AG[i] + AG[j][step[i]] - AG[j] - AG[i][step[j]]
            checked += grid.size
            bad = np.nonzero(_canonicalize_cols(diff, tg).any(axis=1))[0]
            _record(violations, [
                (name, f"e{i}+e{j} = e{j}+e{i}", grid.point(int(x))) for x in bad[:_SAMPLES]
            ])
        if group[i]:
            # a cyclic factor's grid axis is one whole e_i-orbit; each orbit
            # is reported at its point with residue 0 on that axis
            nd = AG[i].reshape(shape)
            total = np.broadcast_to(nd.sum(axis=i, keepdims=True), nd.shape)
            broken = _canonicalize_cols(total.reshape(-1, len(tg)), tg).any(axis=1)
            checked += grid.size // group[i]
            bad = np.nonzero(broken & (grid.res[:, i] == 0))[0]
            _record(violations, [
                (name, f"{group[i]}*e{i} = 0", grid.point(int(x))) for x in bad[:_SAMPLES]
            ])
    return CheckResult(name, checked, violations)


def verify_coe(
    w: CoeWitness, level: int = 4, radius: int = 6, point_limit: int = 10**6
) -> VerifyReport:
    """Exhaustive soundness check of an orbit-equivalence witness, exact over
    the whole acting group: both cocycles satisfy the group's relations,
    phi and psi are equivariant through them on every generator, the point
    maps are mutually inverse at `level`, and b(a(g, x), phi(x)) = g and
    a(b(h, y), psi(y)) = h on generators.  Each cocycle is thus a bijection
    of the acting groups at every point.  Equivariance is checked at the
    level the inversion checks read the point maps, when that is above
    `level`.  radius is accepted for the callers' budget but no check
    samples a box."""
    checks = [
        _check_equivariance("phi-equivariance", w.phi, w.a, max(level, w.b.level), point_limit),
        _check_equivariance("psi-equivariance", w.psi, w.b, max(level, w.a.level), point_limit),
        _check_roundtrip("psi-after-phi", w.phi, w.psi, level, point_limit),
        _check_roundtrip("phi-after-psi", w.psi, w.phi, level, point_limit),
        _check_inverse_cocycle("b-inverts-a", w.phi, w.a, w.b, point_limit),
        _check_inverse_cocycle("a-inverts-b", w.psi, w.b, w.a, point_limit),
        _identity_check("cocycle-identity-a", w.a, point_limit),
        _identity_check("cocycle-identity-b", w.b, point_limit),
    ]
    return VerifyReport("coe-witness", level, None, checks)


def _check_premise(w: CoeWitness, u: Transfer, rho: GroupIso, limit: int) -> CheckResult:
    """a(e_i, x) = u(e_i.x) + rho(e_i) - u(x) at every point of the grid on
    which a and u are constant.  The right side is a genuine cocycle (rho is
    a homomorphism), so this also makes a one, equal to it on every g."""
    src = w.source
    ga, AG = _materialize_table(w.a, limit)
    gu = _Grid(src, u.level, limit)
    uvals = np.empty((gu.size, len(u.target_group)), dtype=np.int64)
    for i, r in enumerate(gu.rows()):
        uvals[i] = u(PointAtLevel(gu.level, r)).coords
    grid = _Grid(src, max(ga.level, gu.level), limit)
    to_a = grid.project_index(ga)
    to_u = grid.project_index(gu)
    u_x = uvals[to_u]
    checked = 0
    violations: list = []
    for i in range(src.rank):
        e = generator(src, i).coords
        rhs = uvals[to_u[grid.translate(e)]] + np.array(rho.apply(e), dtype=np.int64) - u_x
        diff = _canonicalize_cols(AG[i][to_a] - rhs, w.a.target_group)
        checked += grid.size
        bad = np.nonzero(diff.any(axis=1))[0]
        _record(violations, [("premise", e, grid.point(int(x))) for x in bad[:_SAMPLES]])
    return CheckResult("premise", checked, violations)


def verify_conj(
    w: ConjWitness, level: int = 4, radius: int = 6, point_limit: int = 5 * 10**6
) -> VerifyReport:
    """Exhaustive finite-level check of a conjugacy witness: rho is a group
    isomorphism, phi intertwines the actions through rho at every point of
    the truncation, and phi_inv is a two-sided inverse at the requested
    level.

    Equivariance is tabulated once per acting generator over the whole
    level-`level` grid; the identity for an arbitrary box element is then
    the telescoped sum of verified single-generator identities (the grid is
    closed under the action), provided rho is additive over the box, which
    is checked exactly element by element."""
    checks = [CheckResult("rho-isomorphism", 1, w.rho.defects())]
    for name, phi, hom in (
        ("phi-equivariance", w.phi, w.rho.apply),
        ("phi-inv-equivariance", w.phi_inv, w.rho.apply_inverse),
    ):
        src, tgt = phi.source, phi.target
        gphi, PHI = _materialize_lcmap(phi, level, point_limit)
        tmods = np.array(tgt.space_moduli(level), dtype=np.int64)
        nd = PHI.reshape(tuple(int(m) for m in gphi.moduli) + (PHI.shape[1],))
        checked = 0
        violations: list = []
        for i in range(src.rank):
            # phi(e_i.x) over the whole grid is a cyclic shift of the table
            lhs = np.roll(nd, -1, axis=i)
            step = np.array(hom(generator(src, i).coords), dtype=np.int64)
            rhs = (nd + step) % tmods
            checked += gphi.size
            bad = np.argwhere((lhs != rhs).any(axis=-1))
            if bad.size:
                _record(
                    violations,
                    [
                        (name, generator(src, i).coords,
                         PointAtLevel(gphi.level, tuple(int(v) for v in r)))
                        for r in bad[:_SAMPLES]
                    ],
                )
        cols = np.array(
            [hom(generator(src, i).coords) for i in range(src.rank)], dtype=np.int64
        ).T
        box_bad: list = []
        box_checked = 0
        for g in box_elements(src, radius):
            # telescoping needs hom additive over the box; verify it exactly
            expect = (cols @ np.array(g.coords, dtype=np.int64)) % tmods
            got = np.array(hom(g.coords), dtype=np.int64) % tmods
            box_checked += 1
            if (expect != got).any():
                _record(box_bad, [(name + "-additivity", g.coords)])
        checks.append(CheckResult(name, checked, violations))
        checks.append(CheckResult(name + "-box-additivity", box_checked, box_bad))
    checks.append(_check_roundtrip("inv-after-phi", w.phi, w.phi_inv, level, point_limit))
    checks.append(_check_roundtrip("phi-after-inv", w.phi_inv, w.phi, level, point_limit))
    return VerifyReport("conj-witness", level, radius, checks)


# ---------------------------------------------------------------------------
# locality minimization


def minimized_generator(m: GroupValuedMap, limit: int = 10**6) -> GroupValuedMap:
    """Equivalent map with the least locality level, found exhaustively."""
    if m.level == 0:
        return m
    grid = _Grid(m.source, m.level, limit)
    vals = np.empty((grid.size, len(m.target_group)), dtype=np.int64)
    for i, r in enumerate(grid.rows()):
        vals[i] = m(PointAtLevel(grid.level, r)).coords
    for cand in range(m.level):
        cgrid = _Grid(m.source, cand, limit)
        pidx = grid.project_index(cgrid)
        lo = np.full((cgrid.size, vals.shape[1]), np.iinfo(np.int64).max, dtype=np.int64)
        hi = np.full((cgrid.size, vals.shape[1]), np.iinfo(np.int64).min, dtype=np.int64)
        np.minimum.at(lo, pidx, vals)
        np.maximum.at(hi, pidx, vals)
        if (lo == hi).all():
            table = {r: tuple(int(v) for v in lo[i]) for i, r in enumerate(cgrid.rows())}
            return GroupValuedMap(
                m.source,
                m.target_group,
                cand,
                lambda xp, _t=table: GroupElement(_t[xp.residues]),
                m.name + "|min",
            )
    return m


def minimized_table(t: CocycleTable, limit: int = 10**6) -> CocycleTable:
    return CocycleTable(
        t.source, t.target_group, tuple(minimized_generator(g, limit) for g in t.generators)
    )


def level_slack(m: GroupValuedMap, limit: int = 10**6) -> int:
    """Declared locality level minus the true minimal one."""
    return m.level - minimized_generator(m, limit).level
