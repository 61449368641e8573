"""Box-sweep verifiers for orbit-equivalence and conjugacy witnesses, kept
as test oracles, pointwise cocycle telescoping, the oracle of
`cocycle_reader`, a witness held as plain tables, for tests that edit
single entries, and the pointwise API these need: the action, the tower
projections and one-point evaluators of maps, which the library computes
only on whole grids.

This is the coe verifier as it stood before the exact checks on generators
replaced it: every identity is tested for each group element of the
coordinate box [-radius, radius]^rank (cocycle identities for every pair of
box elements), and injectivity of both cocycles is tested on the box.  It is
slow and only as strong as its radius, but it shares no code path with the
generator checks of the grid oracle (grid_oracle) beyond `_Grid` and the
maps' own evaluators: it tabulates every map with `LCMap.at` and
`GroupValuedMap.at` on grids of its own, and checks the roundtrips
pointwise on such a grid, so the tests require the two verdicts to agree.
Tables hold one row per component; the sweeps here read them as one row
per point, through _materialize_lcmap, _materialize_table and _points, and
keep the pointwise layout of the verifier they preserve.  A map or cocycle
given by pieces, as the library builds them, is read through its table
(grid_oracle.as_table).

box_verify_conj checks a conjugacy, an orbit equivalence whose cocycles
are constant, as it was checked before it was one: each generator table
holds one value (its distinct columns counted in sorted order), rho and rho^-1 are integer
matrices read off those values, each point map's table shifted along a
generator is the table translated by rho(e_i), and rho is additive and
inverted by rho^-1 over the box.  Its checks carry verify_conj's names.

A witness held as plain arrays (witness_tables, witness_from_tables) is
checked on grids like any other, and its entries can be edited one by one.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from grid_oracle import (
    _SAMPLES,
    CocycleTable,
    GroupValuedMap,
    LCMap,
    _Grid,
    _record,
    as_table,
    cylinder_index,
    tabulated,
)
from orbitcert.cocycle import CheckResult, CoeWitness, VerifyReport
from orbitcert.dynamics import (
    PointAtLevel,
    SystemSpec,
    canonical_coords,
    generator,
    point_count,
    require_level,
)


@dataclass(frozen=True)
class GroupElement:
    """An element of a system's acting group, by its coordinates."""

    coords: tuple[int, ...]


def act(spec: SystemSpec, k: int, g: GroupElement, x: PointAtLevel) -> PointAtLevel:
    """Translate the level-k truncation by g, coordinatewise."""
    if x.level != k:
        raise ValueError("point level does not match k")
    mods = spec.space_moduli(k)
    if len(g.coords) != len(mods):
        raise ValueError("group element arity mismatch")
    return PointAtLevel(k, tuple((r + c) % m for r, c, m in zip(x.residues, g.coords, mods)))


def orbit(
    spec: SystemSpec, k: int, x: PointAtLevel, g: GroupElement, steps: int
) -> list[PointAtLevel]:
    out = [x]
    for _ in range(steps):
        out.append(act(spec, k, g, out[-1]))
    return out


def project_to(spec: SystemSpec, x: PointAtLevel, k: int) -> PointAtLevel:
    """Image of x under the tower map onto level k <= x.level."""
    if k > x.level:
        raise ValueError(f"cannot project level {x.level} up to level {k}")
    if k == x.level:
        return x
    mods = spec.space_moduli(k)
    return PointAtLevel(k, tuple(r % m for r, m in zip(x.residues, mods)))


def project(spec: SystemSpec, x: PointAtLevel) -> PointAtLevel:
    if x.level == 0:
        raise ValueError("level 0 has no lower level")
    return project_to(spec, x, x.level - 1)


def image(f: LCMap, k: int, x: PointAtLevel) -> PointAtLevel:
    """f at output level k of one point given at level input_level(k) or finer."""
    f = as_table(f)
    need = f.input_level(k)
    if x.level < need:
        raise ValueError(
            f"{f.name or 'map'}: output level {k} needs input level {need}, got {x.level}"
        )
    col = f.at(k, np.array(x.residues, dtype=np.int64)[:, None])[:, 0]
    return PointAtLevel(k, tuple(int(v) for v in col))


def value(m: GroupValuedMap, x: PointAtLevel) -> GroupElement:
    """m at one point given at m's level or finer."""
    m = as_table(m)
    if x.level < m.level:
        raise ValueError(f"{m.name or 'cocycle'}: needs level {m.level}, got {x.level}")
    col = m.at(np.array(x.residues, dtype=np.int64)[:, None])[:, 0]
    return GroupElement(tuple(int(v) for v in col))


def add_coords(
    group_moduli: tuple[int, ...], a: tuple[int, ...], b: tuple[int, ...]
) -> tuple[int, ...]:
    return canonical_coords(group_moduli, tuple(x + y for x, y in zip(a, b)))


def neg_coords(group_moduli: tuple[int, ...], a: tuple[int, ...]) -> tuple[int, ...]:
    return canonical_coords(group_moduli, tuple(-x for x in a))


def enumerate_points(spec: SystemSpec, k: int, limit: int = 10**6) -> list[PointAtLevel]:
    """All level-k points in lexicographic residue order (first factor most
    significant).  Guarded against accidental blowups."""
    if point_count(spec, k) > limit:
        raise ValueError(f"level-{k} space has more than {limit} points")
    mods = spec.space_moduli(k)
    return [PointAtLevel(k, res) for res in product(*(range(m) for m in mods))]


def _canonical_rows(vals: np.ndarray, group: tuple[int, ...]) -> np.ndarray:
    """vals, one row per point, with cyclic coordinates reduced mod n."""
    out = vals.copy()
    for j, m in enumerate(group):
        if m:
            out[:, j] %= m
    return out


def _points(grid: _Grid) -> np.ndarray:
    """The grid's residues, one row per point."""
    return grid.res.T


def _materialize_lcmap(f: LCMap, out_level: int, limit: int) -> tuple[_Grid, np.ndarray]:
    """f's images at output level out_level of every point of its input grid,
    one row per point."""
    grid = _Grid(f.source, f.input_level(out_level), limit)
    return grid, f.at(out_level, grid.res).T


def _materialize_table(t: CocycleTable, limit: int) -> tuple[_Grid, np.ndarray]:
    """The generator tables stacked over the cocycle's level grid, one row
    per point."""
    grid = _Grid(t.source, t.level, limit)
    return grid, np.stack([g.at(grid.res).T for g in t.generators])


def coarsest_table(spec: SystemSpec, level: int, vals: np.ndarray) -> tuple[int, np.ndarray]:
    """The least level c <= level on whose cylinders vals, a table over the
    level-`level` grid with one row per component, is constant, and the
    table over the level-c grid."""
    res = _Grid(spec, level, vals.shape[1]).res
    for cand in range(level):
        idx = cylinder_index(spec, cand, res)
        rep = np.empty((len(vals), point_count(spec, cand)), dtype=np.int64)
        rep[:, idx] = vals
        if (rep[:, idx] == vals).all():
            return cand, rep
    return level, vals


def locality_slack(m: GroupValuedMap) -> int:
    """Declared locality level of a generator table minus the true minimal one."""
    return m.level - coarsest_table(m.source, m.level, m.values)[0]


def box_elements(spec, radius: int) -> list[GroupElement]:
    """Group elements with every coordinate drawn from [-radius, radius],
    cyclic coordinates canonicalized (so a small cyclic factor is covered
    completely exactly once)."""
    per_factor = []
    for m in spec.group_moduli():
        if m:
            per_factor.append(sorted({c % m for c in range(-radius, radius + 1)}))
        else:
            per_factor.append(list(range(-radius, radius + 1)))
    return [GroupElement(c) for c in product(*per_factor)]


@dataclass
class BoxReport(VerifyReport):
    """A report whose checks sampled the box [-radius, radius]^rank."""

    radius: int = 0

    def summary(self) -> str:
        body = super().summary().split("\n", 1)[1:]
        return "\n".join([f"{self.kind} box sweep at level={self.level}, "
                          f"radius={self.radius}"] + body)


def _steps(c: int, modulus: int) -> int:
    # canonical step count: cyclic coordinates walk forward, Z keeps the sign
    return c % modulus if modulus else c


def extend_cocycle(
    table: CocycleTable,
    g: GroupElement,
    x: PointAtLevel,
    order: Sequence[int] | None = None,
) -> GroupElement:
    """Value on an arbitrary group element, telescoped from generator values
    one unit step at a time.

    a(gh, x) = a(g, h.x) + a(h, x) and a(-e, x) = -a(e, (-e).x); the factor
    processing order is irrelevant for an abelian target (tested), the default
    walks factors left to right.
    """
    table = as_table(table)
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
        ei = GroupElement(generator(spec, i))
        nei = GroupElement(neg_coords(src_mods, ei.coords))
        if steps >= 0:
            for _ in range(steps):
                val = add_coords(table.target_group, val, value(table.generators[i], cur).coords)
                cur = act(spec, cur.level, ei, cur)
        else:
            for _ in range(-steps):
                cur = act(spec, cur.level, nei, cur)
                val = add_coords(
                    table.target_group,
                    val,
                    neg_coords(table.target_group, value(table.generators[i], cur).coords),
                )
    return GroupElement(canonical_coords(table.target_group, val))


def telescope(
    grid: _Grid,
    gen_vals: list[np.ndarray],
    src_group: tuple[int, ...],
    target_group: tuple[int, ...],
    coords: Sequence[int],
    start: np.ndarray | None = None,
) -> np.ndarray:
    """Cocycle extension along the canonical generator path, one unit step
    at a time, from the given grid indices (the whole grid by default)."""
    cur = np.arange(grid.size, dtype=np.int64) if start is None else start.copy()
    val = np.zeros((len(cur), len(target_group)), dtype=np.int64)
    perms: dict[tuple[int, int], np.ndarray] = {}

    def perm(i: int, sign: int) -> np.ndarray:
        key = (i, sign)
        if key not in perms:
            e = [0] * len(src_group)
            e[i] = sign
            perms[key] = grid.translate(e)
        return perms[key]

    for i, c in enumerate(coords):
        steps = _steps(int(c), src_group[i])
        if steps >= 0:
            for _ in range(steps):
                val += gen_vals[i][cur]
                cur = perm(i, +1)[cur]
        else:
            for _ in range(-steps):
                cur = perm(i, -1)[cur]
                val -= gen_vals[i][cur]
    return _canonical_rows(val, target_group)


def box_equivariance(
    name: str, phi: LCMap, a: CocycleTable, level: int, radius: int, limit: int
) -> CheckResult:
    """phi(g.x) = a(g, x).phi(x) for every g in the box."""
    src, tgt = phi.source, phi.target
    gphi, PHI = _materialize_lcmap(phi, level, limit)
    ga, AG = _materialize_table(a, limit)
    grid = _Grid(src, max(gphi.level, ga.level), limit)
    to_phi = grid.project_index(gphi)
    to_a = grid.project_index(ga)
    tmods = np.array(tgt.space_moduli(level), dtype=np.int64)
    src_group = src.group_moduli()
    phi_x = PHI[to_phi]
    checked = 0
    violations: list = []
    for g in box_elements(src, radius):
        gx_res = (_points(grid) + np.array(g.coords, dtype=np.int64)[None, :]) \
            % grid.moduli[None, :]
        lhs = PHI[np.ravel_multi_index((gx_res % gphi.moduli[None, :]).T, gphi.moduli)]
        aval = telescope(ga, AG, src_group, a.target_group, g.coords)[to_a]
        rhs = (phi_x + aval) % tmods[None, :]
        checked += grid.size
        bad = np.nonzero((lhs != rhs).any(axis=1))[0]
        _record(violations, [(name, g.coords, grid.point(int(i))) for i in bad[:_SAMPLES]])
    return CheckResult(name, checked, violations)


def _pack_rows(rows: np.ndarray, lo: np.ndarray, mult: np.ndarray) -> np.ndarray:
    return (rows - lo[None, :]) @ mult


def box_inverse_cocycle(
    name: str, phi: LCMap, a: CocycleTable, b: CocycleTable, radius: int, limit: int
) -> CheckResult:
    """b(a(g, x), phi(x)) = g for every g in the box; b is tabulated once per
    group element that occurs as a value of a."""
    src, tgt = phi.source, phi.target
    ga, AG = _materialize_table(a, limit)
    gb, BG = _materialize_table(b, limit)
    gphi, PHI_b = _materialize_lcmap(phi, gb.level, limit)
    grid = _Grid(src, max(ga.level, gphi.level), limit)
    to_a = grid.project_index(ga)
    y_small = np.ravel_multi_index(PHI_b[grid.project_index(gphi)].T, gb.moduli)
    src_group = src.group_moduli()
    tgt_group = tgt.group_moduli()
    box = box_elements(src, radius)
    avals = [telescope(ga, AG, src_group, a.target_group, g.coords)[to_a] for g in box]
    allh = np.unique(np.concatenate(avals, axis=0), axis=0)
    table = np.stack(
        [telescope(gb, BG, tgt_group, b.target_group, tuple(int(v) for v in h)) for h in allh]
    )
    lo = allh.min(axis=0)
    span = allh.max(axis=0) - lo + 1
    mult = np.ones(len(span), dtype=np.int64)
    for j in range(len(span) - 2, -1, -1):
        mult[j] = mult[j + 1] * int(span[j + 1])
    hkeys = _pack_rows(allh, lo, mult)  # ascending: unique sorts rows lexicographically
    checked = 0
    violations: list = []
    for g, aval in zip(box, avals):
        expect = np.array(canonical_coords(src_group, g.coords), dtype=np.int64)
        got = table[np.searchsorted(hkeys, _pack_rows(aval, lo, mult)), y_small]
        checked += grid.size
        bad = np.nonzero((got != expect[None, :]).any(axis=1))[0]
        _record(violations, [(name, g.coords, grid.point(int(i))) for i in bad[:_SAMPLES]])
    return CheckResult(name, checked, violations)


def box_injectivity(name: str, a: CocycleTable, radius: int, limit: int) -> CheckResult:
    """g -> a(g, x) is injective on the box for every point x."""
    ga, AG = _materialize_table(a, limit)
    src_group = a.source.group_moduli()
    box = box_elements(a.source, radius)
    stack = np.stack(
        [telescope(ga, AG, src_group, a.target_group, g.coords) for g in box]
    )  # (|box|, n, dim)
    lo = stack.min(axis=(0, 1))
    span = stack.max(axis=(0, 1)) - lo + 1
    keys = np.zeros(stack.shape[:2], dtype=np.int64)
    mult = 1
    for j in range(stack.shape[2] - 1, -1, -1):
        keys += (stack[:, :, j] - lo[j]) * mult
        mult *= int(span[j])
    srt = np.sort(keys, axis=0)
    dup_cols = np.nonzero((np.diff(srt, axis=0) == 0).any(axis=0))[0]
    violations: list = []
    for x in dup_cols[:_SAMPLES]:
        seen: dict = {}
        for gi, g in enumerate(box):
            key = tuple(int(v) for v in stack[gi, int(x)])
            if key in seen:
                violations.append((name, ga.point(int(x)), seen[key], g.coords, key))
                break
            seen[key] = g.coords
    return CheckResult(name, len(box) * ga.size, violations)


def box_identity(name: str, a: CocycleTable, radius: int, limit: int) -> CheckResult:
    """a(g1 + g2, x) = a(g1, g2.x) + a(g2, x) for every pair from the box."""
    grid, AG = _materialize_table(a, limit)
    src_group = a.source.group_moduli()
    tg = a.target_group
    sums = {
        g.coords: telescope(grid, AG, src_group, tg, g.coords)
        for g in box_elements(a.source, 2 * radius)
    }
    box = box_elements(a.source, radius)
    checked = 0
    violations: list = []
    for g2 in box:
        p2 = grid.translate(g2.coords)
        for g1 in box:
            lhs = sums[add_coords(src_group, g1.coords, g2.coords)]
            rhs = _canonical_rows(sums[g1.coords][p2] + sums[g2.coords], tg)
            checked += grid.size
            bad = np.nonzero((lhs != rhs).any(axis=1))[0]
            _record(violations, [(name, g1.coords, g2.coords, grid.point(int(i)))
                                 for i in bad[:_SAMPLES]])
    return CheckResult(name, checked, violations)


def box_roundtrip(name: str, phi: LCMap, psi: LCMap, level: int, limit: int) -> CheckResult:
    """psi(phi(x)) = x at level `level` for every point x of the grid that
    pins both phi's input and the level-`level` projection."""
    src = phi.source
    mid_level = psi.input_level(level)
    grid = _Grid(src, max(level, phi.input_level(mid_level)), limit)
    got = psi.at(level, phi.at(mid_level, grid.res)).T
    expect = _points(grid) % np.array(src.space_moduli(level), dtype=np.int64)[None, :]
    bad = np.nonzero((got != expect).any(axis=1))[0]
    return CheckResult(name, grid.size, [
        (name, grid.point(int(i)), tuple(int(v) for v in got[i]),
         tuple(int(v) for v in expect[i]))
        for i in bad[:_SAMPLES]
    ])


def box_verify_coe(
    w: CoeWitness, level: int = 4, radius: int = 6, point_limit: int = 10**6
) -> VerifyReport:
    """The box-sweep verdict on a coe witness at (level, radius)."""
    w = tabulated(w)
    checks = [
        box_equivariance("phi-equivariance", w.phi, w.a, level, radius, point_limit),
        box_equivariance("psi-equivariance", w.psi, w.b, level, radius, point_limit),
        box_roundtrip("psi-after-phi", w.phi, w.psi, level, point_limit),
        box_roundtrip("phi-after-psi", w.psi, w.phi, level, point_limit),
        box_inverse_cocycle("b-inverts-a", w.phi, w.a, w.b, radius, point_limit),
        box_identity("cocycle-identity-a", w.a, radius, point_limit),
        box_identity("cocycle-identity-b", w.b, radius, point_limit),
        box_injectivity("injectivity-a", w.a, radius, point_limit),
        box_injectivity("injectivity-b", w.b, radius, point_limit),
    ]
    return BoxReport("coe-witness", level, checks, radius)


def _shift_equivariance(name: str, phi: LCMap, hom: np.ndarray, level: int,
                        limit: int) -> CheckResult:
    """phi(e_i.x) = rho(e_i).phi(x), rho(e_i) the i-th row of hom: the
    table shifted along axis i against the table plus a constant."""
    src, tgt = phi.source, phi.target
    gphi, PHI = _materialize_lcmap(phi, level, limit)
    tmods = np.array(tgt.space_moduli(level), dtype=np.int64)
    nd = PHI.reshape(tuple(int(m) for m in gphi.moduli) + (PHI.shape[1],))
    checked = 0
    violations: list = []
    for i in range(src.rank):
        lhs = np.roll(nd, -1, axis=i)
        rhs = (nd + hom[i]) % tmods
        checked += gphi.size
        bad = np.argwhere((lhs != rhs).any(axis=-1))
        _record(violations, [
            (name, generator(src, i), PointAtLevel(gphi.level, tuple(int(v) for v in r)))
            for r in bad[:_SAMPLES]
        ])
    return CheckResult(name, checked, violations)


def _box_array(spec: SystemSpec, radius: int) -> np.ndarray:
    return np.array([g.coords for g in box_elements(spec, radius)], dtype=np.int64)


def _box_inverse(name: str, hom: np.ndarray, inv: np.ndarray, spec: SystemSpec,
                 target_group: tuple[int, ...], radius: int) -> CheckResult:
    """rho^-1(rho(g)) = g for every g in the box."""
    g = _box_array(spec, radius)
    back = _canonical_rows(_canonical_rows(g @ hom, target_group) @ inv, spec.group_moduli())
    bad = np.nonzero((back != g).any(axis=1))[0]
    return CheckResult(name, len(g), [(name, tuple(int(v) for v in g[i])) for i in bad[:_SAMPLES]])


def _box_additivity(name: str, hom: np.ndarray, spec: SystemSpec,
                    target_group: tuple[int, ...], radius: int) -> CheckResult:
    """rho(g1 + g2) = rho(g1) + rho(g2) for every pair from the box, the sum
    taken in the acting group; a wrap of a cyclic coordinate tests that rho
    kills the factor's order."""
    g = _box_array(spec, radius)
    n = len(g)
    total = _canonical_rows((g[:, None, :] + g[None, :, :]).reshape(n * n, -1),
                            spec.group_moduli())
    img = g @ hom
    lhs = _canonical_rows(total @ hom, target_group)
    rhs = _canonical_rows((img[:, None, :] + img[None, :, :]).reshape(n * n, -1),
                          target_group)
    bad = np.nonzero((lhs != rhs).any(axis=1))[0]
    return CheckResult(name, n * n, [
        (name, tuple(int(v) for v in g[i // n]), tuple(int(v) for v in g[i % n]))
        for i in bad[:_SAMPLES]
    ])


def _distinct_columns(vals: np.ndarray) -> int:
    """How many distinct columns a table of one row per component holds,
    read off its columns in lexicographic order."""
    cols = vals[:, np.lexsort(vals)]
    return 1 + int((cols[:, 1:] != cols[:, :-1]).any(axis=0).sum())


def box_verify_conj(
    w: CoeWitness, level: int = 4, radius: int = 6, point_limit: int = 5 * 10**6
) -> BoxReport:
    """The box verdict on a conjugacy witness at (level, radius).  Every
    check after homomorphism reads rho and rho^-1 off the first row of each
    generator table, so it means something only when homomorphism passes."""
    w = tabulated(w)
    require_level(w.source, level, point_limit)
    require_level(w.target, level, point_limit)
    src, tgt = w.source, w.target
    tables = [(f"{tag}(e{i}, x)", g) for tag, t in (("a", w.a), ("b", w.b))
              for i, g in enumerate(t.generators)]
    split = [(label, _distinct_columns(g.values)) for label, g in tables]
    homomorphism = CheckResult(
        "homomorphism", sum(g.values.shape[1] for _, g in tables),
        [("homomorphism", label, f"{k} distinct values") for label, k in split if k > 1])
    hom = np.stack([g.values[:, 0] for g in w.a.generators])  # row i is rho(e_i)
    inv = np.stack([g.values[:, 0] for g in w.b.generators])
    checks = [
        homomorphism,
        _shift_equivariance("phi-equivariance", w.phi, hom, max(level, w.b.level), point_limit),
        _shift_equivariance("psi-equivariance", w.psi, inv, max(level, w.a.level), point_limit),
        box_roundtrip("psi-after-phi", w.phi, w.psi, level, point_limit),
        box_roundtrip("phi-after-psi", w.psi, w.phi, level, point_limit),
        _box_inverse("b-inverts-a", hom, inv, src, tgt.group_moduli(), radius),
        _box_inverse("a-inverts-b", inv, hom, tgt, src.group_moduli(), radius),
        _box_additivity("cocycle-identity-a", hom, src, tgt.group_moduli(), radius),
        _box_additivity("cocycle-identity-b", inv, tgt, src.group_moduli(), radius),
    ]
    return BoxReport("conj-witness", level, checks, radius)


# ---------------------------------------------------------------------------
# a witness as plain tables


def witness_tables(w: CoeWitness, level: int, limit: int = 10**6) -> dict:
    """The tables the coe verifier reads at `level`, one row per component
    as the library stores them: each point map at the highest output level
    a check reads it (its own equivariance level, the other cocycle's level
    and the level the other map's roundtrip feeds it), and each cocycle's
    generators over its locality grid."""
    w = tabulated(w)
    kf = max(level, w.b.level, w.psi.input_level(level))
    kb = max(level, w.a.level, w.phi.input_level(level))
    out = {"source": w.source, "target": w.target}
    for key, f, k in (("phi", w.phi, kf), ("psi", w.psi, kb)):
        grid = _Grid(f.source, f.input_level(k), limit)
        out[key] = {"in_level": grid.level, "out_level": k, "table": f.at(k, grid.res)}
    for key, t in (("a", w.a), ("b", w.b)):
        grid = _Grid(t.source, t.level, limit)
        out[key] = {"level": t.level, "target_group": t.target_group,
                    "generators": [g.at(grid.res) for g in t.generators]}
    return out


def _table_map(block: dict, src, tgt, name: str) -> LCMap:
    """The tabulated map; at each output level up to the tabulated one it
    reads the least input level on whose cylinders its values are constant."""
    in_level, out_cap, arr = block["in_level"], block["out_level"], block["table"]
    coarse: dict[int, tuple[int, np.ndarray]] = {}

    def fit(k: int) -> tuple[int, np.ndarray]:
        assert k <= out_cap, f"{name}: tabulated up to level {out_cap}, read at {k}"
        if k not in coarse:
            mods = np.array(tgt.space_moduli(k), dtype=np.int64)
            coarse[k] = coarsest_table(src, in_level, arr % mods[:, None])
        return coarse[k]

    def table(k: int, res: np.ndarray) -> np.ndarray:
        level, vals = fit(k)
        return vals[:, cylinder_index(src, level, res)]

    return LCMap(src, tgt, lambda k: fit(k)[0], table, name)


def _table_cocycle(block: dict, src, name: str) -> CocycleTable:
    tg = tuple(block["target_group"])
    return CocycleTable(src, tg, tuple(
        GroupValuedMap(src, tg, block["level"], g, f"{name}[{i}]")
        for i, g in enumerate(block["generators"])
    ))


def witness_from_tables(tables: dict) -> CoeWitness:
    src, tgt = tables["source"], tables["target"]
    return CoeWitness(
        _table_map(tables["phi"], src, tgt, "phi"),
        _table_cocycle(tables["a"], src, "a"),
        _table_map(tables["psi"], tgt, src, "psi"),
        _table_cocycle(tables["b"], tgt, "b"),
    )
