"""Locally constant maps, orbit cocycles, and exhaustive finite-level checks.

A locally constant map is, at each truncation level, a finite table.  A map
between inverse towers carries a level map: its output at level k depends
only on the input's level level_map(k) projection, and its one evaluator
turns a whole array of such inputs into the int64 array of outputs.  A
group-valued map is stored as its int64 table at its locality level.  Point
evaluation is a lookup, composition a gather.

Every grid-wide array is component-major: an int64 array of shape
(components, points), one row per factor or group coordinate, so a grid's
residues, a point map's inputs and images and a group-valued map's values
all have one row per component.  Each pass over a grid reads one row
against one scalar modulus, so its temporaries are single rows; a
point-major (points, components) table would instead broadcast a short row
of moduli across every point and build temporaries the size of the table.

A cocycle is stored by its values on the acting group's standard generators.
On Z^a x prod Z/n_i such tables extend to a genuine cocycle exactly when the
group's relations hold at every point (generators commute; the values around
an orbit of a cyclic generator add up to zero), so the orbit-equivalence
checks test each identity on generators only and hold for every element of
the acting group, not for a sampled box.  A conjugacy is the orbit
equivalence whose cocycles do not depend on the point, a(g, x) = rho(g) for
a group isomorphism rho; verify_conj checks that and then the coe checks.
One verification builds each grid, each point-map table and each cocycle's
stacked generator tables once, in a memo it drops when it returns.  A
cocycle that does not depend on the point is given by its columns, and its
tables are derived only when a grid check reads them.  A linear part,
point maps given by matrices and cocycles by their columns
(orbitcert.linear), is checked by integer conditions on those, on no grid.

Chains of such witnesses, checked stage by stage, are in orbitcert.chain; a
conjugacy is one stage of block conjugacies, each checked by verify_conj.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .dynamics import (
    PointAtLevel,
    SystemSpec,
    canonical_coords,
    generator,
    point_count,
    require_level,
)
from .linear import linear_checks, linear_image, linear_table, matrices

_SAMPLES = 5  # violations kept per check

# the verifiers' point limits, by the relation a witness is checked for
POINT_LIMITS = {"coe": 10**6, "conj": 5 * 10**6}
# numpy's limit on an array's axes; the grid checks reshape a grid into two
# axes per factor.  A linear part builds no array, but keeps the bound its
# stacked level-0 tables once set, one axis per factor and one more, so that
# the ranks refused do not move
_AXES = 64


def flat_index(rows, moduli: Sequence[int]) -> np.ndarray:
    """Mixed-radix index, the first factor most significant, of points given
    by one row of in-range residues per factor (any iterable of rows)."""
    idx = None
    for row, m in zip(rows, moduli):
        if idx is None:
            idx = np.array(row, dtype=np.int64)
        else:
            idx *= m
            idx += row
    return idx


def cylinder_index(spec: SystemSpec, level: int, res: np.ndarray) -> np.ndarray:
    """Index in the level-`level` grid of the cylinder holding each point of
    res, residues at that level or finer."""
    mods = spec.space_moduli(level)
    return flat_index((row % m for row, m in zip(res, mods)), mods)


@dataclass(frozen=True, eq=False)
class LCMap:
    """Locally constant map between systems, evaluable at every level.

    table(k, res) receives the residues of points at exactly level
    level_map(k), one row per source factor, and returns the int64 array of
    their images at level k, one row per target factor.  Rows, not points,
    are the leading axis so that every pass over a table reads one factor
    against its scalar modulus (module docstring).  A linear map is given
    by its integer matrix rho instead, rho[i] the image of e_i, and its
    table is derived from rho (orbitcert.linear); a map has one or the other.
    """

    source: SystemSpec
    target: SystemSpec
    level_map: Callable[[int], int]
    table: Callable[[int, np.ndarray], np.ndarray] | None = None
    name: str = ""
    _levels: dict = field(default_factory=dict, repr=False)
    rho: tuple | None = None

    def __post_init__(self):
        if self.rho is not None or self.table is None:
            object.__setattr__(self, "table", linear_table(self))

    def input_level(self, k: int) -> int:
        """level_map(k), memoized (level maps can be deep compositions)."""
        got = self._levels.get(k)
        if got is None:
            got = self._levels[k] = self.level_map(k)
        return got

    def at(self, k: int, res: np.ndarray) -> np.ndarray:
        """Images at level k of points given at level input_level(k) or finer."""
        need = self.input_level(k)
        mods = np.array(self.source.space_moduli(need), dtype=np.int64)
        return _in_range(self, k, self.table(k, res % mods[:, None]), res.shape[1])


def _in_range(f: LCMap, k: int, vals: np.ndarray, n: int) -> np.ndarray:
    vals = np.asarray(vals, dtype=np.int64)
    mods = f.target.space_moduli(k)
    if vals.shape != (len(mods), n) or (vals.min(axis=1) < 0).any() \
            or (vals.max(axis=1) >= mods).any():
        raise AssertionError(f"{f.name or 'map'}: table out of range")
    return vals


@dataclass(frozen=True, eq=False)
class GroupValuedMap:
    """Locally constant map from a system into an abelian group given by a
    moduli descriptor (n for Z/n, 0 for Z).  level is the locality level:
    values[:, i] is the value on the i-th cylinder of the level-`level`
    grid, stored canonically (cyclic coordinates reduced mod n).  values
    has one row per group coordinate, like every table (module docstring)."""

    source: SystemSpec
    target_group: tuple[int, ...]
    level: int
    values: np.ndarray
    name: str = ""

    def __post_init__(self):
        shape = (len(self.target_group), point_count(self.source, self.level))
        vals = np.asarray(self.values, dtype=np.int64)
        if vals.shape != shape:
            raise ValueError(f"{self.name or 'group-valued map'}: values of shape {vals.shape}, "
                             f"expected {shape}, one row per group coordinate")
        vals = _canonical(vals, self.target_group)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def tabulate(cls, source: SystemSpec, target_group: tuple[int, ...], level: int,
                 fn: Callable[[np.ndarray], np.ndarray], name: str = "") -> "GroupValuedMap":
        """The map whose values on the level-`level` grid residues are fn(res)."""
        return cls(source, target_group, level, fn(_Grid(source, level).res), name)

    def at(self, res: np.ndarray) -> np.ndarray:
        """Values at points given by residues at level `level` or finer."""
        return self.values[:, cylinder_index(self.source, self.level, res)]


@dataclass(frozen=True, eq=False)
class CocycleTable:
    """Cocycle values on the acting group's standard generators; everything
    else is produced by the cocycle identity (the target is abelian).

    A cocycle is given by its generator tables, or, when it does not depend
    on the point, a(e_i, x) = rho(e_i), by its columns rho(e_i), stored
    canonical in the target group.  A column-given cocycle's generators,
    constant level-0 tables, are derived only when a grid check reads them,
    as a linear map's table is derived from its matrix; a cocycle given
    both, or neither, is refused."""

    source: SystemSpec
    target_group: tuple[int, ...]
    tables: tuple[GroupValuedMap, ...] | None = None
    columns: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.tables is None and self.columns is None:
            raise ValueError("a cocycle's tables or its columns are required")
        if self.columns is not None:
            if self.tables is not None:
                raise ValueError("a cocycle given by its columns has its tables derived")
            cols = tuple(tuple(int(v) for v in col) for col in self.columns)
            if len(cols) != self.source.rank or any(
                    len(col) != len(self.target_group) for col in cols):
                raise ValueError(f"one column of {len(self.target_group)} entries per "
                                 f"source factor is required, {self.source.rank} in all")
            object.__setattr__(self, "columns", tuple(
                canonical_coords(self.target_group, col) for col in cols))
            return
        if len(self.tables) != self.source.rank:
            raise ValueError("one generator map per source factor is required")
        for gmap in self.tables:
            if gmap.target_group != self.target_group:
                raise ValueError("generator target group mismatch")
            if gmap.source != self.source:
                raise ValueError("generator source mismatch")

    @cached_property
    def generators(self) -> tuple[GroupValuedMap, ...]:
        """The generator tables, derived from the columns when given so."""
        if self.columns is None:
            return self.tables
        return tuple(constant_generator(self.source, self.target_group, col, f"hom[{i}]")
                     for i, col in enumerate(self.columns))

    @property
    def level(self) -> int:
        """The locality level; 0 for a column-given cocycle."""
        return max((g.level for g in self.tables or ()), default=0)


def cocycle_reader(b: CocycleTable, limit: int = POINT_LIMITS["coe"]):
    """read(h, y) = b(h, y) for arrays of group elements h and of points y
    given by residues at b's level, one pair per column: h has one row per
    coordinate of b's acting group, y one per factor, and so has the value.

    The factors of h are walked left to right.  On b's grid e_j walks an
    orbit of length M, and for h_j = q*M + r the value b(h_j e_j, y) is q
    times the orbit sum plus the sum of the first r steps, both read off
    cyclic prefix sums of b's generator tables, so the cost does not grow
    with the size of h.  Cyclic coordinates of h are reduced mod their order.
    """
    return _reader(b, *_Tables(limit).cocycle(b))


def _reader(b: CocycleTable, gb: "_Grid", BG: np.ndarray):
    """cocycle_reader over b's generator tables BG, stacked over grid gb."""
    moduli = [int(m) for m in gb.moduli]
    group = b.source.group_moduli()
    dim = len(b.target_group)
    # prefix[j][c] holds, at grid point y with axis j extended to t < 2M, the
    # c-th coordinate of the sum of b_j over t steps of e_j from y, flat-indexed
    # in the extended grid of shape shapes[j]
    prefix, shapes = [], []
    for j, vals in enumerate(BG):
        nd = vals.reshape([dim] + moduli)
        run = np.cumsum(np.concatenate([nd, nd], axis=1 + j), axis=1 + j)
        zero = np.zeros_like(np.take(nd, [0], axis=1 + j))
        full = np.concatenate([zero, run], axis=1 + j)
        prefix.append(full.reshape(dim, -1))
        shapes.append(full.shape[1:])
    peak = _peak(BG)

    def read(h: np.ndarray, y: np.ndarray, name: str = "cocycle") -> np.ndarray:
        h = _canonical(h, group)
        _require_int64(len(moduli) * (_peak([h]) + 2 * max(moduli)) * peak, name)
        cur = np.array(y, dtype=np.int64)
        got = np.zeros((dim, cur.shape[1]), dtype=np.int64)
        for j, m in enumerate(moduli):
            if not h[j].any():
                continue  # no steps along e_j
            q, r = np.divmod(h[j], m)
            step = math.prod(shapes[j][j + 1:])
            at = flat_index(cur, shapes[j])
            at_r = at + r * step
            for pc, out in zip(prefix[j], got):
                base = pc[at]
                out += q * (pc[at + m * step] - base) + pc[at_r] - base
            cur[j] += r
            cur[j] %= m
        return _canonical(got, b.target_group)

    return read


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


def constant_generator(
    spec: SystemSpec, target_group: tuple[int, ...], coords: tuple[int, ...], name: str = ""
) -> GroupValuedMap:
    col = np.array(coords, dtype=np.int64)[:, None]
    return GroupValuedMap(spec, target_group, 0, np.repeat(col, point_count(spec, 0), 1), name)


def homomorphism_cocycle(spec: SystemSpec, iso_columns: list[tuple[int, ...]],
                         target_group: tuple[int, ...]) -> CocycleTable:
    """a(g, x) = rho(g) for the homomorphism with columns rho(e_i), given
    by those columns.  A conjugacy is the orbit equivalence whose two
    cocycles are of this form, for rho and rho^-1."""
    return CocycleTable(spec, target_group, columns=iso_columns)


def inverse_coe(w: CoeWitness) -> CoeWitness:
    return CoeWitness(w.psi, w.b, w.phi, w.a)


# ---------------------------------------------------------------------------
# cohomology


def twist(a: CocycleTable, u: GroupValuedMap) -> CocycleTable:
    """Cohomologous cocycle a'(g, x) = u(g.x) + a(g, x) - u(x)."""
    if u.source != a.source or u.target_group != a.target_group:
        raise ValueError("transfer shape mismatch")
    spec = a.source
    gens = []
    for i, g in enumerate(a.generators):
        grid = _Grid(spec, max(g.level, u.level))
        u_x = u.at(grid.res)
        vals = u_x[:, grid.translate(generator(spec, i))] + g.at(grid.res) - u_x
        gens.append(GroupValuedMap(spec, a.target_group, grid.level, vals, f"twist[{i}]"))
    return CocycleTable(spec, a.target_group, tuple(gens))


def slide(w: CoeWitness, u: GroupValuedMap, rho_inv) -> tuple[LCMap, LCMap]:
    """w's point maps slid by the transfer u, a map into the target's acting
    group: phi'(x) = phi(x) - u(x) and psi'(y) = psi(y) + rho^-1(u(psi(y))),
    where rho_inv[j], a row of integers, is rho^-1(e_j).  Slid by -u, a
    conjugacy's phi is equivariant through twist(rho, u), and psi' inverts
    it wherever u(psi'(y)) = u(psi(y)); untwist_to_conjugacy slides back
    by u."""
    x, y = w.source, w.target

    def phi_table(k: int, res: np.ndarray) -> np.ndarray:
        out = w.phi.at(k, res) - u.at(res)
        return out % np.array(y.space_moduli(k), dtype=np.int64)[:, None]

    def psi_table(k: int, res: np.ndarray) -> np.ndarray:
        out = w.psi.at(k, res) + linear_image(rho_inv, u.at(w.psi.at(u.level, res)))
        return out % np.array(x.space_moduli(k), dtype=np.int64)[:, None]

    return (LCMap(x, y, lambda k: max(w.phi.input_level(k), u.level), phi_table, "slid-phi"),
            LCMap(y, x, lambda k: max(w.psi.input_level(k), w.psi.input_level(u.level)),
                  psi_table, "slid-psi"))


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
    tables as its cocycles, so its own homomorphism, cocycle-identity and
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
    phi, psi = slide(w, u, np.stack([g.values[:, 0] for g in rho_b.generators]))
    out = CoeWitness(phi, rho_a, psi, rho_b)
    require_level(w.source, level, point_limit)
    require_level(w.target, level, point_limit)
    # the output and the input are checked over the same x and y grids
    tables = _Tables(point_limit)
    rho_checks = [_homomorphism_check(out)] + _cocycle_checks(out, tables)
    bad = [c for c in rho_checks if not c.ok]
    if bad:
        raise ValueError("rho is not a group isomorphism: "
                         + "; ".join(f"{c.name} {c.violations}" for c in bad))

    expect = twist(rho_a, u)
    grid = tables.grid(w.source, max(w.a.level, expect.level))
    violations: list = []
    for i, (got, want) in enumerate(zip(w.a.generators, expect.generators)):
        miss = _mismatched_points(zip(got.at(grid.res), want.at(grid.res)))
        _record(violations, [("premise", generator(w.source, i), grid.point(int(p)))
                             for p in miss[:_SAMPLES]])
    if violations:
        raise ValueError(
            "premise fails: the cocycle is not cohomologous to rho via u; "
            f"counterexamples {violations}"
        )
    for dep in _coe_checks(w, level, tables):
        if not dep.ok:
            raise ValueError(
                f"premise fails: the input is not a valid witness at this scale "
                f"({dep.name}); counterexamples {dep.violations}"
            )
    checks = rho_checks[:1] + _map_checks(out, level, tables) + rho_checks[1:]
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
            status = "ok" if c.ok else "FAIL"
            lines.append(f"  [{status}] {c.name}: {c.checked} comparisons")
            for v in c.violations[:_SAMPLES]:
                lines.append(f"         counterexample: {v}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# finite grids


def _require_points(spec: SystemSpec, level: int, limit: int) -> int:
    n = point_count(spec, level)
    if n > limit:
        raise ValueError(f"level-{level} grid would hold {n} points (limit {limit})")
    return n


class _Grid:
    """Numpy-indexed enumeration of one truncation level, lexicographic, the
    first factor most significant.  res holds every point's residues, one
    row per factor."""

    def __init__(self, spec: SystemSpec, level: int, limit: int = POINT_LIMITS["coe"]):
        self.spec = spec
        self.level = level
        self.size = _require_points(spec, level, limit)
        mods = spec.space_moduli(level)
        self.moduli = np.array(mods, dtype=np.int64)
        self.res = np.indices(mods, dtype=np.int64).reshape(spec.rank, -1)

    def point(self, i: int) -> PointAtLevel:
        res = tuple(int(r) for r in np.unravel_index(i, self.moduli))
        return PointAtLevel(self.level, res)

    def translate(self, coords: Sequence[int]) -> np.ndarray:
        """Index array of x + coords over the whole grid."""
        return flat_index(((row + c) % m if c % m else row
                           for row, c, m in zip(self.res, coords, self.moduli)), self.moduli)

    def project_index(self, other: "_Grid") -> np.ndarray | slice:
        """For each point here, the index of its projection in a coarser grid
        of the same system; a full slice when the two grids coincide."""
        if other.level > self.level:
            raise ValueError("projection must go to a coarser grid")
        if np.array_equal(other.moduli, self.moduli):
            return slice(None)
        return cylinder_index(self.spec, other.level, self.res)


class _Tables:
    """What one verification reads, each built once: a grid per (system,
    level), a point map's table per output level over its input grid, and a
    cocycle's generator tables stacked over its level grid.  It lives only
    as long as the verification that made it."""

    def __init__(self, limit: int):
        self.limit = limit
        self._memo: dict = {}

    def _get(self, key, build):
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = build()
        return got

    def grid(self, spec: SystemSpec, level: int) -> _Grid:
        return self._get(("grid", spec, level), lambda: _Grid(spec, level, self.limit))

    def lcmap(self, f: LCMap, out_level: int) -> tuple[_Grid, np.ndarray]:
        def build():
            grid = self.grid(f.source, f.input_level(out_level))
            return grid, _in_range(f, out_level, f.table(out_level, grid.res), grid.size)

        return self._get(("map", f, out_level), build)

    def cocycle(self, t: CocycleTable) -> tuple[_Grid, np.ndarray]:
        """The grid at t's level and the generator tables stacked over it:
        entry [i, c, x] is coordinate c of t(e_i, x)."""
        def build():
            grid = self.grid(t.source, t.level)
            return grid, np.stack([g.at(grid.res) for g in t.generators])

        return self._get(("cocycle", t), build)


def _canonical(vals: np.ndarray, group: tuple[int, ...]) -> np.ndarray:
    """A copy of vals, one row per group coordinate, with the cyclic rows
    reduced mod their order."""
    out = vals.copy()
    for row, m in zip(out, group):
        if m:
            row %= m
    return out


def _record(violations: list, items) -> None:
    room = _SAMPLES - len(violations)
    if room > 0:
        violations.extend(items[:room])


def _mismatched_points(pairs) -> np.ndarray:
    """Indices of the points at which some pair (lhs, rhs) of component rows
    differs; rhs may be a scalar.  Rows are compared one at a time, and only
    the rows that differ are merged."""
    bad = None
    for lhs, rhs in pairs:
        ne = lhs != rhs
        del lhs, rhs  # a row built for this comparison goes before the next is built
        if ne.any():
            bad = ne if bad is None else np.logical_or(bad, ne, out=bad)
    return np.zeros(0, dtype=np.intp) if bad is None else np.flatnonzero(bad)


def _peak(tables: list[np.ndarray]) -> int:
    """Largest absolute entry, as a Python int."""
    return max((max(-int(t.min()), int(t.max())) for t in tables if t.size), default=0)


def _require_int64(bound: int, name: str) -> None:
    # every sum a check forms is bounded by `bound`; below 2**62 none can wrap
    if bound >= 2**62:
        raise ValueError(f"{name}: cocycle values too large to check exactly")


def _shift_difference(nd: np.ndarray, axis: int, d: np.ndarray) -> np.ndarray:
    """nd(x + e_axis) - nd(x) at every x, cyclically along axis, written
    into d from two slices of nd, without a shifted copy."""
    head = (slice(None),) * axis
    first, rest, init, last = (head + (s,) for s in (
        slice(0, 1), slice(1, None), slice(None, -1), slice(-1, None)))
    np.subtract(nd[rest], nd[init], out=d[init])
    np.subtract(nd[first], nd[last], out=d[last])
    return d


def _check_equivariance(
    name: str, phi: LCMap, a: CocycleTable, level: int, t: _Tables
) -> CheckResult:
    """phi(e_i.x) = a(e_i, x).phi(x) at output level `level`, for every
    generator and every point.  Once a satisfies the cocycle relations the
    telescoped sum gives phi(g.x) = a(g, x).phi(x) for every g."""
    src = phi.source
    gphi, PHI = t.lcmap(phi, level)
    ga, AG = t.cocycle(a)
    # phi's own grid, from the memo, serves when a is no finer, as for a
    # homomorphism cocycle
    grid = t.grid(src, max(gphi.level, ga.level))
    proj = grid.project_index(gphi)
    shape = [int(m) for m in grid.moduli]
    # each of a's moduli divides the grid's, so splitting every grid axis
    # into (quotient, a's modulus) lines a's table up by broadcasting
    split = [v for big, m in zip(shape, ga.moduli) for v in (big // int(m), int(m))]
    a_shape = [v for m in ga.moduli for v in (1, int(m))]
    tmods = phi.target.space_moduli(level)
    phi_nd = [row[proj].reshape(shape) for row in PHI]
    buf = np.empty(shape, dtype=np.int64)  # one difference row, reused
    violations: list = []
    for i in range(src.rank):
        bad = None
        for nd, a_row, tm in zip(phi_nd, AG[i], tmods):
            # both sides lie in [0, tm), so phi(e_i.x) = phi(x) + step mod tm
            # exactly when their difference is step or step - tm
            d = _shift_difference(nd, i, buf).reshape(split)
            step = a_row.reshape(a_shape) % tm
            ok = d == step
            ok |= d == step - tm
            if not ok.all():
                miss = ~ok.reshape(-1)
                bad = miss if bad is None else np.logical_or(bad, miss, out=bad)
        if bad is not None:
            xs = np.flatnonzero(bad)[:_SAMPLES]
            pts = np.array(np.unravel_index(xs, shape), dtype=np.int64)
            moved = pts.copy()
            moved[i] = (moved[i] + 1) % shape[i]
            lhs = PHI[:, cylinder_index(src, gphi.level, moved)]
            rhs = (PHI[:, cylinder_index(src, gphi.level, pts)]
                   + AG[i][:, cylinder_index(src, ga.level, pts)]) % np.array(tmods)[:, None]
            _record(violations, [(name, generator(src, i), grid.point(int(x)),
                                  tuple(int(v) for v in lhs[:, s]),
                                  tuple(int(v) for v in rhs[:, s]))
                                 for s, x in enumerate(xs)])
    return CheckResult(name, grid.size * src.rank, violations)


def _check_roundtrip(
    name: str, phi: LCMap, psi: LCMap, level: int, t: _Tables
) -> CheckResult:
    src = phi.source
    mid_level = psi.input_level(level)
    gphi, PHI_mid = t.lcmap(phi, mid_level)
    gpsi, PSI = t.lcmap(psi, level)
    # compare on a grid fine enough to pin the level-`level` projection too
    grid = t.grid(src, max(level, gphi.level))
    # the index of phi(x) in psi's input grid, at every point of the grid
    at = flat_index(PHI_mid, gpsi.moduli)[grid.project_index(gphi)]
    mods = src.space_moduli(level)
    exact = grid.level == level
    bad = _mismatched_points((psi_row[at], row if exact else row % m)
                             for psi_row, row, m in zip(PSI, grid.res, mods))
    violations = [(name, grid.point(int(i)), tuple(int(v) for v in PSI[:, at[i]]),
                   tuple(int(r) % m for r, m in zip(grid.res[:, i], mods)))
                  for i in bad[:_SAMPLES]]
    return CheckResult(name, grid.size, violations)


def _check_inverse_cocycle(
    name: str, phi: LCMap, a: CocycleTable, b: CocycleTable, t: _Tables
) -> CheckResult:
    """b(a(e_i, x), phi(x)) = e_i for every generator and every point.

    When a and b satisfy the cocycle relations and phi is equivariant at b's
    level, c(g, x) = b(a(g, x), phi(x)) is itself a cocycle, so c = e_i on
    every generator makes b(a(g, x), phi(x)) = g for every g.  b is read at
    an arbitrary h by cocycle_reader, whose cost does not grow with |h|.
    """
    src = phi.source
    ga, AG = t.cocycle(a)
    read = _reader(b, *t.cocycle(b))
    gphi, PHI_b = t.lcmap(phi, b.level)
    grid = t.grid(src, max(ga.level, gphi.level))
    to_a = grid.project_index(ga)
    y = PHI_b[:, grid.project_index(gphi)]  # phi(x) at b's level, as residues
    src_group = src.group_moduli()
    violations: list = []
    for i in range(src.rank):
        got = read(AG[i][:, to_a], y, name)
        e = canonical_coords(src_group, generator(src, i))
        _record(violations, [(name, e, grid.point(int(x)), tuple(int(v) for v in got[:, x]))
                             for x in _mismatched_points(zip(got, e))[:_SAMPLES]])
    return CheckResult(name, grid.size * src.rank, violations)


def verify_cocycle_identity(
    a: CocycleTable, level: int = 4, point_limit: int = POINT_LIMITS["coe"]
) -> VerifyReport:
    """a(g1+g2, x) = a(g1, g2.x) + a(g2, x) for all g1, g2 in the acting group
    and every point, through the group's relations on the cocycle's own
    locality grid.  level is recorded in the report only."""
    check = _identity_check("cocycle-identity", a, _Tables(point_limit))
    return VerifyReport("cocycle-identity", level, [check])


def _identity_check(name: str, a: CocycleTable, t: _Tables) -> CheckResult:
    """Generator tables f_i extend to one genuine cocycle exactly when the
    acting group's relations hold at every point: f_i(x) + f_j(e_i.x) =
    f_j(x) + f_i(e_j.x) for every pair of generators, and for a cyclic
    factor of order n the values around each e_i-orbit add up to zero.
    The tables are constant on the cylinders of their own locality grid and
    the action permutes those cylinders, so the grid covers every point.
    A column-given cocycle is decided by its columns (_columns_identity)."""
    if a.columns is not None:
        return _columns_identity(name, a)
    grid, AG = t.cocycle(a)
    spec = a.source
    group = spec.group_moduli()
    tg = a.target_group
    _require_int64(_peak(AG) * max(4, *group), name)
    step = [grid.translate(generator(spec, i)) for i in range(spec.rank)]
    shape = [len(tg)] + [int(m) for m in grid.moduli]

    def reduced(row: np.ndarray, m: int) -> np.ndarray:
        return row % m if m else row

    checked = 0
    violations: list = []
    for i in range(spec.rank):
        for j in range(i + 1, spec.rank):
            checked += grid.size
            bad = _mismatched_points(
                (reduced(fi + fj[step[i]] - fj - fi[step[j]], m), 0)
                for fi, fj, m in zip(AG[i], AG[j], tg))
            _record(violations, [(name, f"e{i}+e{j} = e{j}+e{i}", grid.point(int(x)))
                                 for x in bad[:_SAMPLES]])
        if group[i]:
            # a cyclic factor's grid axis is one whole e_i-orbit; each orbit
            # is reported at its point with residue 0 on that axis
            total = AG[i].reshape(shape).sum(axis=1 + i).reshape(len(tg), -1)
            checked += grid.size // group[i]
            # column x of total is the orbit through the x-th grid point with
            # residue 0 on axis i
            orbits = _mismatched_points((reduced(row, m), 0) for row, m in zip(total, tg))
            bad = np.flatnonzero(grid.res[i] == 0)[orbits]
            _record(violations, [(name, f"{group[i]}*e{i} = 0", grid.point(int(x)))
                                 for x in bad[:_SAMPLES]])
    return CheckResult(name, checked, violations)


def _columns_identity(name: str, a: CocycleTable) -> CheckResult:
    """_identity_check on the constant level-0 tables of a column-given
    cocycle, with the grid check's counts and violation points, in Python
    integers and without a grid: constant tables always commute, and on a
    cyclic factor of order n every e_i-orbit sums to n*a(e_i), so every
    orbit fails exactly when that is not 0 in the target group."""
    spec = a.source
    mods = spec.space_moduli(0)
    size = math.prod(mods)
    checked = size * (spec.rank * (spec.rank - 1) // 2)
    violations: list = []
    for i, (n, col) in enumerate(zip(spec.group_moduli(), a.columns)):
        if not n:
            continue
        checked += size // n
        if any(canonical_coords(a.target_group, tuple(n * v for v in col))):
            # each orbit is shown at its point with residue 0 on axis i
            starts = itertools.product(*(range(1 if j == i else m) for j, m in enumerate(mods)))
            _record(violations, [(name, f"{n}*e{i} = 0", PointAtLevel(0, x))
                                 for x in itertools.islice(starts, _SAMPLES)])
    return CheckResult(name, checked, violations)


def check_grids(w: CoeWitness, level: int):
    """(system, level) of every grid the coe checks of w build, in the order
    they first build them.  A grid compared on is listed only when it is
    none of the grids read before it: the grid of a map's input level or of
    a cocycle's level, whichever is finer, is that grid again."""
    sides = ((w.phi, w.psi, w.a, w.b), (w.psi, w.phi, w.b, w.a))
    for f, _g, a, b in sides:  # equivariance
        yield from ((f.source, f.input_level(max(level, b.level))), (f.source, a.level))
    for f, g, _a, _b in sides:  # roundtrips, compared at `level` or finer
        mid = g.input_level(level)
        k = f.input_level(mid)
        yield from ((f.source, k), (g.source, mid), (f.source, max(level, k)))
    for f, _g, _a, b in sides:  # inverses read the map at the other cocycle's level
        yield f.source, f.input_level(b.level)


def require_grids(w: CoeWitness, level: int, limit: int, matrix: bool = True) -> None:
    """Refuse, without building anything, a level at which the coe checks
    of w would build a grid beyond `limit` points, with the error the
    checks raise when they reach the first such grid.  A linear part is
    checked by its matrices and columns, on no grid, unless `matrix` is
    False: a screen for the grid checks, the tests' oracle, plans the grids
    they would build.  A part whose checks would need an array of more axes
    than numpy allows is refused as well (_AXES)."""
    require_level(w.source, level, limit)
    require_level(w.target, level, limit)
    linear = matrix and matrices(w) is not None
    rank = max(w.source.rank, w.target.rank)
    axes = rank + 1 if linear else 2 * rank
    if axes > _AXES:
        raise ValueError(f"a rank-{rank} part's checks would need arrays of {axes} axes "
                         f"(numpy's limit {_AXES})")
    if not linear:
        for spec, k in check_grids(w, level):
            _require_points(spec, k, limit)


def _coe_checks(w: CoeWitness, level: int, t: _Tables) -> list[CheckResult]:
    """The checks of verify_coe, shared with verify_conj and the untwist
    premise, reading every grid and table from t; a linear part's map and
    inverse checks are decided by its matrices (orbitcert.linear).  A level
    beyond the point limit is refused up front."""
    require_level(w.source, level, t.limit)
    require_level(w.target, level, t.limit)
    pair = matrices(w)
    if pair is None:
        return _map_checks(w, level, t) + _cocycle_checks(w, t)
    return [CheckResult(*c) for c in linear_checks(w, level, *pair)] + _identity_checks(w, t)


def _map_checks(w: CoeWitness, level: int, t: _Tables) -> list[CheckResult]:
    """Equivariance of both point maps and both roundtrips."""
    return [
        _check_equivariance("phi-equivariance", w.phi, w.a, max(level, w.b.level), t),
        _check_equivariance("psi-equivariance", w.psi, w.b, max(level, w.a.level), t),
        _check_roundtrip("psi-after-phi", w.phi, w.psi, level, t),
        _check_roundtrip("phi-after-psi", w.psi, w.phi, level, t),
    ]


def _cocycle_checks(w: CoeWitness, t: _Tables) -> list[CheckResult]:
    """Both inverse checks and both cocycle identities.  On a conjugacy's
    constant tables their verdicts depend on rho and rho^-1 alone."""
    return [_check_inverse_cocycle("b-inverts-a", w.phi, w.a, w.b, t),
            _check_inverse_cocycle("a-inverts-b", w.psi, w.b, w.a, t)] + _identity_checks(w, t)


def _identity_checks(w: CoeWitness, t: _Tables) -> list[CheckResult]:
    return [_identity_check("cocycle-identity-a", w.a, t),
            _identity_check("cocycle-identity-b", w.b, t)]


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
    return VerifyReport("coe-witness", level, _coe_checks(w, level, _Tables(point_limit)))


def _homomorphism_check(w: CoeWitness) -> CheckResult:
    """Every generator table of a and b holds a single value, so neither
    cocycle depends on the point.  A column-given cocycle holds one by
    construction, and counts as its derived tables would."""
    checked = 0
    violations: list = []
    for tag, t in (("a", w.a), ("b", w.b)):
        if t.columns is not None:
            # constant by construction: rank level-0 tables of one value each
            checked += t.source.rank * point_count(t.source, 0)
            continue
        for i, g in enumerate(t.generators):
            checked += g.values.shape[1]
            mods = t.source.space_moduli(g.level)
            _record(violations, [
                ("homomorphism", f"{tag}(e{i}, x)",
                 PointAtLevel(g.level, tuple(int(v) for v in np.unravel_index(int(x), mods))),
                 tuple(int(v) for v in g.values[:, x]), tuple(int(v) for v in g.values[:, 0]))
                for x in _mismatched_points(zip(g.values, g.values[:, 0]))[:_SAMPLES]])
    return CheckResult("homomorphism", checked, violations)


def verify_conj(w: CoeWitness, level: int = 4,
                point_limit: int = POINT_LIMITS["conj"]) -> VerifyReport:
    """Exhaustive check of a conjugacy witness, exact over the whole acting
    group.  A conjugacy is an orbit equivalence whose cocycles do not depend
    on the point, a(g, x) = rho(g) and b(h, y) = rho^-1(h): homomorphism
    checks that, and the checks of verify_coe follow.  On constant tables
    they make rho well defined (cocycle-identity), an isomorphism with
    inverse rho^-1 (b-inverts-a, a-inverts-b), and phi and psi mutually
    inverse maps, equivariant through rho and rho^-1.  A level beyond the
    point limit is refused up front."""
    checks = [_homomorphism_check(w)] + _coe_checks(w, level, _Tables(point_limit))
    return VerifyReport("conj-witness", level, checks)
