"""The grid verifier, kept as the test oracle of the piece checks.

Every part orbitcert builds is checked by congruences on its pieces
(orbitcert.linear).  Before that, a part was checked on the grids of its
truncations, and this module keeps that verifier as their oracle: a point
map with one array evaluator (LCMap), a group-valued map as an int64 table
on its level grid (GroupValuedMap), a cocycle as one such table per
generator (CocycleTable), one memo of grids and tables per verification
(_Tables), the equivariance, roundtrip and inverse checks on grids, the
cocycle identities and homomorphism on tables, a cocycle read at any group
element through cyclic prefix sums (cocycle_reader), and the grid plan
(check_grids), read by require_grids and by the screen that picks this
oracle's inputs from the selftest stream (desk_instances).  Every
grid-wide array is component-major, shape (components, points), so each
pass over a grid reads one row against one scalar modulus.

`tabulated` holds a witness given by pieces as tables: each point map
evaluates its pieces on whole arrays, each cocycle is tabulated on its
level grid.  The verifiers here check that copy of any witness they are
given, and the tests require the piece verdicts to agree with theirs.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from orbitcert.cocycle import POINT_LIMITS, CheckResult, CoeWitness, VerifyReport
from orbitcert.cocycle import CocycleTable as PieceCocycle
from orbitcert.cocycle import GroupValuedMap as PieceMap
from orbitcert.cocycle import LCMap as PieceLCMap
from orbitcert.decide import coe_decide, conj_decide
from orbitcert.dynamics import (
    PointAtLevel,
    SystemSpec,
    canonical_coords,
    generator,
    point_count,
    require_level,
)
from orbitcert.selftest import instance_stream
from orbitcert.witness import build_coe_witness, build_conj_witness

_SAMPLES = 5  # violations kept per check


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
    against its scalar modulus."""

    source: SystemSpec
    target: SystemSpec
    level_map: Callable[[int], int]
    table: Callable[[int, np.ndarray], np.ndarray]
    name: str = ""
    _levels: dict = field(default_factory=dict, init=False, repr=False)

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
    """Cocycle values on the acting group's standard generators, one table
    per generator; everything else is produced by the cocycle identity
    (the target is abelian)."""

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
        """The locality level."""
        return max(g.level for g in self.generators)


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



def constant_generator(
    spec: SystemSpec, target_group: tuple[int, ...], coords: tuple[int, ...], name: str = ""
) -> GroupValuedMap:
    col = np.array(coords, dtype=np.int64)[:, None]
    return GroupValuedMap(spec, target_group, 0, np.repeat(col, point_count(spec, 0), 1), name)



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
    check = _identity_check("cocycle-identity", as_table(a), _Tables(point_limit))
    return VerifyReport("cocycle-identity", level, [check])


def _identity_check(name: str, a: CocycleTable, t: _Tables) -> CheckResult:
    """Generator tables f_i extend to one genuine cocycle exactly when the
    acting group's relations hold at every point: f_i(x) + f_j(e_i.x) =
    f_j(x) + f_i(e_j.x) for every pair of generators, and for a cyclic
    factor of order n the values around each e_i-orbit add up to zero.
    The tables are constant on the cylinders of their own locality grid and
    the action permutes those cylinders, so the grid covers every point."""
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


def check_grids(w: CoeWitness, level: int):
    """(system, level) of every grid the checks of w build at `level`, in
    the order they first build them, read off the level maps alone."""
    sides = ((w.phi, w.psi, w.a, w.b), (w.psi, w.phi, w.b, w.a))
    for f, _g, a, b in sides:  # equivariance
        yield from ((f.source, f.input_level(max(level, b.level))), (f.source, a.level))
    for f, g, _a, _b in sides:  # roundtrips, compared at `level` or finer
        mid = g.input_level(level)
        k = f.input_level(mid)
        yield from ((f.source, k), (g.source, mid), (f.source, max(level, k)))
    for f, _g, _a, b in sides:  # inverses read the map at the other cocycle's level
        yield f.source, f.input_level(b.level)


def require_grids(w: CoeWitness, level: int, limit: int) -> None:
    """Refuse, without building anything, a level at which the coe checks
    of w would build a grid beyond `limit` points, with the error the
    checks raise when they reach the first such grid."""
    require_level(w.source, level, limit)
    require_level(w.target, level, limit)
    for spec, k in check_grids(w, level):
        _require_points(spec, k, limit)


def _coe_checks(w: CoeWitness, level: int, t: _Tables) -> list[CheckResult]:
    """The checks of verify_coe, shared with verify_conj and the untwist
    premise, reading every grid and table from t.  A level beyond the point
    limit is refused up front."""
    require_level(w.source, level, t.limit)
    require_level(w.target, level, t.limit)
    return _map_checks(w, level, t) + _cocycle_checks(w, t)


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
    w = tabulated(w)
    return VerifyReport("coe-witness", level, _coe_checks(w, level, _Tables(point_limit)))


def _homomorphism_check(w: CoeWitness) -> CheckResult:
    """Every generator table of a and b holds a single value, so neither
    cocycle depends on the point."""
    checked = 0
    violations: list = []
    for tag, t in (("a", w.a), ("b", w.b)):
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
    w = tabulated(w)
    checks = [_homomorphism_check(w)] + _coe_checks(w, level, _Tables(point_limit))
    return VerifyReport("conj-witness", level, checks)


# ---------------------------------------------------------------------------
# pieces as tables


def as_table(m):
    """A point map, group-valued map or cocycle given by pieces (the
    library's types) as its table; a table is returned as it is."""
    if isinstance(m, PieceLCMap):
        offsets = np.array([t for t, _rows in m.pieces], dtype=np.int64).T
        steps = np.array([rows for _t, rows in m.pieces], dtype=np.int64)

        def table(k: int, res: np.ndarray) -> np.ndarray:
            # one output row at a time, as the checks read them; a map of
            # one piece needs no index of pieces
            idx = None
            if len(m.pieces) > 1:
                idx = flat_index((row % d for row, d in zip(res, m.moduli)), m.moduli)
            out = np.empty((m.target.rank, res.shape[1]), dtype=np.int64)
            for c, (row, n) in enumerate(zip(out, m.target.space_moduli(k))):
                row[:] = offsets[c, 0] if idx is None else offsets[c, idx]
                for j, d in enumerate(m.moduli):
                    u = res[j] if d == 1 else res[j] // d
                    if idx is None:
                        if steps[0, j, c]:
                            row += int(steps[0, j, c]) * u
                    else:
                        row += steps[idx, j, c] * u
                row %= n
            return out

        return LCMap(m.source, m.target, m.level_map, table, m.name)
    if isinstance(m, PieceMap):
        grid = _Grid(m.source, m.level)
        vals = np.array(m.values, dtype=np.int64).reshape(len(m.values), -1)
        return GroupValuedMap(m.source, m.target_group, m.level,
                              vals[flat_index(grid.res % np.array(m.moduli)[:, None],
                                              m.moduli)].T, m.name)
    if isinstance(m, PieceCocycle):
        grid = _Grid(m.source, m.level)
        vals = np.array(m.values, dtype=np.int64).reshape(len(m.values), m.source.rank, -1)
        idx = flat_index(grid.res % np.array(m.moduli)[:, None], m.moduli)
        return CocycleTable(m.source, m.target_group, tuple(
            GroupValuedMap(m.source, m.target_group, m.level, vals[idx, i].T)
            for i in range(m.source.rank)))
    return m


def tabulated(w: CoeWitness) -> CoeWitness:
    """w held as tables (as_table), checked on grids by this module."""
    return CoeWitness(as_table(w.phi), as_table(w.a), as_table(w.psi), as_table(w.b))


# ---------------------------------------------------------------------------
# the oracle's inputs

# grids a witness of desk_instances may build at level 4
_COE_SCALE_BUDGET = 60_000
_CONJ_SCALE_BUDGET = 400_000


def grids_fit(chain, level: int, budget: int) -> bool:
    """Every grid check_grids plans for a part of the chain, at its stage's
    level, holds at most `budget` points."""
    return not any(point_count(spec, k) > budget
                   for stage, lam in zip(chain.stages, chain.stage_levels(level))
                   for part in stage.parts for spec, k in check_grids(part.witness, lam))


def _desk_scale(ms, ns) -> bool:
    """Whether the witnesses of a positive instance fit the point budgets at
    level 4 on the grids of their truncations: rank <= 2 orbit equivalence
    chains and conjugacies.  A negative instance is never verified, and a
    part beyond the builder's point limit is never kept."""
    coe = coe_decide(ms, ns)
    if not coe:
        return True
    try:
        if len(ms) <= 2 and not grids_fit(build_coe_witness(ms, ns, coe), 4,
                                          _COE_SCALE_BUDGET):
            return False
        conj = conj_decide(ms, ns)
        return not conj or grids_fit(build_conj_witness(ms, ns, conj), 4,
                                     _CONJ_SCALE_BUDGET)
    except ValueError:
        return False


def desk_instances(seed: int, count: int) -> list:
    """The first `count` instances of selftest.instance_stream(seed) whose
    witnesses this oracle can check at level 4 (_desk_scale)."""
    kept = (p for p in instance_stream(seed) if _desk_scale(*p))
    return list(itertools.islice(kept, count))
