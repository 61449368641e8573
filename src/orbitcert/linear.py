"""Piecewise affine point maps, locally constant cocycles, and the integer
conditions that decide every check of a part.

Every part orbitcert builds is finite integer data.  A point map f has a
cylinder modulus D_i per source factor, D_i dividing the factor's modulus
at every level f reads, and one piece per cylinder r of D, an offset t_r
and an integer matrix A_r, one row per source factor: f sends the point
r + D.u to t_r + u.A_r, reduced mod the output level's moduli (LCMap).  At
input level d the residues x in [0, M(d)) are read as r = x mod D and
u = (x - r)/D.  A linear map is the one-cylinder case, D = 1 and t = 0,
A = rho; a split of an l-cycle off an odometer has l pieces, a finite
rerank one piece per point, a slid map one per level-1 cylinder.  A
cocycle gives one column per generator per cylinder of its own modulus
(CocycleTable); a linear cocycle, a(e_i, x) = rho(e_i), has one cylinder.

The checks of verify_coe and verify_conj are decided below by congruences
on the pieces and the columns, in Python integers and without a grid, at
the levels the grid checks read; orbitcert.chain states why each decides
its check, or is stricter than it.  A count is a number of integer
conditions, except for the cocycle identities and homomorphism, which
count the points of the cocycle's own level grid, as a table would.
"""
from __future__ import annotations

import itertools
import math

from .dynamics import PointAtLevel, canonical_coords, generator, point_count

_SAMPLES = 5  # violations kept per check


def cylinders(moduli):
    """The residues mod `moduli`, in mixed-radix order, the first factor most
    significant: the order of a part's pieces and of a grid's points."""
    return itertools.product(*map(range, moduli))


def cylinder_index(moduli, x) -> int:
    """Index among cylinders(moduli) of the cylinder holding x."""
    idx = 0
    for v, m in zip(x, moduli):
        idx = idx * m + v % m
    return idx


def _record(violations: list, items) -> None:
    room = _SAMPLES - len(violations)
    if room > 0:
        violations.extend(itertools.islice(items, room))


def _affine(f, x) -> list[int]:
    """t_r + u.A_r for the point x = r + D.u, in integers, unreduced."""
    r = [v % d for v, d in zip(x, f.moduli)]
    t, rows = f.pieces[cylinder_index(f.moduli, r)]
    out = list(t)
    for v, s, d, row in zip(x, r, f.moduli, rows):
        q = (v - s) // d
        if q:
            for c, e in enumerate(row):
                out[c] += q * e
    return out


def image(f, k: int, x) -> tuple[int, ...]:
    """f at output level k of the point x, given by residues at f's input
    level or finer."""
    src = f.source.space_moduli(f.input_level(k))
    out = _affine(f, [v % m for v, m in zip(x, src)])
    return tuple(v % m for v, m in zip(out, f.target.space_moduli(k)))


def refine(f, within) -> tuple[tuple[int, ...], tuple]:
    """f's moduli and pieces on the cylinders of lcm(D, within), the same
    map at every level whose moduli those divide."""
    mods = tuple(math.lcm(w, d) for w, d in zip(within, f.moduli))
    if mods == f.moduli:
        return mods, f.pieces
    pieces = []
    for r in cylinders(mods):
        given = f.pieces[cylinder_index(f.moduli, r)][1]
        rows = tuple(tuple(c // d * e for e in row) for row, c, d in zip(given, mods, f.moduli))
        pieces.append((tuple(_affine(f, r)), rows))
    return mods, tuple(pieces)


def _restrict(f, k: int, within):
    """f at output level k on cylinders C of the source: per factor the
    lcm of within_i and D_i when it divides M_i(d), d f's input level, and
    the lcm of within_i and M_i(d) otherwise, on whose cylinders f is
    constant along that factor.  Returns (C, box, pieces): f_k(r + C.v) =
    t + v.A mod N(k) for v_i in [0, box_i), one piece (t, A) per cylinder r:
    f's own pieces when C = D, else pieces reduced mod N(k), with the rows
    of one-value boxes zero.  Equal rows are one object."""
    key = (k, tuple(within))
    got = f._restricted.get(key)
    if got is not None:
        return got
    d = f.input_level(k)
    src, tgt = f.source.space_moduli(d), f.target.space_moduli(k)
    mods, box = [], []
    for w, dd, m in zip(within, f.moduli, src):
        if m % dd:
            raise ValueError(f"{f.name or 'map'}: cylinders of modulus {dd} are finer "
                             f"than its level-{d} input")
        c = math.lcm(w, dd)
        if m % c:
            c = math.lcm(w, m)
        mods.append(c)
        box.append(max(m // c, 1))
    mods = tuple(mods)
    if mods == f.moduli:
        got = f._restricted[key] = (mods, tuple(box), f.pieces)
        return got
    scaled = {}  # equal rows of f, in the steps of C, as one object
    pieces = []
    zero = (0,) * len(tgt)
    for r in cylinders(mods):
        given = f.pieces[cylinder_index(f.moduli, r)][1]
        rows = scaled.get(given)
        if rows is None:
            rows = scaled[given] = tuple([
                tuple([c // dd * e % n for e, n in zip(row, tgt)]) if b > 1 else zero
                for row, c, dd, b in zip(given, mods, f.moduli, box)])
        t = _affine(f, [v % m for v, m in zip(r, src)])
        pieces.append((tuple([v % n for v, n in zip(t, tgt)]), rows))
    got = f._restricted[key] = (mods, tuple(box), pieces)
    return got


def _constant_on(f, k: int, within, target_mods):
    """_restrict(f, k, within), refined until the image of each piece lies
    in one cylinder of target_mods, which divide the output moduli: along
    each factor the least multiple of the step that every row sends to 0
    mod target_mods, or single residues when that does not divide M(d)."""
    mods, box, pieces = _restrict(f, k, within)
    if all(m == 1 for m in target_mods):
        return mods, box, pieces
    src = f.source.space_moduli(f.input_level(k))
    need = list(mods)
    for j, b in enumerate(box):
        if b > 1:
            q = 1
            for rows in {id(rows): rows for _t, rows in pieces}.values():
                for e, m in zip(rows[j], target_mods):
                    q = math.lcm(q, m // math.gcd(m, e))
            need[j] = mods[j] * q if src[j] % (mods[j] * q) == 0 else src[j]
    if need != list(mods):
        mods, box, pieces = _restrict(f, k, need)
    return mods, box, pieces


def _reduced(v, moduli) -> bool:
    return not any([x % m for x, m in zip(v, moduli)])


def _value(a, r, i: int) -> tuple[int, ...]:
    """a(e_i, x) on the cylinder of a's modulus that holds r."""
    return a.values[cylinder_index(a.moduli, r)][i]


def _moved(x, i: int, moduli):
    return tuple((v + 1) % m if j == i else v for j, (v, m) in enumerate(zip(x, moduli)))


def equivariance(name: str, f, a, k: int):
    """f(e_i.x) = a(e_i, x) + f(x) at output level k on the grid of x at
    max(d, a.level), d f's input level, as congruences mod N(k) per
    cylinder r of the common modulus C of f and a (orbitcert.chain): a step
    inside a cylinder, a step from the last cylinder along e_i into the
    first, whose u carries, and the wrap of u at M_i(d)."""
    grid = max(f.input_level(k), a.level)
    tgt = f.target.space_moduli(k)
    mods, box, pieces = _restrict(f, k, a.moduli)
    n = len(mods)
    strides = [math.prod(mods[i + 1:]) for i in range(n)]
    violations: list = []
    for idx, r in enumerate(cylinders(mods)):
        t, rows = pieces[idx]
        for i, step in enumerate(a.values[cylinder_index(a.moduli, r)]):
            inner = r[i] + 1 < mods[i]
            t2, rows2 = pieces[idx + strides[i] if inner else idx - r[i] * strides[i]]
            # (the case's point v, its constant, the axes of its box)
            if inner:
                cases = [({}, [p - q - s for p, q, s in zip(t2, t, step)], range(n))]
            else:
                last = box[i] - 1
                cases = [({i: last}, [p - q - last * e - s
                                      for p, q, e, s in zip(t2, t, rows[i], step)],
                          [j for j in range(n) if j != i])]
                if last:
                    cases.insert(0, ({}, [p + e - q - s
                                          for p, e, q, s in zip(t2, rows2[i], t, step)],
                                     [j for j in range(n) if j != i or last > 1]))
            for at, const, axes in cases:
                # the constant fails at the case's point v, a coefficient j
                # at v + e_j; equal rows, shared by _restrict, differ by 0
                bad = [None] if not _reduced(const, tgt) else [] if rows2 is rows else [
                    j for j in axes if box[j] > 1 and not _reduced(
                        [p - q for p, q in zip(rows2[j], rows[j])], tgt)]
                if bad:
                    v = {**at, bad[0]: 1}
                    x = tuple(rj + mj * v.get(j, 0) for j, (rj, mj) in enumerate(zip(r, mods)))
                    rhs = tuple((p + s) % m for p, s, m in zip(image(f, k, x), step, tgt))
                    _record(violations, [(name, generator(f.source, i), PointAtLevel(grid, x),
                                          image(f, k, _moved(x, i, f.source.space_moduli(grid))),
                                          rhs)])
                    break
    return name, len(pieces) * n * len(tgt), violations


def roundtrip(name: str, f, g, level: int):
    """g(f(x)) = x at level L = `level` on the grid the grid check compares
    on, at max(L, k), k f's input level at g's input level mid.  f is cut
    into pieces on which f(x) lies in one cylinder of g, and x in one
    cylinder of M(L) along each axis f reads coarser than L; g(f(x)) is
    affine in u there when no coordinate of g's u can overflow, or g's
    row for it times the overflow vanishes mod M(L) (the wrap condition),
    and the affine identity is tested exactly (orbitcert.chain); a wrap
    condition that fails fails the check, stricter than the grid."""
    mid = g.input_level(level)
    k = f.input_level(mid)
    out, read = f.source.space_moduli(level), f.source.space_moduli(k)
    n = len(out)

    def violation(x):
        got = image(g, level, image(f, mid, x))
        want = tuple([v % m for v, m in zip(x, out)])
        return None if got == want else (name, PointAtLevel(max(level, k), tuple(x)), got, want)

    violations: list = []
    gmods, _gbox, gpieces = _restrict(g, level, g.moduli)
    mods, box, pieces = _constant_on(
        f, mid, tuple([o if r % o else 1 for o, r in zip(out, read)]), gmods)
    over = [m // e for m, e in zip(g.source.space_moduli(mid), gmods)]
    free = [j for j in range(n) if box[j] > 1]
    rank = range(n)
    # per rows of f and rows of g, both shared by equal pieces: the
    # overflowing wraps and the failing coefficients
    linear: dict = {}
    for r, (t, rows) in zip(cylinders(mods), pieces):
        gidx = 0
        for v, e in zip(t, gmods):
            gidx = gidx * e + v % e
        tau, b = gpieces[gidx]
        got = linear.get((id(rows), id(b)))
        if got is None:
            a1 = [[e // m % o for e, m, o in zip(rows[j], gmods, over)] for j in free]
            reach = [sum([(box[j] - 1) * row[c] for j, row in zip(free, a1)])
                     for c in range(len(over))]
            bad = [j for j, row in zip(free, a1) if not _reduced(
                [sum([ac * bc[i] for ac, bc in zip(row, b)]) - (mods[j] if i == j else 0)
                 for i in rank], out)]
            # the coordinates of g's u that may overflow, with their reach
            wraps = [(c, o, reach[c]) for c, (o, row) in enumerate(zip(over, b))
                     if not _reduced([o * e for e in row], out)]
            got = linear[id(rows), id(b)] = (wraps, bad, rows, b)
        wraps, bad = got[:2]
        # f(r) lies in g's cylinder s, at u = t1 along g's cylinders: (t - s) / E = t // E
        t1 = [v // e % o for v, e, o in zip(t, gmods, over)]
        for c, o, reach in wraps:
            if t1[c] + reach >= o:
                s = tuple([v % e for v, e in zip(t, gmods)])
                _record(violations, [(name, f"wrap: {o} * row {c} of {g.name or 'the map'} on "
                                            f"cylinder {s} is not 0 mod lm(M, {level})")])
        # the point r fails a constant, r + C_j e_j a coefficient j
        if any([(tv - rv + sum([tc * bc[i] for tc, bc in zip(t1, b)])) % m
                for i, tv, rv, m in zip(rank, tau, r, out)]):
            points = [r]
        elif bad:
            j = bad[0]
            points = [tuple([v + (mods[j] if i == j else 0) for i, v in enumerate(r)])]
        else:
            continue
        _record(violations, filter(None, map(violation, points)))
    return name, len(pieces) * n * (n + f.target.rank), violations


def runs(b) -> list[dict]:
    """Prefix sums of b along each factor j: for every line of cylinders
    through a cylinder r with r_j = 0, the sums of the first s steps of e_j
    from r, s < 2 E_j, in integers."""
    mods, values, out = b.moduli, b.values, []
    zero = (0,) * len(b.target_group)
    for j, e in enumerate(mods):
        # s steps of e_j from r, r_j = 0, reach the cylinder (s mod E_j) strides on
        stride = math.prod(mods[j + 1:])
        lines = {}
        for idx, r in enumerate(cylinders(mods)):
            if r[j]:
                continue
            run = [zero]
            for s in range(2 * e):
                step = values[idx + s % e * stride][j]
                run.append(tuple([p + q for p, q in zip(run[-1], step)]))
            lines[idx] = run
        out.append(lines)
    return out


def read(b, h, y) -> tuple[int, ...]:
    """b(h, y) for a group element h and the cylinder y of b's modulus,
    telescoped factor by factor from the left: along e_j the values repeat
    with period E_j, so for h_j = q E_j + s the value is q times one period
    plus the first s steps, read off b's prefix sums (b.runs).  Cyclic
    coordinates of h are reduced mod their order, and the cost does not
    grow with the size of h."""
    group, mods = b.source.group_moduli(), b.moduli
    if len(h) != len(group):
        raise ValueError("coordinate arity mismatch")
    total = [0] * len(b.target_group)
    cur = [v % e for v, e in zip(y, mods)]
    for j, (hj, n, e) in enumerate(zip(h, group, mods)):
        if n:
            hj %= n
        if not hj:
            continue
        if e == 1:  # one cylinder along e_j: hj times its value
            total = [v + hj * c for v, c in zip(total, _value(b, cur, j))]
            continue
        q, s = divmod(hj, e)
        p = cur[j]
        cur[j] = 0
        run = b.runs[j][cylinder_index(mods, cur)]
        total = [v + q * w + y - z for v, w, y, z in zip(total, run[e], run[p + s], run[p])]
        cur[j] = (p + s) % e
    return canonical_coords(b.target_group, tuple(total))


def inverse(name: str, f, a, b):
    """b(a(e_i, x), f(x)) = e_i on the grid at max(a.level, d), d f's input
    level at b's level: f is cut into pieces on each of which a is
    constant and f(x) lies in one cylinder of b, so one reading of b per
    piece and generator decides the check exactly."""
    d = f.input_level(b.level)
    mods, _box, pieces = _constant_on(f, b.level, a.moduli, b.moduli)
    units = [tuple([int(i == j) % m if m else int(i == j) for j, m in enumerate(group)])
             for group in [f.source.group_moduli()] for i in range(len(group))]
    seen = b._reads  # b read once per value of a and cylinder of b, for every check
    violations: list = []
    for r, (t, _rows) in zip(cylinders(mods), pieces):
        y = cylinder_index(b.moduli, t)
        for i, (e, h) in enumerate(zip(units, a.values[cylinder_index(a.moduli, r)])):
            got = seen.get((h, y))
            if got is None:
                got = seen[h, y] = read(b, h, t)
            if got != e:
                _record(violations, [(name, e, PointAtLevel(max(a.level, d), r), got)])
    return name, len(pieces) * f.source.rank, violations


def _grid_points(spec, level, failing, moduli, fixed: int | None = None):
    """The points of the level grid whose cylinder of `moduli` is in
    `failing`, in grid order; with residue 0 on axis `fixed` when given."""
    mods = spec.space_moduli(level)
    ranges = (range(1 if j == fixed else m) for j, m in enumerate(mods))
    return (x for x in itertools.product(*ranges) if cylinder_index(moduli, x) in failing)


def identity(name: str, a):
    """a's columns extend to one cocycle exactly when the acting group's
    relations hold on every cylinder: a_i(x) + a_j(x + e_i) = a_j(x) +
    a_i(x + e_j), and on a cyclic factor of order n the values along an
    e_i-orbit, n/E_i periods of E_i cylinders, add up to zero.  Counts and
    violation points are those of the grid at a's level."""
    spec, tg, mods = a.source, a.target_group, a.moduli
    group = spec.group_moduli()
    size = point_count(spec, a.level)
    checked = 0
    violations: list = []
    for i in range(spec.rank):
        for j in range(i + 1, spec.rank):
            checked += size
            failing = {cylinder_index(mods, r) for r in cylinders(mods) if any(canonical_coords(
                tg, tuple([p + q - s - t for p, q, s, t in zip(
                    _value(a, r, i), _value(a, _moved(r, i, mods), j),
                    _value(a, r, j), _value(a, _moved(r, j, mods), i))])))}
            if failing:
                _record(violations, ((name, f"e{i}+e{j} = e{j}+e{i}", PointAtLevel(a.level, x))
                                     for x in _grid_points(spec, a.level, failing, mods)))
        if group[i]:
            # each orbit is group[i] / E_i periods, one period a run of a
            checked += size // group[i]
            failing = {line for line, run in a.runs[i].items() if any(canonical_coords(
                tg, tuple(group[i] // mods[i] * v for v in run[mods[i]])))}
            if failing:
                _record(violations, ((name, f"{group[i]}*e{i} = 0", PointAtLevel(a.level, x))
                                     for x in _grid_points(spec, a.level, failing, mods, i)))
    return name, checked, violations


def homomorphism(w):
    """Neither cocycle depends on the point: every cylinder's column equals
    the first one's.  Counts and violation points are those of the grid at
    each cocycle's level."""
    checked = 0
    violations: list = []
    for tag, t in (("a", w.a), ("b", w.b)):
        checked += t.source.rank * point_count(t.source, t.level)
        for i in range(t.source.rank):
            first = t.values[0][i]
            failing = {c for c, cols in enumerate(t.values) if cols[i] != first}
            if failing:
                _record(violations, (
                    ("homomorphism", f"{tag}(e{i}, x)", PointAtLevel(t.level, x),
                     _value(t, x, i), first)
                    for x in _grid_points(t.source, t.level, failing, t.moduli)))
    return "homomorphism", checked, violations
