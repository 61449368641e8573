"""Linear point maps, and the integer conditions that decide a linear part's
coe checks.

A point map given by an integer matrix rho, one column rho[i] = rho(e_i)
per source factor, sends the residues x at its input level to x.rho,
reduced mod the output level's moduli (LCMap.rho).  A linear part is a
witness whose point maps are given so, by rho and sigma, and whose cocycles
are given by the same columns, a(e_i, x) = rho(e_i) and b(e_c, y) =
sigma(e_c) (CocycleTable.columns): an identity part of an orbit-equivalence
chain, or the conjugacy of one block.  It is integer data: no table is
built for it unless a grid check reads one.  For such a part verify_coe
decides its equivariance, roundtrip and inverse checks by the conditions
below, in Python integers and without a grid, at the levels the grid
checks read, and the cocycle identities and verify_conj's homomorphism
check by the columns (cocycle._columns_identity); orbitcert.chain states
why each condition decides its check.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .dynamics import PointAtLevel, canonical_coords, generator


def linear_image(mat, res: np.ndarray, moduli: Sequence[int] | None = None) -> np.ndarray:
    """res @ mat for points given one row per factor: row c is the sum over
    j of mat[j][c] * res[j], reduced mod moduli[c] when moduli are given."""
    out = np.zeros((len(mat[0]), res.shape[1]), dtype=np.int64)
    for c, row in enumerate(out):
        for j, col in enumerate(mat):
            v = int(col[c])
            if v:
                row += res[j] if v == 1 else v * res[j]
        # two scans cost less than a division, and often show it is not needed
        if moduli is not None and (row.min() < 0 or row.max() >= moduli[c]):
            row %= moduli[c]
    return out


def linear_table(f):
    """The table of the map f given by its matrix f.rho, x -> x.rho.  It
    carries rho, so that a copy of f keeps it as its own; a map given both
    a table of its own and rho, or neither, is refused."""
    rho, source, target, name = f.rho, f.source, f.target, f.name or "map"
    if rho is None:
        raise ValueError(f"{name}: a table or a matrix rho is required")
    if f.table is not None and getattr(f.table, "rho", None) is not rho:
        raise ValueError(f"{name}: given by rho, its table is derived")
    if len(rho) != source.rank or any(len(col) != target.rank for col in rho):
        raise ValueError(f"{name}: rho needs {source.rank} columns of {target.rank} entries")

    def table(k: int, res: np.ndarray) -> np.ndarray:
        mods = target.space_moduli(k)
        # entries reduced first: a term is below a source times a target modulus
        return linear_image([[v % m for v, m in zip(col, mods)] for col in rho], res, mods)

    table.rho = rho
    return table


def matrices(w) -> tuple | None:
    """(rho, sigma) when w is a linear part, else None: both point maps are
    given by matrices, and a and b are given by columns (CocycleTable), the
    columns of rho and of sigma, each canonical in its group.  No table is
    read: a cocycle given by tables is never linear."""
    rho, sigma, a, b = w.phi.rho, w.psi.rho, w.a.columns, w.b.columns
    if rho is None or sigma is None or a is None or b is None:
        return None
    for cols, given, group in ((rho, a, w.a.target_group), (sigma, b, w.b.target_group)):
        if given != tuple(canonical_coords(group, tuple(col)) for col in cols):
            return None
    return rho, sigma


def _equivariance(name: str, f, rho, level: int):
    """f(e_i.x) = rho(e_i) + f(x) at output level `level` on every point of
    f's input grid: lm(N_c, level) | rho_ci * lm(M_i, d) for d = f's input
    level.  A failing axis i is shown at the point with residue m - 1 there
    and 0 elsewhere, whose e_i-translate is 0."""
    d = f.input_level(level)
    src_mods, tgt_mods = f.source.space_moduli(d), f.target.space_moduli(level)
    violations = []
    for i, m in enumerate(src_mods):
        moved = tuple(v * m % n for v, n in zip(rho[i], tgt_mods))
        if any(moved):
            x = tuple(m - 1 if j == i else 0 for j in range(len(src_mods)))
            violations.append((name, generator(f.source, i), PointAtLevel(d, x),
                               (0,) * len(tgt_mods), moved))
    return name, len(src_mods) * len(tgt_mods), violations


def _roundtrip(name: str, f, g, rho, sigma, level: int):
    """g(f(x)) = x at level `level` on the grid the grid check compares on.
    It holds when g's wrap condition holds, lm(M_i, level) | sigma_ic *
    lm(N_c, mid) for mid = g's input level, when f reads every axis of the
    grid in full, and when lm(M_i, level) | (sigma.rho - I)_ij on every axis
    j with more than one residue.  Given the wrap condition the other two
    are exact, and e_j or lm(M_j, k) e_j shows a failure."""
    mid = g.input_level(level)
    k = f.input_level(mid)
    top = max(level, k)
    src, tgt = f.source, f.target
    out_mods, read, grid, tgt_mods = (src.space_moduli(level), src.space_moduli(k),
                                      src.space_moduli(top), tgt.space_moduli(mid))
    n = src.rank
    violations = [(name, f"wrap: lm(M{i}, {level}) does not divide "
                         f"sigma[{i}][{c}] * lm(N{c}, {mid})")
                  for c, col in enumerate(sigma) for i, v in enumerate(col)
                  if v * tgt_mods[c] % out_mods[i]]
    for j in range(n):
        if grid[j] == 1:
            continue
        if read[j] < grid[j]:  # f reads axis j coarser than the grid
            x = tuple(read[j] if t == j else 0 for t in range(n))
        else:
            x = generator(src, j)
        seen = [r % m for r, m in zip(x, read)]  # what f reads of x
        y = [sum(v * r for v, r in zip(col, seen)) % m for col, m in zip(zip(*rho), tgt_mods)]
        got = tuple(sum(v * s for v, s in zip(col, y)) % m for col, m in zip(zip(*sigma), out_mods))
        want = tuple(r % m for r, m in zip(x, out_mods))
        if got != want:
            violations.append((name, PointAtLevel(top, x), got, want))
    return name, n * (n + tgt.rank), violations


def _inverse(name: str, f, rho, sigma, src_group, tgt_group):
    """sigma(rho(e_i)) = e_i in the source group, each value canonical in
    its group, as the grid check reads the constant tables; a failure is
    shown at the origin of f's grid at level 0."""
    violations = []
    for i, col in enumerate(rho):
        h = canonical_coords(tgt_group, col)
        got = canonical_coords(src_group, tuple(
            sum(hc * s[t] for hc, s in zip(h, sigma)) for t in range(len(src_group))))
        e = canonical_coords(src_group, generator(f.source, i))
        if got != e:
            d = f.input_level(0)
            violations.append((name, e, PointAtLevel(d, (0,) * len(src_group)), got))
    return name, len(rho), violations


def linear_checks(w, level: int, rho, sigma) -> list[tuple]:
    """(name, conditions, violations) of the two equivariance checks, the
    two roundtrips and the two inverse checks of the linear part w, in
    verify_coe's order and at the levels it reads them.  A check's count is
    the number of integer conditions it tests, not of grid comparisons."""
    gx, gy = w.source.group_moduli(), w.target.group_moduli()
    return [
        _equivariance("phi-equivariance", w.phi, rho, max(level, w.b.level)),
        _equivariance("psi-equivariance", w.psi, sigma, max(level, w.a.level)),
        _roundtrip("psi-after-phi", w.phi, w.psi, rho, sigma, level),
        _roundtrip("phi-after-psi", w.psi, w.phi, sigma, rho, level),
        _inverse("b-inverts-a", w.phi, rho, sigma, gx, gy),
        _inverse("a-inverts-b", w.psi, sigma, rho, gy, gx),
    ]
