"""Exact integer matrix algebra: Smith normal form with unimodular factors,
unimodular inversion, invariant factors, and diagonal conjugation solving."""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd as igcd


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    entries: tuple[int, ...]  # row-major

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @staticmethod
    def from_rows(rows: list[list[int]]) -> "IntMatrix":
        r = len(rows)
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return IntMatrix(r, c, tuple(x for row in rows for x in row))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    def diagonal(diag: list[int] | tuple[int, ...]) -> "IntMatrix":
        n = len(diag)
        return IntMatrix(n, n, tuple(diag[i] if i == j else 0 for i in range(n) for j in range(n)))

    def get(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        return [list(self.entries[i * self.cols : (i + 1) * self.cols]) for i in range(self.rows)]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        a, b = self.to_rows(), other.to_rows()
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                row.append(sum(a[i][k] * b[k][j] for k in range(self.cols)))
            out.append(row)
        return IntMatrix.from_rows(out) if out else IntMatrix(0, other.cols, ())

    @property
    def diagonal_entries(self) -> tuple[int, ...]:
        return tuple(self.get(i, i) for i in range(min(self.rows, self.cols)))


def det(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = a.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_unimodular(a: IntMatrix) -> bool:
    return a.rows == a.cols and abs(det(a)) == 1


@dataclass(frozen=True)
class SmithDecomposition:
    u: IntMatrix
    s: IntMatrix
    v: IntMatrix


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """U*A*V = S with U, V unimodular and S diagonal, non-negative,
    each diagonal entry dividing the next.

    Pivoting picks the minimal-absolute-value nonzero entry of the active
    submatrix (row-major tie break), then sweeps its row and column.
    """
    m, n = a.rows, a.cols
    s = a.to_rows()
    u = IntMatrix.identity(m).to_rows()
    v = IntMatrix.identity(n).to_rows()

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, c):
        # row_dst += c * row_src
        srow, drow = s[src], s[dst]
        for j in range(n):
            drow[j] += c * srow[j]
        srow, drow = u[src], u[dst]
        for j in range(m):
            drow[j] += c * srow[j]

    def add_col(dst, src, c):
        for row in s:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(m, n):
        # minimal |entry| pivot over the active submatrix, row-major ties
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = s[i][j]
                if x != 0 and (best is None or abs(x) < abs(s[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        if best[0] != t:
            swap_rows(t, best[0])
        if best[1] != t:
            swap_cols(t, best[1])
        if s[t][t] < 0:
            negate_row(t)
        pivot = s[t][t]

        dirty = False
        for i in range(t + 1, m):
            if s[i][t] != 0:
                add_row(i, t, -(s[i][t] // pivot))
                if s[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if s[t][j] != 0:
                add_col(j, t, -(s[t][j] // pivot))
                if s[t][j] != 0:
                    dirty = True
        if dirty:
            continue  # a strictly smaller candidate exists now; reselect

        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if s[i][j] % pivot != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(t, bad, 1)  # drag a non-multiple into the pivot row
            continue
        t += 1

    um = IntMatrix.from_rows(u) if m else IntMatrix(0, 0, ())
    vm = IntMatrix.from_rows(v) if n else IntMatrix(0, 0, ())
    sm = IntMatrix.from_rows(s) if s else IntMatrix(m, n, ())
    dec = SmithDecomposition(um, sm, vm)
    _check_snf(a, dec)
    return dec


def _check_snf(a: IntMatrix, dec: SmithDecomposition) -> None:
    if (dec.u @ a) @ dec.v != dec.s:
        raise AssertionError("U*A*V != S")
    if not is_unimodular(dec.u) or not is_unimodular(dec.v):
        raise AssertionError("transform matrices are not unimodular")
    d = dec.s.diagonal_entries
    for i in range(dec.s.rows):
        for j in range(dec.s.cols):
            if i != j and dec.s.get(i, j) != 0:
                raise AssertionError("S is not diagonal")
    if any(x < 0 for x in d):
        raise AssertionError("negative diagonal entry")
    for i in range(len(d) - 1):
        if d[i] == 0:
            if d[i + 1] != 0:
                raise AssertionError("zero before nonzero on the diagonal")
        elif d[i + 1] % d[i] != 0:
            raise AssertionError("divisibility chain broken")


def invert_unimodular(a: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular matrix (U*A*V = I gives A^-1 = V*U)."""
    if a.rows != a.cols:
        raise ValueError("not square")
    dec = smith_normal_form(a)
    if dec.s != IntMatrix.identity(a.rows):
        raise ValueError("matrix is not unimodular")
    inv = dec.v @ dec.u
    if a @ inv != IntMatrix.identity(a.rows) or inv @ a != IntMatrix.identity(a.rows):
        raise AssertionError("inverse check failed")
    return inv


def invariant_factors(orders: tuple[int, ...] | list[int]) -> tuple[int, ...]:
    """Invariant factors (each dividing the next, 1s dropped) of prod Z/d."""
    if any(d < 1 for d in orders):
        raise ValueError("orders must be naturals >= 1")
    if not orders:
        return ()
    dec = smith_normal_form(IntMatrix.diagonal(list(orders)))
    return tuple(x for x in dec.s.diagonal_entries if x > 1)


@dataclass(frozen=True)
class FiniteAbelianGroup:
    orders: tuple[int, ...]

    @property
    def canonical(self) -> tuple[int, ...]:
        return invariant_factors(self.orders)

    @property
    def cardinality(self) -> int:
        n = 1
        for d in self.orders:
            n *= d
        return n


def fab_isomorphic(a: FiniteAbelianGroup, b: FiniteAbelianGroup) -> bool:
    return a.canonical == b.canonical


def solve_conjugator(ms: tuple[int, ...], ns: tuple[int, ...]) -> tuple[IntMatrix, IntMatrix]:
    """Unimodular (S, T) with S*diag(ms)*T = diag(ns), when the two cyclic
    products are isomorphic groups and the tuples have equal length."""
    if len(ms) != len(ns):
        raise ValueError("length mismatch")
    if any(x < 1 for x in ms + ns):
        raise ValueError("entries must be naturals >= 1")
    dm = smith_normal_form(IntMatrix.diagonal(list(ms)))
    dn = smith_normal_form(IntMatrix.diagonal(list(ns)))
    if dm.s != dn.s:  # equal-length products are isomorphic iff their normal forms agree
        raise ValueError("cyclic products are not isomorphic")
    s = invert_unimodular(dn.u) @ dm.u
    t = dm.v @ invert_unimodular(dn.v)
    if (s @ IntMatrix.diagonal(list(ms))) @ t != IntMatrix.diagonal(list(ns)):
        raise AssertionError("conjugation identity failed")
    return s, t


def matrix_gcd_of_minors(a: IntMatrix, k: int) -> int:
    """gcd of all k x k minors (0 when every minor vanishes)."""
    from itertools import combinations

    g = 0
    for rows in combinations(range(a.rows), k):
        for cols in combinations(range(a.cols), k):
            sub = IntMatrix.from_rows([[a.get(i, j) for j in cols] for i in rows])
            g = igcd(g, det(sub))
            if g == 1:
                return 1
    return g
