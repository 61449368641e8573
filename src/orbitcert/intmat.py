"""Exact integer matrix algebra: Smith normal form with unimodular factors
and their inverses, unimodular inversion, invariant factors, and diagonal
conjugation solving."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from math import gcd as igcd
from operator import mul


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
        return IntMatrix.diagonal((1,) * n)

    @staticmethod
    def diagonal(diag: list[int] | tuple[int, ...]) -> "IntMatrix":
        return _matrix(_diagonal(diag), len(diag), len(diag))

    def get(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        return [list(self.entries[i * self.cols : (i + 1) * self.cols]) for i in range(self.rows)]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        cols = [other.entries[j :: other.cols] for j in range(other.cols)]
        return _matrix(_mul(self.to_rows(), cols), self.rows, other.cols)

    @property
    def diagonal_entries(self) -> tuple[int, ...]:
        return tuple(self.get(i, i) for i in range(min(self.rows, self.cols)))


def det(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    return _det(a.to_rows())


def _det(m: list[list[int]]) -> int:
    """Bareiss elimination of the square row list m, in place.  Rows below
    the pivot are rebuilt whole: their entries left of the pivot column are
    already 0 in them and in the pivot row, and stay 0."""
    n = len(m)
    if n == 0:
        return 1
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
        pk = m[k]
        p = pk[k]
        for i in range(k + 1, n):
            c = m[i][k]
            m[i] = [(x * p - c * y) // prev for x, y in zip(m[i], pk)]
        prev = p
    return sign * m[n - 1][n - 1]


def _cols(rows: list[list[int]]) -> list[tuple[int, ...]]:
    """The columns of a non-empty row list; [] for no rows."""
    return list(zip(*rows))


def _mul(a: list[list[int]], b_cols: list[tuple[int, ...]]) -> list[list[int]]:
    """Product of a matrix given by its rows and one given by its columns."""
    return [[sum(map(mul, row, col)) for col in b_cols] for row in a]


def _identity(n: int) -> list[list[int]]:
    return _diagonal((1,) * n)


def _diagonal(diag: tuple[int, ...] | list[int]) -> list[list[int]]:
    rows = [[0] * len(diag) for _ in diag]
    for i, d in enumerate(diag):
        rows[i][i] = d
    return rows


def _matrix(rows: list[list[int]], r: int, c: int) -> IntMatrix:
    return IntMatrix(r, c, tuple(chain.from_iterable(rows)))


@dataclass(frozen=True)
class SmithDecomposition:
    u: IntMatrix
    s: IntMatrix
    v: IntMatrix
    u_inv: IntMatrix
    v_inv: IntMatrix


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """U*A*V = S with U, V unimodular and S diagonal, non-negative,
    each diagonal entry dividing the next; U^-1 and V^-1 come with them.

    Pivoting picks the minimal-absolute-value nonzero entry of the active
    submatrix (row-major tie break), then sweeps its row and column.
    """
    m, n = a.rows, a.cols
    s, u, u_inv, v, v_inv = _smith(a.to_rows(), n)
    return SmithDecomposition(_matrix(u, m, m), _matrix(s, m, n), _matrix(v, n, n),
                              _matrix(u_inv, m, m), _matrix(v_inv, n, n))


def _smith(a: list[list[int]], n: int):
    """Smith elimination of the row list a with n columns: the checked row
    lists (S, U, U^-1, V, V^-1) of smith_normal_form.

    Each elementary move on the rows of S is applied to U, and its inverse
    to U^-1 from the other side: row_dst += c*row_src on U is
    col_src -= c*col_dst on U^-1; swaps and negations invert themselves.
    Column moves act on V and V^-1 the same way.  The rows of S carry the
    rows of U after their n entries, so that one update moves both; U^-1 is
    kept as its columns, so that each of its moves updates one list.
    """
    m = len(a)
    s = [list(row) + e for row, e in zip(a, _identity(m))]  # rows of [S | U]
    ui_cols, v, v_inv = _identity(m), _identity(n), _identity(n)

    def add(rows, dst, src, c):
        d, r = rows[dst], rows[src]
        for j in range(len(d)):
            d[j] += c * r[j]

    def add_row(dst, src, c):
        # row_dst += c * row_src
        add(s, dst, src, c)
        add(ui_cols, src, dst, -c)

    def add_col(dst, src, c):
        # col_dst += c * col_src
        for rows in (s, v):
            for row in rows:
                row[dst] += c * row[src]
        add(v_inv, src, dst, -c)

    def swap_rows(i, j):
        for rows in (s, ui_cols):
            rows[i], rows[j] = rows[j], rows[i]

    def swap_cols(i, j):
        for rows in (s, v):
            for row in rows:
                row[i], row[j] = row[j], row[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def negate_row(i):
        for rows in (s, ui_cols):
            rows[i] = [-x for x in rows[i]]

    t = 0
    while t < min(m, n):
        # minimal |entry| pivot over the active submatrix, row-major ties
        best, least = None, 0
        for i in range(t, m):
            row = s[i]
            for j in range(t, n):
                x = abs(row[j])
                if x and (best is None or x < least):
                    best, least = (i, j), x
            if least == 1:
                break  # no entry can beat 1, and later ties lose
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
        for i in range(t + 1, m if pivot > 1 else t + 1):  # 1 divides every entry
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

    dec = ([row[:n] for row in s], [row[n:] for row in s], [list(c) for c in zip(*ui_cols)], v, v_inv)
    _check_snf(a, n, dec)
    return dec


def _check_snf(a: list[list[int]], n: int, dec) -> None:
    """Proves that the row lists dec = (S, U, U^-1, V, V^-1) are a Smith
    decomposition of the row list a with n columns: U*A*V = S; U*U^-1 = I
    and V*V^-1 = I, which over Z is exactly unimodularity of U and V; S
    diagonal and non-negative, each diagonal entry dividing the next.

    Once S is diagonal and V*V^-1 = I, V^-1 is V's two-sided inverse, so
    U*A*V = S holds exactly when U*A = S*V^-1, whose row i is row i of
    V^-1 times S's entry (i, i), and 0 past the diagonal: one product fewer.
    Otherwise U*A*V is built; either way the first identity that fails
    names the refusal, in the order above."""
    s, u, u_inv, v, v_inv = dec
    m = len(a)
    if ([len(x) for x in dec] != [m, m, m, n, n]
            or [len(row) for x in (a, *dec) for row in x] != [n] * 2 * m + [m] * 2 * m + [n] * 2 * n):
        raise AssertionError("decomposition has the wrong shape")
    v_unimodular = _mul(v, _cols(v_inv)) == _identity(n)
    diagonal = not any(any(row[:i]) or any(row[i + 1:]) for i, row in enumerate(s))
    ua = _mul(u, _cols(a))
    if diagonal and v_unimodular:
        zero = [0] * n
        same = ua == [[s[i][i] * x for x in v_inv[i]] if i < n else zero for i in range(m)]
    else:
        same = _mul(ua, _cols(v)) == s
    if not same:
        raise AssertionError("U*A*V != S")
    if _mul(u, _cols(u_inv)) != _identity(m) or not v_unimodular:
        raise AssertionError("transform matrices are not unimodular")
    if not diagonal:
        raise AssertionError("S is not diagonal")
    d = [s[i][i] for i in range(min(m, n))]
    if any(x < 0 for x in d):
        raise AssertionError("negative diagonal entry")
    for x, y in zip(d, d[1:]):
        if x == 0:
            if y != 0:
                raise AssertionError("zero before nonzero on the diagonal")
        elif y % x != 0:
            raise AssertionError("divisibility chain broken")


def invert_unimodular(a: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular matrix: U*A*V = I gives A^-1 = V*U.
    The checked U^-1 and V^-1 make V*U a two-sided inverse."""
    if a.rows != a.cols:
        raise ValueError("not square")
    s, u, _u_inv, v, _v_inv = _smith(a.to_rows(), a.cols)
    if s != _identity(a.rows):
        raise ValueError("matrix is not unimodular")
    return _matrix(_mul(v, _cols(u)), a.rows, a.rows)


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
    products are isomorphic groups and the tuples have equal length:
    Um*diag(ms)*Vm = Un*diag(ns)*Vn gives S = Un^-1*Um and T = Vm*Vn^-1.

    Equal tuples get (I, I) with no elimination.  That is what the formula
    gives them: elimination is deterministic, so both sides run the same
    moves, Un = Um and Vn = Vm, and Un^-1*Um = Vm*Vn^-1 = I exactly."""
    if len(ms) != len(ns):
        raise ValueError("length mismatch")
    if any(x < 1 for x in ms + ns):
        raise ValueError("entries must be naturals >= 1")
    r = len(ms)
    if ms == ns:
        identity = IntMatrix.identity(r)
        return identity, identity
    dm_rows, dn_rows = _diagonal(ms), _diagonal(ns)
    sm, um, _um_inv, vm, _vm_inv = _smith(dm_rows, r)
    sn, _un, un_inv, _vn, vn_inv = _smith(dn_rows, r)
    if sm != sn:  # equal-length products are isomorphic iff their normal forms agree
        raise ValueError("cyclic products are not isomorphic")
    s = _mul(un_inv, _cols(um))
    t = _mul(vm, _cols(vn_inv))
    if _mul([[x * d for x, d in zip(row, ms)] for row in s], _cols(t)) != dn_rows:
        raise AssertionError("conjugation identity failed")
    return _matrix(s, r, r), _matrix(t, r, r)


def matrix_gcd_of_minors(a: IntMatrix, k: int) -> int:
    """gcd of all k x k minors (0 when every minor vanishes).  A 1 x 1
    minor is an entry, 2 x 2 and 3 x 3 ones are expanded by their first
    row, and larger ones are Bareiss determinants."""
    if k == 1:
        return igcd(*a.entries)
    g = 0
    a_rows = a.to_rows()
    col_sets = list(combinations(range(a.cols), k))
    for rows in combinations(a_rows, k):
        if k == 2:
            r, t = rows
            minors = (r[i] * t[j] - r[j] * t[i] for i, j in col_sets)
        elif k == 3:
            r, t, w = rows
            minors = (r[i] * (t[j] * w[h] - t[h] * w[j]) - r[j] * (t[i] * w[h] - t[h] * w[i])
                      + r[h] * (t[i] * w[j] - t[j] * w[i]) for i, j, h in col_sets)
        else:
            minors = (_det([[row[j] for j in cols] for row in rows]) for cols in col_sets)
        for x in minors:
            g = igcd(g, x)
            if g == 1:
                return 1
    return g
