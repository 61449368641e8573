import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from orbitcert import intmat
from orbitcert.intmat import (
    FiniteAbelianGroup,
    IntMatrix,
    _check_snf,
    _smith,
    det,
    fab_isomorphic,
    invariant_factors,
    invert_unimodular,
    smith_normal_form,
    solve_conjugator,
)
from orbitcert.oracles import fab_isomorphic_bruteforce, snf_diagonal_by_minors

M = IntMatrix.from_rows


def random_matrix(rng, max_dim=5, lo=-20, hi=20):
    r = rng.randint(1, max_dim)
    c = rng.randint(1, max_dim)
    return M([[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)])


def test_matmul_and_det():
    a = M([[2, 1], [1, 1]])
    b = M([[1, -1], [-1, 2]])
    assert a @ b == IntMatrix.identity(2)
    assert det(a) == 1
    assert det(M([[2, 0], [0, 3]])) == 6
    assert det(M([[1, 2], [2, 4]])) == 0


def test_snf_diag_4_6():
    # minor-gcd oracle: g1 = gcd of entries = 2, g2 = det = 24, so (2, 12)
    a = IntMatrix.diagonal([4, 6])
    assert snf_diagonal_by_minors(a) == (2, 12)
    dec = smith_normal_form(a)
    assert dec.s.diagonal_entries == (2, 12)


def test_snf_upper_triangular():
    a = M([[2, 1], [0, 2]])
    assert snf_diagonal_by_minors(a) == (1, 4)
    dec = smith_normal_form(a)
    assert dec.s.diagonal_entries == (1, 4)


def test_snf_zero_and_identity():
    z = IntMatrix(2, 3, (0,) * 6)
    dec = smith_normal_form(z)
    assert dec.s == z
    dec = smith_normal_form(IntMatrix.identity(3))
    assert dec.s == IntMatrix.identity(3)


def test_snf_random_against_minor_gcds():
    rng = random.Random(20260814)
    for _ in range(150):
        a = random_matrix(rng)
        dec = smith_normal_form(a)
        assert dec.s.diagonal_entries == snf_diagonal_by_minors(a)
        assert abs(det(dec.u)) == 1 and abs(det(dec.v)) == 1


def _transform_cases():
    """The suite_snf distribution, then zero, identity, empty and
    non-square matrices."""
    rng = random.Random(20261018)
    cases = [random_matrix(rng) for _ in range(150)]
    cases += [IntMatrix(2, 3, (0,) * 6), IntMatrix(3, 2, (0,) * 6), IntMatrix.identity(3),
              IntMatrix(0, 3, ()), IntMatrix(3, 0, ()), IntMatrix(0, 0, ()),
              M([[4, 6, 10]]), M([[4], [6], [10]]), M([[2, 4, 6, 8], [1, 3, 5, 7]])]
    return cases


def test_snf_carries_the_inverse_transforms():
    for a in _transform_cases():
        dec = smith_normal_form(a)
        assert dec.u @ a @ dec.v == dec.s
        assert dec.u @ dec.u_inv == IntMatrix.identity(a.rows), a
        assert dec.u_inv @ dec.u == IntMatrix.identity(a.rows), a
        assert dec.v @ dec.v_inv == IntMatrix.identity(a.cols), a
        assert dec.v_inv @ dec.v == IntMatrix.identity(a.cols), a
        # unimodularity again, by Bareiss determinants
        for x in (dec.u, dec.u_inv, dec.v, dec.v_inv):
            assert abs(det(x)) == 1, a


def test_check_snf_refuses_one_changed_transform_entry():
    rng = random.Random(5)
    cases = [a for a in _transform_cases() if a.rows and a.cols][::8]
    for a in cases:
        rows = a.to_rows()
        dec = _smith(rows, a.cols)
        _check_snf(rows, a.cols, dec)
        # U is dec[1] and U^-1 dec[2]; V is dec[3] and V^-1 dec[4]
        for k in (1, 2, 3, 4):
            bad = [[list(r) for r in x] for x in dec]
            i, j = rng.randrange(len(bad[k])), rng.randrange(len(bad[k]))
            bad[k][i][j] += rng.choice((-2, -1, 1, 2))
            with pytest.raises(AssertionError):
                _check_snf(rows, a.cols, tuple(bad))
        # S is dec[0]: one diagonal entry, then one off-diagonal entry.  The
        # check proves U*A*V = S as U*A = S*V^-1 when S is diagonal, and
        # either change breaks that identity, as it breaks U*A*V = S
        i = rng.randrange(min(a.rows, a.cols))
        off = [(r, c) for r in range(a.rows) for c in range(a.cols) if r != c]
        for i, j in [(i, i)] + [rng.choice(off)] * bool(off):
            bad = [[list(r) for r in x] for x in dec]
            bad[0][i][j] += rng.choice((-2, -1, 1, 2))
            with pytest.raises(AssertionError, match=r"U\*A\*V != S"):
                _check_snf(rows, a.cols, tuple(bad))
    # a zero row of A hides a change to column 0 of U from U*A*V = S;
    # only U*U^-1 = I sees it
    a = M([[0, 0], [2, 4]])
    rows = a.to_rows()
    bad = [[list(r) for r in x] for x in _smith(rows, 2)]
    bad[1][1][0] += 1
    assert M(bad[1]) @ a @ M(bad[3]) == M(bad[0])
    with pytest.raises(AssertionError, match="not unimodular"):
        _check_snf(rows, 2, tuple(bad))


def test_invert_unimodular_example():
    a = M([[2, 1], [1, 1]])
    assert invert_unimodular(a) == M([[1, -1], [-1, 2]])
    with pytest.raises(ValueError):
        invert_unimodular(M([[2, 0], [0, 1]]))


@settings(max_examples=60)
@given(st.integers(1, 4), st.randoms(use_true_random=False))
def test_invert_unimodular_random_products(n, rng):
    # products of elementary matrices are unimodular
    a = IntMatrix.identity(n).to_rows()
    for _ in range(8):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        for k in range(n):
            a[i][k] += c * a[j][k]
    m = M(a)
    assert m @ invert_unimodular(m) == IntMatrix.identity(n)


def test_invariant_factors():
    assert invariant_factors((4, 6)) == (2, 12)
    assert invariant_factors((2, 3)) == (6,)
    assert invariant_factors((1, 1)) == ()
    assert invariant_factors(()) == ()


def test_fab_examples():
    assert fab_isomorphic(FiniteAbelianGroup((2, 12)), FiniteAbelianGroup((4, 6)))
    assert not fab_isomorphic(FiniteAbelianGroup((2, 2)), FiniteAbelianGroup((4,)))
    assert fab_isomorphic(FiniteAbelianGroup((2, 3)), FiniteAbelianGroup((6, 1)))


def test_fab_against_element_orders():
    rng = random.Random(7)
    for _ in range(80):
        a = tuple(rng.randint(1, 8) for _ in range(rng.randint(1, 3)))
        b = tuple(rng.randint(1, 8) for _ in range(rng.randint(1, 3)))
        ga, gb = FiniteAbelianGroup(a), FiniteAbelianGroup(b)
        if ga.cardinality <= 64 and gb.cardinality <= 64:
            assert fab_isomorphic(ga, gb) == fab_isomorphic_bruteforce(ga, gb)


def test_solve_conjugator_example():
    s, t = solve_conjugator((2, 3), (6, 1))
    assert (s @ IntMatrix.diagonal([2, 3])) @ t == IntMatrix.diagonal([6, 1])
    assert abs(det(s)) == 1 and abs(det(t)) == 1


def test_solve_conjugator_identity_on_equal_input(monkeypatch):
    # equal tuples take no elimination; the input checks still run
    def refuse(*args):
        raise AssertionError("equal tuples need no elimination")

    monkeypatch.setattr(intmat, "_smith", refuse)
    rng = random.Random(28)
    for r in range(1, 11):
        ms = tuple(rng.randint(1, 12) for _ in range(r))
        identity = IntMatrix.identity(r)
        assert solve_conjugator(ms, ms) == (identity, identity), ms
    with pytest.raises(ValueError, match="length mismatch"):
        solve_conjugator((2, 3), (2, 3, 1))
    with pytest.raises(ValueError, match="naturals"):
        solve_conjugator((2, 0), (2, 0))


def test_solve_conjugator_rejects():
    with pytest.raises(ValueError):
        solve_conjugator((2, 2), (4, 1))
    with pytest.raises(ValueError):
        solve_conjugator((2,), (2, 1))


def test_solve_conjugator_refuses_exactly_the_non_isomorphic_products():
    # every pair of equal-length tuples of length <= 2 with entries 1..12,
    # against the invariant-factor comparison of fab_isomorphic
    for r in (1, 2):
        for ms, ns in itertools.product(itertools.product(range(1, 13), repeat=r), repeat=2):
            iso = fab_isomorphic(FiniteAbelianGroup(ms), FiniteAbelianGroup(ns))
            try:
                s, t = solve_conjugator(ms, ns)
            except ValueError as e:
                assert not iso and "not isomorphic" in str(e), (ms, ns)
                continue
            assert iso, (ms, ns)
            assert s @ IntMatrix.diagonal(list(ms)) @ t == IntMatrix.diagonal(list(ns))


def test_solve_conjugator_matches_inverting_the_other_side():
    # the reference takes each inverse from an elimination of its own:
    # S = Un^-1 * Um and T = Vm * Vn^-1, on every isomorphic pair of the
    # domain above, and on seeded tuples of length 3-6 over the multipliers
    # of the decision corpora (1-12), each paired with itself and with a
    # permutation of itself
    def reference(ms, ns):
        dm = smith_normal_form(IntMatrix.diagonal(list(ms)))
        dn = smith_normal_form(IntMatrix.diagonal(list(ns)))
        return invert_unimodular(dn.u) @ dm.u, dm.v @ invert_unimodular(dn.v)

    pairs = []
    for r in (1, 2):
        by_group = {}
        for ms in itertools.product(range(1, 13), repeat=r):
            by_group.setdefault(invariant_factors(ms), []).append(ms)
        for tuples in by_group.values():
            pairs += itertools.product(tuples, repeat=2)
    rng = random.Random(11)
    for _ in range(200):
        ms = tuple(rng.randint(1, 12) for _ in range(rng.randint(3, 6)))
        pairs += [(ms, ms), (ms, tuple(rng.sample(ms, len(ms))))]
    for ms, ns in pairs:
        assert solve_conjugator(ms, ns) == reference(ms, ns), (ms, ns)
