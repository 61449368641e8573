from __future__ import annotations

import math
import random
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import grid_oracle
from box_oracle import (
    GroupElement,
    act,
    enumerate_points,
    extend_cocycle,
    image,
    locality_slack as _slack,
    value,
)
from composite import compose_chain, compose_coe, identity_witness, only_part
from grid_oracle import _Grid, as_table, tabulated
from orbitcert import cocycle
from orbitcert.cocycle import (
    CocycleTable,
    CoeWitness,
    GroupValuedMap,
    LCMap,
    homomorphism_cocycle,
    inverse_coe,
    slide,
    twist,
    untwist_to_conjugacy,
    verify_cocycle_identity,
    verify_coe,
    verify_conj,
)
from orbitcert.dynamics import (
    Cyclic,
    Odometer,
    PointAtLevel,
    SystemSpec,
    point_count,
)
from orbitcert.linear import cylinders, read, roundtrip
from orbitcert.selftest import conj_positive_pair
from orbitcert.supernatural import parse_sn, parse_sn_list
from orbitcert.witness import (
    build_basic_coe,
    build_coe_witness,
    build_conj_witness,
    linear_witness,
)


def _spec(text_factors):
    out = []
    for t in text_factors:
        if isinstance(t, int):
            out.append(Cyclic(t))
        else:
            out.append(Odometer(parse_sn(t)))
    return SystemSpec(tuple(out))


X_SMALL = _spec(["2^inf", 3])  # Z_2 odometer times a 3-cycle


def test_identity_witness_verifies():
    w = identity_witness(X_SMALL)
    report = verify_coe(w, level=3)
    assert report.passed, report.summary()
    assert "ok" in report.summary()


def test_a_check_without_comparisons_reports_itself_vacuous():
    # the cocycle identity of a rank-1 odometer has no relation to compare
    spec = _spec(["2^inf"])
    report = verify_cocycle_identity(CocycleTable(spec, (0,), (((1,),),)))
    (check,) = report.checks
    assert (check.checked, check.ok, check.vacuous, report.passed) == (0, True, True, True)
    assert "[vacuous] cocycle-identity: 0 comparisons" in report.summary()
    assert "[ok]" in verify_coe(identity_witness(X_SMALL), level=3).summary()


def test_roundtrip_reads_each_piece_of_the_inverse_map():
    # f's two pieces share one matrix; g's second piece is wrong on every
    # other point of its cylinder, which its offset alone does not show
    x = _spec(["2^inf"])
    f = LCMap(x, x, lambda k: k, (((0,), ((2,),)), ((1,), ((2,),))), (2,), "f")
    for rows, bad in ((((2,),), []), (((4,),), [(3,)])):
        g = LCMap(x, x, lambda k: k, (((0,), ((2,),)), ((1,), rows)), (2,), "g")
        name, checked, violations = roundtrip("g-after-f", f, g, 2)
        assert checked == 4 and [v[1].residues for v in violations] == bad


def test_lcmap_refuses_short_input():
    f = identity_witness(X_SMALL).phi
    with pytest.raises(ValueError):
        image(f, 3, PointAtLevel(2, (1, 0)))


def test_group_valued_map_canonicalizes():
    m = GroupValuedMap(X_SMALL, (0, 3), 1, [(5, -1)] * 6)
    v = value(m, PointAtLevel(2, (3, 1)))
    assert v.coords == (5, 2) == m.at((3, 1))
    assert value(m, PointAtLevel(1, (1, 1))) == v  # same fiber
    assert m.values == ((5, 2),) * 6 and m.moduli == (2, 3)  # stored canonically, once
    with pytest.raises(ValueError, match="one value per cylinder"):
        GroupValuedMap(X_SMALL, (0, 3), 1, [(5, -1)] * 5)


# a concrete nontrivial witness on the 2-adic odometer: swap the two level-2
# cylinders above residue 1 mod 2 (x -> x+2 if x=1 mod 4, x-2 if x=3 mod 4)


def _swap_u_value(x: int) -> int:
    return {1: 2, 3: -2}.get(x % 4, 0)


def _swap_witness():
    # pieces on the four cylinders mod 4: r + 4u -> r + swap(r) + 4u
    spec = _spec(["2^inf"])
    u = GroupValuedMap(spec, (0,), 2, [(_swap_u_value(r),) for r in range(4)])

    def lm(k):
        return max(k, 2)

    pieces = [((r + _swap_u_value(r),), ((4,),)) for r in range(4)]
    phi = LCMap(spec, spec, lm, pieces, (4,), "swap")
    psi = LCMap(spec, spec, lm, pieces, (4,), "swap-back")  # the swap is an involution
    table = CocycleTable(spec, (0,), [((_swap_u_value(r + 1) + 1 - _swap_u_value(r),),)
                                      for r in range(4)], (4,), 2)
    return spec, u, CoeWitness(phi, table, psi, table)


def test_swap_witness_passes_all_checks():
    _, _, w = _swap_witness()
    report = verify_coe(w, level=3)
    assert report.passed, report.summary()


def test_extend_cocycle_matches_telescoping_by_hand():
    spec, _, w = _swap_witness()
    x = PointAtLevel(4, (5,))
    one = extend_cocycle(w.a, GroupElement((1,)), x)
    two = extend_cocycle(w.a, GroupElement((2,)), x)
    step2 = extend_cocycle(w.a, GroupElement((1,)), act(spec, 4, GroupElement((1,)), x))
    assert two.coords[0] == one.coords[0] + step2.coords[0]
    minus = extend_cocycle(w.a, GroupElement((-1,)), act(spec, 4, GroupElement((1,)), x))
    assert minus.coords[0] == -one.coords[0]


def test_extend_cocycle_is_path_independent():
    spec = _spec(["2^inf", "3^inf"])
    base = identity_witness(spec)
    u = GroupValuedMap(spec, (0, 0), 1, list(cylinders((2, 3))))
    a = twist(base.a, u)
    assert verify_cocycle_identity(a).passed
    for g in [GroupElement((2, -1)), GroupElement((-3, 2)), GroupElement((1, 1))]:
        for x in enumerate_points(spec, 2):
            assert extend_cocycle(a, g, x, order=(0, 1)) == extend_cocycle(
                a, g, x, order=(1, 0)
            )


def test_twist_twice_matches_twist_by_sum():
    spec = _spec(["2^inf", 3])
    base = identity_witness(spec)
    u = GroupValuedMap(spec, (0, 3), 1, [(r0 % 2, 1) for r0, _r1 in cylinders((2, 3))])
    v = GroupValuedMap(spec, (0, 3), 2, [(0, r1 + r0 % 4) for r0, r1 in cylinders((4, 3))])
    uv = GroupValuedMap(spec, (0, 3), 2, [tuple(p + q for p, q in zip(u.at(r), v.at(r)))
                                          for r in cylinders((4, 3))])
    lhs = twist(twist(base.a, u), v)
    rhs = twist(base.a, uv)
    for i in range(spec.rank):
        for x in enumerate_points(spec, 3):
            assert value(as_table(lhs).generators[i], x) == value(as_table(rhs).generators[i], x)


def test_twist_then_untwist_by_negation_restores():
    spec = _spec(["2^inf", 3])
    base = identity_witness(spec)
    u = GroupValuedMap(spec, (0, 3), 1, [(r0, 2) for r0, _r1 in cylinders((2, 3))])
    neg_u = GroupValuedMap(spec, (0, 3), 1, [tuple(-v for v in col) for col in u.values])
    back = twist(twist(base.a, u), neg_u)
    for i in range(spec.rank):
        for x in enumerate_points(spec, 3):
            assert value(as_table(back).generators[i], x) == \
                value(as_table(base.a).generators[i], x)


def test_verify_locates_broken_equivariance():
    w = identity_witness(X_SMALL)
    bad_a = homomorphism_cocycle(X_SMALL, [(1, 1), w.a.values[0][1]], (0, 3))
    broken = CoeWitness(w.phi, bad_a, w.psi, w.b)
    report = verify_coe(broken, level=2)
    assert not report.passed
    failing = {c.name for c in report.checks if not c.ok}
    assert "phi-equivariance" in failing
    eq = next(c for c in report.checks if c.name == "phi-equivariance")
    assert eq.violations  # counterexamples are reported


def test_verify_locates_noninjective_cocycle():
    spec = _spec([4])
    ident = identity_witness(spec)
    doubling = homomorphism_cocycle(spec, [(2,)], (4,))
    w = CoeWitness(ident.phi, doubling, ident.psi, doubling)
    report = verify_coe(w, level=1)
    assert not report.passed
    failing = {c.name for c in report.checks if not c.ok}
    # b o a = id on the whole group implies injectivity; doubling breaks it
    assert "b-inverts-a" in failing


def test_compose_and_inverse_round_trip():
    spec, _, w = _swap_witness()
    round_trip = compose_coe(w, inverse_coe(w))
    report = grid_oracle.verify_coe(round_trip, level=3)
    assert report.passed, report.summary()
    ident = identity_witness(spec)
    both = compose_coe(round_trip, ident)
    assert grid_oracle.verify_coe(both, level=2).passed


def _identity_rho(spec):
    ident = identity_witness(spec)
    return ident.a, ident.b


def test_untwist_recovers_identity_conjugacy():
    spec, u, w = _swap_witness()
    cw = untwist_to_conjugacy(w, u, _identity_rho(spec), level=3)
    for x in enumerate_points(spec, 3):
        assert image(cw.phi, 3, x) == x
    assert verify_conj(cw, level=3).passed


def test_untwist_rejects_wrong_transfer():
    spec, _, w = _swap_witness()
    zero = GroupValuedMap(spec, (0,), 0, [(0,)])
    with pytest.raises(ValueError, match="premise"):
        untwist_to_conjugacy(w, zero, _identity_rho(spec), level=3)


def test_untwist_refuses_a_wrong_transfer_before_checking_the_output(monkeypatch):
    calls = []
    real = cocycle.roundtrip
    monkeypatch.setattr(cocycle, "roundtrip", lambda *a: calls.append(a[0]) or real(*a))
    spec, u, w = _swap_witness()
    zero = GroupValuedMap(spec, (0,), 0, [(0,)])
    with pytest.raises(ValueError, match="premise"):
        untwist_to_conjugacy(w, zero, _identity_rho(spec), level=3)
    assert calls == []
    untwist_to_conjugacy(w, u, _identity_rho(spec), level=3)
    # the input's roundtrips as premise, then the output's
    assert calls == ["psi-after-phi", "phi-after-psi"] * 2


def test_slide_matches_the_pointwise_formula():
    # block conjugacies of the cohomology corpus, slid by a level-1 transfer
    # and its negation: phi'(x) = phi(x) - u(x), psi'(y) = psi(y) +
    # rho^-1(u(psi(y))), against the maps' own pieces point by point
    rng = random.Random(31)
    built = 0
    while built < 8:
        chain = build_conj_witness(*conj_positive_pair(rng, max_rank=2))
        w = chain.stages[0].parts[0].witness
        try:
            grid_oracle.require_grids(w, 3, 20_000)
        except ValueError:
            continue
        built += 1
        x, y = w.source, w.target
        rho_inv = w.psi.rho
        vals = [[rng.randint(-9, 9) for _ in range(y.rank)] for _ in range(point_count(x, 1))]
        for sign in (1, -1):
            u = GroupValuedMap(x, y.group_moduli(), 1, [[sign * v for v in col] for col in vals])
            phi, psi = slide(w, u, rho_inv)
            for k in range(3):
                pts = enumerate_points(x, phi.input_level(k))
                for xp in rng.sample(pts, min(20, len(pts))):
                    want = [p - c for p, c in zip(image(w.phi, k, xp).residues,
                                                  value(u, xp).coords)]
                    assert image(phi, k, xp).residues == tuple(
                        v % m for v, m in zip(want, y.space_moduli(k)))
                pts = enumerate_points(y, psi.input_level(k))
                for yp in rng.sample(pts, min(20, len(pts))):
                    c = value(u, image(w.psi, u.level, yp)).coords
                    want = [p + sum(cj * rho_inv[j][i] for j, cj in enumerate(c))
                            for i, p in enumerate(image(w.psi, k, yp).residues)]
                    assert image(psi, k, yp).residues == tuple(
                        v % m for v, m in zip(want, x.space_moduli(k)))


def _cyclic_product_conj():
    # x = (a mod 2, b mod 3) corresponds to 3a + 4b mod 6
    return linear_witness(_spec([2, 3]), _spec([6]), [(3,), (4,)], [(1, 1)])


def test_conj_witness_between_cyclic_products():
    cw = _cyclic_product_conj()
    report = verify_conj(cw, level=2)
    assert report.passed, report.summary()
    assert verify_coe(cw, level=2).passed


def test_group_iso_defect_reporting():
    # e0 -> 1 is not well defined on Z/2: 2 does not kill 1 in Z/6
    cw = _cyclic_product_conj()
    bad = homomorphism_cocycle(cw.source, [(1,), (1,)], (6,))
    report = verify_conj(CoeWitness(cw.phi, bad, cw.psi, cw.b), level=2)
    failing = {c.name for c in report.checks if not c.ok}
    assert {"cocycle-identity-a", "b-inverts-a"} <= failing
    assert "homomorphism" not in failing
    zero = GroupValuedMap(cw.source, (6,), 0, [(0,)] * 6)
    with pytest.raises(ValueError, match="not a group isomorphism"):
        untwist_to_conjugacy(cw, zero, (bad, cw.b), level=2)


def test_level_slack_finds_true_locality():
    spec = _spec(["2^inf", 3])
    padded = grid_oracle.GroupValuedMap.tabulate(spec, (0, 3), 3,
                                                 lambda res: res % np.array([[2], [1]]))
    assert _slack(padded) == 2
    constant = grid_oracle.GroupValuedMap.tabulate(
        spec, (0, 3), 3, lambda res: np.tile([[7], [1]], (1, res.shape[1])))
    assert _slack(constant) == 3
    spec2, _, w = _swap_witness()
    assert _slack(as_table(w.a).generators[0]) == 0


def _coe(ms: str, ns: str) -> CoeWitness:
    """The chain's composite, one table each way."""
    return compose_chain(build_coe_witness(parse_sn_list(ms), parse_sn_list(ns)))


def _twisted_on_z_times_z3() -> CocycleTable:
    spec = _spec(["2^inf", 3])
    u = GroupValuedMap(spec, (0, 3), 2, [(r0 * r1, r0 % 3) for r0, r1 in cylinders((4, 3))])
    return twist(identity_witness(spec).a, u)


READER_CASES = {
    "z-times-z3": _twisted_on_z_times_z3,  # values in Z x Z/3
    "readme-b": lambda: _coe("5*2^inf, 3^inf", "2^inf, 5*3^inf").b,  # Z^2 -> Z^2
}


@pytest.mark.parametrize("case", READER_CASES)
def test_cocycle_reader_matches_telescoping_oracle(case):
    # the grid oracle's reader, and the library's on a cocycle of pieces
    given = READER_CASES[case]()
    table = as_table(given)
    spec = table.source
    reader = grid_oracle.cocycle_reader(table)
    rng = random.Random(f"reader-{case}")
    pts = enumerate_points(spec, table.level)
    hs, ys = [], []
    for _ in range(40):
        # zero, negative and large coordinates; unreduced ones on cyclic factors
        hs.append(tuple(rng.choice([0, rng.randint(-9, 9), rng.randint(-400, 400)])
                        for _ in range(spec.rank)))
        ys.append(rng.choice(pts))
    got = reader(np.array(hs).T, np.array([y.residues for y in ys]).T)
    for h, y, col in zip(hs, ys, got.T):
        want = extend_cocycle(table, GroupElement(h), y).coords
        assert tuple(int(v) for v in col) == want
        if isinstance(given, CocycleTable):
            assert read(given, h, y.residues) == want


def _seam_and_back():
    seam = build_basic_coe(5, parse_sn("2^inf"))  # odo:5*2^inf -> cyc:5 x odo:2^inf
    return inverse_coe(seam), seam


COMPOSITE_CASES = {
    "readme": lambda: (_coe("5*2^inf, 3^inf", "2^inf, 5*3^inf"),
                       _coe("2^inf, 5*3^inf", "5*3^inf, 2^inf")),
    "cyc": _seam_and_back,
    "rank3": lambda: (_coe("2^inf, 3^inf, 5*7^inf", "5*2^inf, 3^inf, 7^inf"),
                      _coe("5*2^inf, 3^inf, 7^inf", "3^inf, 7^inf, 5*2^inf")),
}


@pytest.mark.parametrize("case", COMPOSITE_CASES)
def test_composed_generators_match_telescoped_composite(case):
    w1, w2 = COMPOSITE_CASES[case]()
    w = compose_coe(w1, w2)
    rng = random.Random(f"compose-{case}")
    for comp, first, phi, second in ((w.a, w1.a, w1.phi, w2.a), (w.b, w2.b, w2.psi, w1.b)):
        for i, gen in enumerate(comp.generators):
            pts = enumerate_points(comp.source, gen.level)
            for x in rng.sample(pts, min(60, len(pts))):
                h = value(as_table(first).generators[i], x)
                want = extend_cocycle(second, h, image(phi, second.level, x))
                assert value(gen, x) == want


@pytest.mark.parametrize("factors", [[2, 3], ["2^inf", "3*5^inf"], [3, "2^inf", 4, "3^inf"]],
                         ids=["cyclic", "odometer", "mixed"])
@pytest.mark.parametrize("level", [0, 1, 2, 3])
def test_grid_residues_match_the_division_formula(factors, level):
    grid = _Grid(_spec(factors), level)
    idx = np.arange(grid.size, dtype=np.int64)
    strides = [math.prod(grid.moduli[j + 1:]) for j in range(len(grid.moduli))]
    by_division = (idx[None, :] // np.array(strides)[:, None]) % grid.moduli[:, None]
    assert grid.res.flags.c_contiguous
    assert grid.res.dtype == np.int64
    np.testing.assert_array_equal(grid.res, by_division)


def _counted(f, calls: list):
    table = as_table(f)

    def counting(k, res):
        calls.append((table.name, k))
        return table.table(k, res)

    return replace(table, table=counting)


def test_verify_conj_builds_each_grid_and_table_once(monkeypatch):
    # the grid oracle's memo: one verification builds each grid and each
    # table it reads once
    cw = tabulated(only_part(build_conj_witness(parse_sn_list("2*5^inf,3*5^inf"),
                                                parse_sn_list("3*5^inf,2*5^inf"))))
    calls: list = []
    w = CoeWitness(_counted(cw.phi, calls), cw.a, _counted(cw.psi, calls), cw.b)
    grids: list = []
    init = _Grid.__init__

    def counting_init(self, spec, level, limit=10**6):
        grids.append((spec, level))
        init(self, spec, level, limit)

    monkeypatch.setattr(_Grid, "__init__", counting_init)
    report = grid_oracle.verify_conj(w, 4)
    assert report.passed, report.summary()
    assert {(cw.phi.name, 4), (cw.psi.name, 4)} <= set(calls)
    assert max(Counter(calls).values()) == 1, calls
    assert max(Counter(grids).values()) == 1, grids
    # the same report with every grid and table rebuilt at each read
    monkeypatch.setattr(grid_oracle._Tables, "_get", lambda self, key, build: build())
    calls.clear()
    fresh = grid_oracle.verify_conj(w, 4)
    assert len(calls) > len(set(calls))
    assert fresh.summary() == report.summary()
    assert [(c.name, c.checked, c.violations) for c in fresh.checks] == \
        [(c.name, c.checked, c.violations) for c in report.checks]


def test_verify_conj_peak_memory_stays_below_twelve_tables():
    # the grid oracle checks the README pair at level 3 on one grid of
    # N = 93,750 points per side; a grid's residues and a point map's table
    # take 2 * 8N bytes each, so the four the checks keep take 8 * 8N.
    # Every pass works one component row at a time, so what the passes add
    # stays below 4 * 8N.
    cw = tabulated(only_part(build_conj_witness(parse_sn_list("2*5^inf,3*5^inf"),
                                                parse_sn_list("3*5^inf,2*5^inf"))))
    n = point_count(cw.source, 3)
    assert n == point_count(cw.target, 3) == 93_750
    tracemalloc.start()
    try:
        report = grid_oracle.verify_conj(cw, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed, report.summary()
    assert peak < 12 * 8 * n, f"peak {peak / (8 * n):.2f} x 8N bytes"


def test_split_conjugacy_peak_memory_stays_below_twelve_tables_of_its_largest_part():
    # split into its two asymptotic classes and checked part by part on the
    # grid oracle, this conjugacy checks at level 6 on a (2^inf*3^inf) part
    # of N = 6^6 points and a (2^inf, 2^inf) part of 4^6 points, instead of
    # one composite of 6^6 * 4^6 points; so the whole chain stays below
    # 12 * 8N bytes
    chain = build_conj_witness(parse_sn_list("2^inf*3^inf,2^inf,2^inf"),
                               parse_sn_list("2^inf,2^inf,2^inf*3^inf"))
    n = 6**6
    parts = [tabulated(p.witness) for p in chain.stages[0].parts]
    assert [point_count(w.source, 6) for w in parts] == [4**6, n]
    tracemalloc.start()
    try:
        reports = [grid_oracle.verify_conj(w, 6) for w in parts]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in reports), [r.summary() for r in reports]
    assert max(c.checked for r in reports for c in r.checks) == n
    assert peak < 12 * 8 * n, f"peak {peak / (8 * n):.2f} x 8N bytes"


@pytest.mark.parametrize("differing", [0, 1, 40])
def test_mismatched_rows_matches_the_row_reduction(differing):
    # tables hold one row per component; a point differs when any row does
    rng = np.random.default_rng(differing)
    lhs = rng.integers(-50, 50, size=(3, 400), dtype=np.int64)
    rhs = lhs.copy()
    points = rng.choice(lhs.shape[1], size=differing, replace=False)
    rhs[rng.integers(0, 3, size=differing), points] += 1
    col = lhs[:, :1]  # one point on the right, broadcast as in the inverse checks
    for right in (rhs, col, np.zeros((3, 1), dtype=np.int64)):
        want = np.nonzero((lhs != right).any(axis=0))[0]
        got = grid_oracle._mismatched_points(
            zip(lhs, right[:, 0] if right.shape[1] == 1 else right))
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert len(grid_oracle._mismatched_points(zip(lhs, rhs))) == differing


def _recorded_grids(monkeypatch):
    built: list = []
    init = _Grid.__init__

    def recording_init(self, spec, level, limit=10**6):
        built.append((spec, level))
        init(self, spec, level, limit)

    monkeypatch.setattr(_Grid, "__init__", recording_init)
    return built


def test_grid_plan_is_the_order_the_checks_build_grids(monkeypatch):
    built = _recorded_grids(monkeypatch)
    conj = only_part(build_conj_witness(parse_sn_list("2*7^inf,3*7^inf"),
                                        parse_sn_list("6*7^inf,7^inf")))
    chain = build_coe_witness(parse_sn_list("5*2^inf,3^inf"), parse_sn_list("2^inf,5*3^inf"))
    cases = [(conj, 2)] + [(p.witness, lam) for st, lam in zip(chain.stages, chain.stage_levels(3))
                           for p in st.parts]
    assert len(cases) == 11
    for w, level in cases:
        # every part is checked by its pieces, on no grid, and the same part
        # held as tables follows the grid oracle's plan
        built.clear()
        assert verify_coe(w, level).passed
        assert built == []
        w = tabulated(w)
        built.clear()
        assert grid_oracle.verify_coe(w, level).passed
        assert list(dict.fromkeys(grid_oracle.check_grids(w, level))) == built


def test_oversized_grids_are_refused_with_the_verifiers_error(monkeypatch):
    # the maps read level 60 (the 2^60 multiplier) for every output level:
    # the grid oracle and its plan refuse the part alike, and its pieces
    # pass at once
    part = only_part(build_conj_witness(parse_sn_list("2^60*5^inf,3^37*5^inf"),
                                        parse_sn_list("3^37*5^inf,2^60*5^inf")))
    assert verify_conj(part, 0).passed
    cw = tabulated(part)
    with pytest.raises(ValueError, match="level-60 grid would hold") as verified:
        grid_oracle.verify_conj(cw, 0)
    built = _recorded_grids(monkeypatch)
    with pytest.raises(ValueError) as planned:
        grid_oracle.require_grids(cw, 0, 5 * 10**6)
    assert str(planned.value) == str(verified.value) and built == []


def test_orbit_sum_violation_is_reported_at_its_orbit():
    # Z/2 x Z/3 acting on itself; e1's value at (1, 2) is bumped, so the
    # e1-orbit through (1, 0) sums to (0, 1), not 0
    spec = SystemSpec((Cyclic(2), Cyclic(3)))
    a = CocycleTable(spec, (2, 3), [((1, 0), (0, 2 if x == (1, 2) else 1))
                                    for x in cylinders((2, 3))], (2, 3))
    report = verify_cocycle_identity(a)
    orbit_sums = [v for v in report.checks[0].violations if v[1] == "3*e1 = 0"]
    assert orbit_sums == [("cocycle-identity", "3*e1 = 0", PointAtLevel(0, (1, 0)))]
