from __future__ import annotations

import pytest

from orbitcert.cocycle import (
    CocycleTable,
    CoeWitness,
    GroupIso,
    GroupValuedMap,
    LCMap,
    compose_coe,
    conj_to_coe,
    ConjWitness,
    extend_cocycle,
    homomorphism_cocycle,
    identity_lcmap,
    identity_witness,
    inverse_coe,
    level_slack,
    twist,
    untwist_to_conjugacy,
    verify_cocycle_identity,
    verify_coe,
    verify_conj,
)
from orbitcert.dynamics import (
    Cyclic,
    GroupElement,
    Odometer,
    PointAtLevel,
    SystemSpec,
    act,
    enumerate_points,
    generator,
)
from orbitcert.intmat import IntMatrix
from orbitcert.supernatural import parse_sn


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
    report = verify_coe(w, level=3, radius=4)
    assert report.passed, report.summary()
    assert "ok" in report.summary()


def test_lcmap_refuses_short_input():
    f = identity_lcmap(X_SMALL)
    with pytest.raises(ValueError):
        f(3, PointAtLevel(2, (1, 0)))


def test_group_valued_map_caches_and_canonicalizes():
    m = GroupValuedMap(X_SMALL, (0, 3), 1, lambda x: GroupElement((5, -1)))
    v = m(PointAtLevel(2, (3, 1)))
    assert v.coords == (5, 2)
    assert m(PointAtLevel(1, (1, 1))) is v  # same fiber, cached object


# a concrete nontrivial witness on the 2-adic odometer: swap the two level-2
# cylinders above residue 1 mod 2 (x -> x+2 if x=1 mod 4, x-2 if x=3 mod 4)


def _swap_u_value(x0_mod4: int) -> int:
    if x0_mod4 % 4 == 1:
        return 2
    if x0_mod4 % 4 == 3:
        return -2
    return 0


def _swap_witness():
    spec = _spec(["2^inf"])

    u = GroupValuedMap(spec, (0,), 2, lambda x: GroupElement((_swap_u_value(x.residues[0]),)))

    def phi_eval(k, xp):
        shift = _swap_u_value(xp.residues[0] % 4)
        return act(spec, k, GroupElement((shift,)), PointAtLevel(k, (xp.residues[0] % 2**k,)))

    def lm(k):
        return max(k, 2)

    phi = LCMap(spec, spec, lm, phi_eval, "swap")
    psi = LCMap(spec, spec, lm, phi_eval, "swap-back")  # the swap is an involution

    def a_eval(xp):
        x = xp.residues[0]
        return GroupElement((_swap_u_value((x + 1) % 4) + 1 - _swap_u_value(x % 4),))

    gen = GroupValuedMap(spec, (0,), 2, a_eval)
    table = CocycleTable(spec, (0,), (gen,))
    return spec, u, CoeWitness(phi, table, psi, table)


def test_swap_witness_passes_all_checks():
    _, _, w = _swap_witness()
    report = verify_coe(w, level=3, radius=4)
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
    u = GroupValuedMap(
        spec, (0, 0), 1, lambda x: GroupElement((x.residues[0] % 2, x.residues[1] % 3))
    )
    a = twist(base.a, u)
    assert verify_cocycle_identity(a, radius=3).passed
    for g in [GroupElement((2, -1)), GroupElement((-3, 2)), GroupElement((1, 1))]:
        for x in enumerate_points(spec, 2):
            assert extend_cocycle(a, g, x, order=(0, 1)) == extend_cocycle(
                a, g, x, order=(1, 0)
            )


def test_twist_twice_matches_twist_by_sum():
    spec = _spec(["2^inf", 3])
    base = identity_witness(spec)
    u = GroupValuedMap(spec, (0, 3), 1, lambda x: GroupElement((x.residues[0] % 2, 1)))
    v = GroupValuedMap(
        spec, (0, 3), 2, lambda x: GroupElement((0, x.residues[1] + x.residues[0] % 4))
    )
    uv = GroupValuedMap(
        spec,
        (0, 3),
        2,
        lambda x: GroupElement(
            (
                u(x).coords[0] + v(x).coords[0],
                u(x).coords[1] + v(x).coords[1],
            )
        ),
    )
    lhs = twist(twist(base.a, u), v)
    rhs = twist(base.a, uv)
    for i in range(spec.rank):
        for x in enumerate_points(spec, 3):
            assert lhs.generators[i](x) == rhs.generators[i](x)


def test_twist_then_untwist_by_negation_restores():
    spec = _spec(["2^inf", 3])
    base = identity_witness(spec)
    u = GroupValuedMap(spec, (0, 3), 1, lambda x: GroupElement((x.residues[0], 2)))
    neg_u = GroupValuedMap(
        spec, (0, 3), 1, lambda x: GroupElement((-u(x).coords[0], -u(x).coords[1]))
    )
    back = twist(twist(base.a, u), neg_u)
    for i in range(spec.rank):
        for x in enumerate_points(spec, 3):
            assert back.generators[i](x) == base.a.generators[i](x)


def test_verify_locates_broken_equivariance():
    w = identity_witness(X_SMALL)
    bad_gen = GroupValuedMap(X_SMALL, (0, 3), 0, lambda x: GroupElement((1, 1)))
    bad_a = CocycleTable(X_SMALL, (0, 3), (bad_gen, w.a.generators[1]))
    broken = CoeWitness(w.phi, bad_a, w.psi, w.b)
    report = verify_coe(broken, level=2, radius=3)
    assert not report.passed
    failing = {c.name for c in report.checks if not c.ok}
    assert "phi-equivariance" in failing
    eq = next(c for c in report.checks if c.name == "phi-equivariance")
    assert eq.violations  # counterexamples are reported


def test_verify_locates_noninjective_cocycle():
    spec = _spec([4])
    phi = identity_lcmap(spec)
    doubling = homomorphism_cocycle(spec, [(2,)], (4,))
    w = CoeWitness(phi, doubling, identity_lcmap(spec), doubling)
    report = verify_coe(w, level=1, radius=3)
    assert not report.passed
    failing = {c.name for c in report.checks if not c.ok}
    # b o a = id on the whole group implies injectivity; doubling breaks it
    assert "b-inverts-a" in failing


def test_compose_and_inverse_round_trip():
    spec, _, w = _swap_witness()
    round_trip = compose_coe(w, inverse_coe(w))
    report = verify_coe(round_trip, level=3, radius=3)
    assert report.passed, report.summary()
    ident = identity_witness(spec)
    both = compose_coe(round_trip, ident)
    assert verify_coe(both, level=2, radius=2).passed


def _identity_iso(group):
    n = len(group)
    eye = IntMatrix.identity(n)
    return GroupIso(group, group, eye, eye)


def test_untwist_recovers_identity_conjugacy():
    spec, u, w = _swap_witness()
    rho = _identity_iso((0,))
    cw = untwist_to_conjugacy(w, u, rho, level=3, radius=4)
    for x in enumerate_points(spec, 3):
        assert cw.phi(3, x) == x
    assert verify_conj(cw, level=3, radius=4).passed


def test_untwist_rejects_wrong_transfer():
    spec, _, w = _swap_witness()
    zero = GroupValuedMap(spec, (0,), 0, lambda x: GroupElement((0,)))
    with pytest.raises(ValueError, match="premise"):
        untwist_to_conjugacy(w, zero, _identity_iso((0,)), level=3, radius=3)


def test_conj_witness_between_cyclic_products():
    # x = (a mod 2, b mod 3) corresponds to 3a + 4b mod 6
    src = _spec([2, 3])
    tgt = _spec([6])
    rho = GroupIso(
        (2, 3), (6,), IntMatrix.from_rows([[3, 4]]), IntMatrix.from_rows([[1], [1]])
    )
    assert rho.defects() == []
    phi = LCMap(
        src, tgt, lambda k: k,
        lambda k, x: PointAtLevel(k, ((3 * x.residues[0] + 4 * x.residues[1]) % 6,)),
    )
    phi_inv = LCMap(
        tgt, src, lambda k: k,
        lambda k, y: PointAtLevel(k, (y.residues[0] % 2, y.residues[0] % 3)),
    )
    cw = ConjWitness(rho, phi, phi_inv)
    report = verify_conj(cw, level=2, radius=3)
    assert report.passed, report.summary()
    coe = conj_to_coe(cw)
    assert verify_coe(coe, level=2, radius=3).passed


def test_group_iso_defect_reporting():
    bad = GroupIso((2, 3), (6,), IntMatrix.from_rows([[1, 1]]), IntMatrix.from_rows([[1], [1]]))
    assert bad.defects()  # 1 is not killed by 2 in Z/6


def test_level_slack_finds_true_locality():
    spec = _spec(["2^inf", 3])
    padded = GroupValuedMap(spec, (0, 3), 3, lambda x: GroupElement((x.residues[0] % 2, 0)))
    assert level_slack(padded) == 2
    constant = GroupValuedMap(spec, (0, 3), 3, lambda x: GroupElement((7, 1)))
    assert level_slack(constant) == 3
    spec2, _, w = _swap_witness()
    assert level_slack(w.a.generators[0]) == 0
