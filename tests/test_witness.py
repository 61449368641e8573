from __future__ import annotations

import math
import operator
import random
from dataclasses import replace

import numpy as np
import pytest

import grid_oracle
from box_oracle import (
    GroupElement,
    act,
    enumerate_points,
    image,
    locality_slack as _slack,
)
from composite import compose_chain, direct_sum_coe, permutation_witness
from grid_oracle import _Grid, as_table
from orbitcert.chain import verify_chain
from orbitcert.cocycle import (
    verify_cocycle_identity,
    verify_coe,
    verify_conj,
)
from orbitcert.decide import conj_decide
from orbitcert.dynamics import (
    Cyclic,
    Odometer,
    PointAtLevel,
    SystemSpec,
    level_modulus,
)
from orbitcert.intmat import invert_unimodular
from orbitcert.selftest import conj_positive_pair, generate_instances
from orbitcert.supernatural import parse_sn, parse_sn_list
from orbitcert.witness import (
    build_basic_coe,
    build_coe_witness,
    build_conj_witness,
    build_finite_coe,
)


def test_basic_split_five():
    w = build_basic_coe(5, parse_sn("2^inf"))
    assert w.source == SystemSpec((Odometer(parse_sn("5*2^inf")),))
    assert w.target == SystemSpec((Cyclic(5), Odometer(parse_sn("2^inf"))))
    report = verify_coe(w, level=3)
    assert report.passed, report.summary()
    # the seam cocycle reads one digit: locality is exactly the 5-divisible level
    assert w.a.level == 1 and w.a.moduli == (5,)
    assert _slack(as_table(w.a).generators[0]) == 0


def test_basic_split_shared_prime():
    w = build_basic_coe(2, parse_sn("2^inf"))
    assert w.phi.level_map(3) == 4  # one extra binary digit feeds the split
    assert verify_coe(w, level=3).passed


def test_basic_split_trivial_cycle():
    w = build_basic_coe(1, parse_sn("3^inf"))
    assert verify_coe(w, level=3).passed
    x = PointAtLevel(3, (7,))
    assert image(w.phi, 3, x).residues == (0, 7)


def test_finite_merge_roundtrip():
    w = build_finite_coe((2, 3), (6,))
    report = verify_coe(w, level=2)
    assert report.passed, report.summary()
    assert image(w.phi, 0, PointAtLevel(0, (1, 2))).residues == (5,)


def test_finite_merge_rejects_size_mismatch():
    with pytest.raises(ValueError, match="equal size"):
        build_finite_coe((2, 3), (5,))


def test_permutation_witness():
    # the composite reference's reordering move
    spec = SystemSpec((Cyclic(2), Odometer(parse_sn("3^inf")), Cyclic(5)))
    w = permutation_witness(spec, (2, 0, 1))
    assert w.target.factors == (Cyclic(5), Cyclic(2), Odometer(parse_sn("3^inf")))
    assert grid_oracle.verify_coe(w, level=2).passed
    with pytest.raises(ValueError, match="permutation"):
        permutation_witness(spec, (0, 0, 1))


def test_direct_sum_of_splits():
    # the composite reference's factorwise product
    w = direct_sum_coe(
        [build_basic_coe(5, parse_sn("2^inf")), build_basic_coe(1, parse_sn("3^inf"))]
    )
    assert w.source.rank == 2 and w.target.rank == 4
    assert grid_oracle.verify_coe(w, level=2).passed


M_EXAMPLE = parse_sn_list("5*2^inf, 3^inf")
N_EXAMPLE = parse_sn_list("2^inf, 5*3^inf")


def test_example_pair_witness_verifies_at_acceptance_scale():
    w = build_coe_witness(M_EXAMPLE, N_EXAMPLE)
    report = verify_chain(w, level=4)
    assert report.passed, report.summary()
    assert [[p.kind for p in st.parts] for st in w.stages] == [
        ["split", "split"], ["finite", "identity", "identity"],
        ["finite^-1", "identity^-1", "identity^-1"], ["split^-1", "split^-1"]]


def test_identity_shortcut():
    ms = parse_sn_list("2^inf, 3^inf")
    w = build_coe_witness(ms, ms)
    assert len(w.stages) == 1
    assert verify_chain(w, level=3).passed
    composite = compose_chain(w)
    for x in enumerate_points(w.source, 3):
        assert image(composite.phi, 3, x) == x


def test_permuted_sides_are_wiring():
    # equal factors are matched in order, each onto an unused one
    ms = parse_sn_list("2^inf, 2^inf, 3*5^inf")
    ns = parse_sn_list("3*5^inf, 2^inf, 2^inf")
    w = build_coe_witness(ms, ns)
    (stage,) = w.stages
    assert [p.kind for p in stage.parts] == ["identity"] * 3
    assert [(p.reads, p.writes) for p in stage.parts] == [((0,), (1,)), ((1,), (2,)), ((2,), (0,))]
    for part in stage.parts:
        (i,), (j,) = part.reads, part.writes
        assert ms[i] == ns[j]
    report = verify_chain(w, level=3)
    assert report.passed, report.summary()
    composite = compose_chain(w)
    for x in enumerate_points(w.source, 3):
        r = x.residues
        assert image(composite.phi, 3, x).residues == (r[2], r[0], r[1])
    # rewired onto an unequal factor, the seams refuse the part
    wrong = replace(stage.parts[0], writes=(0,))
    parts = (wrong, stage.parts[1], replace(stage.parts[2], writes=(1,)))
    bad = verify_chain(replace(w, stages=(replace(stage, parts=parts),)), level=3)
    (seams,) = [c for c in bad.checks if not c.ok]
    assert seams.name == "stage 0 @3: seams"
    assert [v[1] for v in seams.violations] == [
        f"part {p} (identity) is wired to {idx}, whose factors are not its own"
        for p, idx in ((0, (0,)), (2, (1,)))]


def test_swapped_multiplier_witness():
    # same class, not a reordering: the multipliers 9 and 1 become 3 and 3
    w = build_coe_witness(parse_sn_list("2^inf, 9*2^inf"), parse_sn_list("3*2^inf, 3*2^inf"))
    assert [[p.kind for p in st.parts] for st in w.stages] == [
        ["split", "split"], ["finite", "identity", "identity"],
        ["finite^-1", "identity^-1", "identity^-1"], ["split^-1", "split^-1"]]
    report = verify_chain(w, level=4)
    assert report.passed, report.summary()


def test_rebalanced_witness_for_absorbed_prime():
    # multiplier books differ by a factor of 3 absorbed in the 3^inf class
    ms = parse_sn_list("2^inf*3^inf, 3*2^inf")
    ns = parse_sn_list("2^inf*3^inf, 9*2^inf")
    w = build_coe_witness(ms, ns)
    report = verify_chain(w, level=3)
    assert report.passed, report.summary()


def test_rank3_witness_builds_with_genuine_cocycles():
    # its composite's generators spanned 450k-point grids; the parts' grids
    # stay small, so the chain verifies
    ms = parse_sn_list("5^inf, 2^inf*3^2*5, 2^inf*5^2")
    ns = parse_sn_list("5^inf, 2^inf*5^2, 2^inf*3^2")
    w = build_coe_witness(ms, ns)
    for stage in w.stages:
        for part in stage.parts:
            assert verify_cocycle_identity(part.witness.a).passed
            assert verify_cocycle_identity(part.witness.b).passed
    report = verify_chain(w, level=2)
    assert report.passed, report.summary()


def test_build_coe_witness_rejects_inequivalent():
    with pytest.raises(ValueError, match="not orbit equivalent"):
        build_coe_witness(parse_sn_list("2^inf"), parse_sn_list("3^inf"))


def test_witness_locality_is_tight():
    # every part is built at its own locality level, so nothing needs
    # minimizing
    w = build_coe_witness(M_EXAMPLE, N_EXAMPLE)
    for stage in w.stages:
        for part in stage.parts:
            for gen in as_table(part.witness.a).generators + as_table(part.witness.b).generators:
                assert _slack(gen) == 0


def test_conj_witness_swap_pair():
    ms = parse_sn_list("2*5^inf, 3*5^inf")
    ns = parse_sn_list("3*5^inf, 2*5^inf")
    report = verify_chain(build_conj_witness(ms, ns), 4, "conj")
    assert report.passed, report.summary()


def test_refused_level_checks_no_part(monkeypatch):
    # level 23 is beyond the conj point limit, and it is refused before
    # any part is checked, not after the (2^inf, 2^inf) block has passed
    from orbitcert import chain

    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return verify_conj(*args, **kwargs)

    monkeypatch.setattr(chain, "verify_conj", counting)
    w = build_conj_witness(parse_sn_list("2^inf*3^inf, 2^inf, 2^inf"),
                           parse_sn_list("2^inf, 2^inf, 2^inf*3^inf"))
    with pytest.raises(ValueError) as refused:
        verify_chain(w, 23, "conj")
    assert str(refused.value).startswith("level 23 is beyond the point limit 5000000")
    assert calls == []
    assert verify_chain(w, 22, "conj").passed and len(calls) == 2


def test_conj_witness_identity_case():
    ms = parse_sn_list("2^inf, 5^inf")
    cw = compose_chain(build_conj_witness(ms, ms))
    assert [tuple(g.values[:, 0]) for g in cw.a.generators] == [(1, 0), (0, 1)]
    assert grid_oracle.verify_conj(cw, level=3).passed
    for x in enumerate_points(cw.source, 3):
        assert image(cw.phi, 3, x) == x


def test_rank5_conjugacies_verify_at_level_5():
    # a block of rank r would hold at least 2^(5r) points at level 5;
    # checked by its matrices it reads no grid beyond its level-0 tables
    rng = random.Random(17)
    pairs: list = []
    while len(pairs) < 40:
        pair = conj_positive_pair(rng, max_rank=5)
        if pair not in pairs:
            pairs.append(pair)
    assert max(len(ms) for ms, _ns in pairs) == 5
    for ms, ns in pairs:
        report = verify_chain(build_conj_witness(ms, ns), 5, "conj")
        assert report.passed, report.summary()


def test_conj_witness_crt_merge():
    # Z/2 x Z/3 multipliers against Z/6 x Z/1 over the same base
    ms = parse_sn_list("2*7^inf, 3*7^inf")
    ns = parse_sn_list("6*7^inf, 7^inf")
    report = verify_chain(build_conj_witness(ms, ns), 3, "conj")
    assert report.passed, report.summary()


def _crt(a1, n1: int, a2, n2: int):
    """x = a1 mod n1 and x = a2 mod n2 for coprime moduli, elementwise."""
    if n1 == 1:
        return a2 % n2
    if n2 == 1:
        return a1 % n1
    t = ((a2 - a1) * pow(n1, -1, n2)) % n2
    return (a1 + n1 * t) % (n1 * n2)


def _crt_conj(ms, ns, forward: bool):
    """The conjugacy's point map built from the decision's blocks
    independently of the library's evaluator: per block, the finite
    multiplier coordinates and the common profinite part are mapped by S
    and glued by the Chinese remainder theorem, over whole arrays."""
    blocks = []
    for blk in conj_decide(ms, ns).blocks:
        s = blk.conjugator[0]
        blocks.append((
            (s if forward else invert_unimodular(s)).to_rows(),
            blk.left_indices if forward else blk.right_indices,
            blk.right_indices if forward else blk.left_indices,
            blk.left_multipliers if forward else blk.right_multipliers,
            blk.base,
        ))
    tgt_limits = ns if forward else ms

    def at_level(k: int):
        """ev(res): the images at level k of points at the input level, both
        one row per factor."""
        glue = []
        for rows, src_idx, tgt_idx, qs_src, base in blocks:
            lm_l = level_modulus(Odometer(base), k)
            outs = [(row, j, level_modulus(Odometer(tgt_limits[j]), k) // lm_l)
                    for row, j in zip(rows, tgt_idx)]
            glue.append((src_idx, qs_src, lm_l, outs))

        def ev(res: np.ndarray) -> np.ndarray:
            out = np.zeros((len(ms), res.shape[1]), dtype=np.int64)
            for src_idx, qs_src, lm_l, outs in glue:
                u = [res[i] % q for i, q in zip(src_idx, qs_src)]
                w = [res[i] for i in src_idx]
                for row, j, g in outs:
                    su = sum(map(operator.mul, row, u))
                    sw = sum(map(operator.mul, row, w))
                    out[j] = _crt(su % g, g, sw % lm_l, lm_l)
            return out

        return ev

    return at_level


def test_conj_vectorized_matches_pointwise():
    # rho on residues, read through the composite of the blocks, against the
    # per-block Chinese-remainder gluing, on every conj-positive seed-17
    # instance, the crt merge and the README pair: on every point of an input
    # grid within the verifier's default limit, and on a seeded sample of a
    # larger one (the whole system of a pair screened by its block grids)
    rng = np.random.default_rng(17)
    pairs = [(ms, ns) for ms, ns in generate_instances(17, 200) if conj_decide(ms, ns)] + [
        (parse_sn_list("2*7^inf, 3*7^inf"), parse_sn_list("6*7^inf, 7^inf")),
        (parse_sn_list("2*5^inf, 3*5^inf"), parse_sn_list("3*5^inf, 2*5^inf")),
    ]
    assert len(pairs) == 66
    for ms, ns in pairs:
        cw = compose_chain(build_conj_witness(ms, ns))
        for f, forward in ((cw.phi, True), (cw.psi, False)):
            crt = _crt_conj(ms, ns, forward)
            for k in range(4):
                mods = f.source.space_moduli(f.input_level(k))
                n = math.prod(mods)
                res = (_Grid(f.source, f.input_level(k)).res if n <= 10**6
                       else np.stack(np.unravel_index(rng.integers(0, n, 10**5), mods)))
                got, want = f.table(k, res), crt(k)(res)
                assert got.shape == want.shape and (got == want).all(), (ms, ns, k, forward)


def test_conj_witness_rejects_nonconjugate():
    with pytest.raises(ValueError, match="not conjugate"):
        build_conj_witness(parse_sn_list("2*5^inf, 2*5^inf"), parse_sn_list("4*5^inf, 5^inf"))


def test_conj_equivariance_is_exact_not_just_verified():
    ms = parse_sn_list("2*5^inf, 3*5^inf")
    ns = parse_sn_list("3*5^inf, 2*5^inf")
    cw = compose_chain(build_conj_witness(ms, ns))
    g = GroupElement((2, -1))
    rho = np.stack([t.values[:, 0] for t in cw.a.generators])  # row i is rho(e_i)
    h = GroupElement(tuple(int(v) for v in np.array(g.coords) @ rho))
    lvl = cw.phi.level_map(3)
    for x in enumerate_points(cw.source, lvl)[:40]:
        left = image(cw.phi, 3, act(cw.source, lvl, g, x))
        right = act(cw.target, 3, h, image(cw.phi, 3, x))
        assert left == right
