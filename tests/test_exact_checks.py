"""The grid oracle's coe and conj verifiers check identities on generators;
the box sweeps in box_oracle check them element by element on a box.  Their
verdicts must agree on valid witnesses and on seeded single-entry table
mutations, and on a witness given by pieces the library's verdict must be
theirs.  Likewise verify_chain, which checks an orbit-equivalence chain
stage by stage by its pieces, must agree with the grid oracle on the
chain's composite."""
from __future__ import annotations

import copy
import random
from dataclasses import replace

import numpy as np
import pytest

import grid_oracle
from composite import compose_chain, composite_scale, identity_witness, only_part
from box_oracle import (
    box_identity,
    box_verify_coe,
    box_verify_conj,
    witness_from_tables,
    witness_tables,
)
from grid_oracle import (
    CocycleTable,
    GroupValuedMap,
    LCMap,
    _Grid,
    as_table,
    constant_generator,
    cylinder_index,
)
from orbitcert import cocycle
from orbitcert.cocycle import CoeWitness, homomorphism_cocycle, inverse_coe
from orbitcert.chain import CoeChain, Stage, StagePart, verify_chain
from orbitcert.decide import coe_decide, conj_decide
from orbitcert.dynamics import (
    Cyclic,
    Odometer,
    PointAtLevel,
    SystemSpec,
    generator,
)
from orbitcert.supernatural import parse_sn, parse_sn_list
from orbitcert.witness import (
    build_basic_coe,
    build_coe_witness,
    build_conj_witness,
    build_finite_coe,
)

README_PAIR = ("5*2^inf,3^inf", "2^inf,5*3^inf")
RANK2_PAIRS = [
    ("3*2^inf,5^inf", "2^inf,3*5^inf"),
    ("2*3^inf,5^inf", "3^inf,2*5^inf"),
    ("2^inf,5*3^inf", "5*2^inf,3^inf"),
]


def _chain(pair):
    return build_coe_witness(parse_sn_list(pair[0]), parse_sn_list(pair[1]))


def _witness(pair):
    """The chain's composite, one table each way."""
    return compose_chain(_chain(pair))


def _cyclic_source():
    # cyc:5 x odo:2^inf -> odo:5*2^inf, the inverse of a seam split
    return inverse_coe(build_basic_coe(5, parse_sn("2^inf")))


def _exact(w, level, conj=False):
    """The grid oracle's report on w held as tables; on a witness given by
    pieces the library's verify_coe or verify_conj gives the same verdict."""
    report = (grid_oracle.verify_conj if conj else grid_oracle.verify_coe)(w, level)
    if isinstance(w.phi, cocycle.LCMap):
        assert (cocycle.verify_conj if conj else cocycle.verify_coe)(w, level).passed == \
            report.passed
    return report


def _agree(w, level, radius):
    """Same verdict, and the same roundtrip checks: both verifiers compare
    psi(phi(x)) with x on the same grid."""
    exact = _exact(w, level)
    box = box_verify_coe(w, level, radius)
    detail = exact.summary() + "\n" + box.summary()
    assert exact.passed == box.passed, detail
    roundtrips = ("psi-after-phi", "phi-after-psi")
    assert [(c.name, c.checked, c.ok) for c in exact.checks if c.name in roundtrips] == \
        [(c.name, c.checked, c.ok) for c in box.checks if c.name in roundtrips], detail
    return exact.passed


def test_readme_pair_agrees_at_level_3_radius_6():
    assert _agree(_witness(README_PAIR), 3, 6)


@pytest.mark.parametrize("pair", RANK2_PAIRS, ids=lambda p: f"{p[0]}|{p[1]}")
def test_rank2_witnesses_agree(pair):
    assert _agree(_witness(pair), 2, 3)


def test_cyclic_source_witnesses_agree():
    w = _cyclic_source()
    assert isinstance(w.source.factors[0], Cyclic)
    assert _agree(w, 2, 3)
    assert _agree(build_finite_coe((2, 3), (6,)), 1, 3)


def _mutate(tables: dict, key: str, rng: random.Random) -> dict:
    """Change one entry of one table, keeping point tables in range."""
    out = copy.deepcopy(tables)
    if key in ("a", "b"):
        gens = out[key]["generators"]
        table = gens[rng.randrange(len(gens))]
        p = rng.randrange(table.shape[1])
        table[rng.randrange(len(table)), p] += rng.choice([-3, -2, -1, 1, 2, 3, 7])
        return out
    spec = out["target" if key == "phi" else "source"]
    mods = spec.space_moduli(out[key]["out_level"])
    table = out[key]["table"]
    p = rng.randrange(table.shape[1])
    c = rng.choice([j for j, m in enumerate(mods) if m > 1])
    table[c, p] = (table[c, p] + rng.randrange(1, mods[c])) % mods[c]
    return out


@pytest.mark.parametrize("case", ["readme", "rank2-0", "rank2-1", "cyclic-source"])
def test_single_entry_mutations_agree(case):
    w = {
        "readme": lambda: _witness(README_PAIR),
        "rank2-0": lambda: _witness(RANK2_PAIRS[0]),
        "rank2-1": lambda: _witness(RANK2_PAIRS[1]),
        "cyclic-source": _cyclic_source,
    }[case]()
    tables = witness_tables(w, 2)
    rng = random.Random(f"mutations-{case}")
    for k in range(8):  # two mutations of each of a, b, phi, psi
        key = ("a", "b", "phi", "psi")[k % 4]
        _agree(witness_from_tables(_mutate(tables, key, rng)), 2, 2)


@pytest.mark.parametrize("n", [5, 7, 11])
def test_orbit_sum_violation_needs_only_radius_one(n):
    # constant 1 -> Z on Z/n sums to n around the orbit, not 0
    spec = SystemSpec((Cyclic(n),))
    assert not cocycle.verify_cocycle_identity(homomorphism_cocycle(spec, [(1,)], (0,))).passed
    a = CocycleTable(spec, (0,), (constant_generator(spec, (0,), (1,)),))
    assert not grid_oracle.verify_cocycle_identity(a).passed
    assert not box_identity("box", a, 1, 10**6).ok  # through the pair (-1, +1)
    assert box_identity("box", a, 0, 10**6).ok  # the box {0} sees nothing


def test_commutation_violation_is_located():
    spec = SystemSpec((Odometer(parse_sn("2^inf")), Odometer(parse_sn("3^inf"))))
    f0 = GroupValuedMap.tabulate(
        spec, (0, 0), 1, lambda res: np.stack((np.ones(res.shape[1], int), res[1] % 3))
    )
    f1 = constant_generator(spec, (0, 0), (0, 1))
    report = grid_oracle.verify_cocycle_identity(CocycleTable(spec, (0, 0), (f0, f1)))
    assert not report.passed
    assert "exact over the acting group" in report.summary()
    assert report.checks[0].violations[0][1] == "e0+e1 = e1+e0"


def test_inverse_check_cost_does_not_grow_with_cocycle_values():
    # a(e, x) = 10**9 would take 10**9 unit steps to telescope; the prefix
    # sums answer in one lookup per factor and the check fails at once, on
    # pieces and on the grid oracle's tables alike
    spec = SystemSpec((Odometer(parse_sn("2^inf")),))
    w = identity_witness(spec)
    big = homomorphism_cocycle(spec, [(10**9,)], (0,))
    for report in (cocycle.verify_coe(CoeWitness(w.phi, big, w.psi, w.b), level=2),
                   _exact(CoeWitness(w.phi, big, w.psi, w.b), 2)):
        failing = {c.name for c in report.checks if not c.ok}
        assert "b-inverts-a" in failing


def test_values_beyond_exact_int64_range_are_refused():
    spec = SystemSpec((Cyclic(4),))
    a = CocycleTable(spec, (0,), (constant_generator(spec, (0,), (2**61,)),))
    with pytest.raises(ValueError, match="too large"):
        grid_oracle.verify_cocycle_identity(a)


# ---------------------------------------------------------------------------
# chains: stage by stage against the composite


def _chain_agrees(chain, level):
    staged = verify_chain(chain, level)
    whole = grid_oracle.verify_coe(compose_chain(chain), level)
    assert staged.passed == whole.passed, staged.summary() + "\n" + whole.summary()
    return staged.passed


def test_chain_and_composite_agree_on_the_corpus():
    # desk_instances screens by the chain's own grids; keep the pairs whose
    # composite fits the same budget
    pairs = [(ms, ns) for ms, ns in grid_oracle.desk_instances(17, 200)
             if len(ms) <= 2 and coe_decide(ms, ns)
             and composite_scale(build_coe_witness(ms, ns), 4) <= 60_000]
    pairs.append(tuple(map(parse_sn_list, README_PAIR)))
    assert len(pairs) >= 20
    for ms, ns in pairs:
        assert _chain_agrees(build_coe_witness(ms, ns), 4), (ms, ns)


def _mutate_part(part, key: str, rng: random.Random):
    """The part with one entry changed by a step every level that reads it
    sees: +-1 on one piece's offset in a component that is not Z/1, or a
    step its target group does not kill on one cylinder's cocycle value.
    A generator of a trivial Z/1 factor is the zero element, which no
    composite reads, so its column is left alone."""
    w = part.witness
    if key in ("a", "b"):
        a = getattr(w, key)
        group = a.target_group
        gens = [i for i, m in enumerate(a.source.group_moduli()) if m != 1]
        cols = [c for c, m in enumerate(group) if m != 1]
        if not gens or not cols:
            return None
        c, i, r = rng.choice(cols), rng.choice(gens), rng.randrange(len(a.values))
        step = rng.choice([d for d in (-3, -2, -1, 1, 2, 3) if not group[c] or d % group[c]])
        values = list(a.values)
        values[r] = tuple(tuple(v + step if (j, t) == (i, c) else v for t, v in enumerate(col))
                          for j, col in enumerate(values[r]))
        mutant = replace(a, values=tuple(values))
    else:
        f = getattr(w, key)
        cols = [c for c, factor in enumerate(f.target.factors)
                if not isinstance(factor, Cyclic) or factor.n > 1]
        if not cols:
            return None
        c, p = rng.choice(cols), rng.randrange(len(f.pieces))
        t, rows = f.pieces[p]
        t = tuple(v + rng.choice([-1, 1]) if j == c else v for j, v in enumerate(t))
        mutant = cocycle.LCMap(f.source, f.target, f.level_map,
                               f.pieces[:p] + ((t, rows),) + f.pieces[p + 1:], f.moduli, f.name)
    return replace(part, witness=replace(w, **{key: mutant}))


@pytest.mark.parametrize("pair", [README_PAIR, RANK2_PAIRS[0]], ids=["readme", "rank2-0"])
def test_stage_part_mutations_fail_both_checks(pair):
    chain = _chain(pair)
    rng = random.Random(f"chain-mutations-{pair}")
    failed = {"a": 0, "b": 0, "phi": 0, "psi": 0}
    made = 0
    while made < 16:  # four mutations of each of a, b, phi, psi
        key = ("a", "b", "phi", "psi")[made % 4]
        k = rng.randrange(len(chain.stages))
        stage = chain.stages[k]
        p = rng.randrange(len(stage.parts))
        part = _mutate_part(stage.parts[p], key, rng)
        if part is None:
            continue
        made += 1
        parts = stage.parts[:p] + (part,) + stage.parts[p + 1:]
        stages = chain.stages[:k] + (replace(stage, parts=parts),) + chain.stages[k + 1:]
        mutant = replace(chain, stages=stages)
        assert not verify_chain(mutant, 2).passed, (key, k, p)
        assert not grid_oracle.verify_coe(compose_chain(mutant), 2).passed, (key, k, p)
        failed[key] += 1
    assert all(v == 4 for v in failed.values()), failed


def test_stage_levels_follow_the_composite_reads():
    # merge a 2-cycle into the 2-adic odometer, then split it off again:
    # the split reads one binary digit deeper, and so does the merge's
    # inverse, so both stages run one level above the requested one
    seam = build_basic_coe(2, parse_sn("2^inf"))
    odo, split = seam.source, seam.target
    chain = CoeChain(split, split, (
        Stage(split, odo, (StagePart("split^-1", inverse_coe(seam), (0, 1), (0,)),)),
        Stage(odo, split, (StagePart("split", seam, (0,), (0, 1)),)),
    ))
    whole = compose_chain(chain)
    for level in (1, 2, 3):
        assert chain.phi_levels(level)[0] == whole.phi.input_level(level) == level + 1
        assert chain.psi_levels(level)[-1] == whole.psi.input_level(level) == level + 1
        assert chain.stage_levels(level) == [level + 1, level + 1]
    report = verify_chain(chain, 2)
    assert report.passed, report.summary()
    assert report.checks[0].name == "stage 0 @3: seams"
    assert report.checks[-1].name == "stage 1 part 0 (split) @3: cocycle-identity-b"
    assert _chain_agrees(chain, 2)


def test_miswired_part_fails_the_seam_check():
    chain = _chain(README_PAIR)
    merge = chain.stages[1]
    finite = merge.parts[0]
    # the finite merge reads the cycles at factors 0 and 2; point it at the
    # odometer at factor 1 instead
    wrong = replace(finite, reads=(0, 1))
    stages = (chain.stages[0], replace(merge, parts=(wrong,) + merge.parts[1:])) + chain.stages[2:]
    report = verify_chain(replace(chain, stages=stages), 2)
    failing = [c for c in report.checks if not c.ok]
    assert [c.name for c in failing] == ["stage 1 @2: seams"]
    assert any("part 0 (finite)" in v[1] for v in failing[0].violations)
    assert any("partition" in v[1] for v in failing[0].violations)


# ---------------------------------------------------------------------------
# conjugacies: orbit equivalences with homomorphism cocycles, against the
# table shift and rho and rho^-1 checked as integer matrices over the box


def _cyclic_product_conj() -> CoeWitness:
    # x = (a mod 2, b mod 3) corresponds to 3a + 4b mod 6
    src = SystemSpec((Cyclic(2), Cyclic(3)))
    tgt = SystemSpec((Cyclic(6),))
    phi = LCMap(src, tgt, lambda k: k, lambda k, res: ((3 * res[0] + 4 * res[1]) % 6)[None, :])
    psi = LCMap(tgt, src, lambda k: k, lambda k, res: res % np.array([[2], [3]]))
    return CoeWitness(phi, homomorphism_cocycle(src, [(3,), (4,)], (6,)),
                      psi, homomorphism_cocycle(tgt, [(1, 1)], (2, 3)))


README_CONJ = ("2*5^inf,3*5^inf", "3*5^inf,2*5^inf")
CRT_MERGE = ("2*7^inf,3*7^inf", "6*7^inf,7^inf")
CONJ_CASES = {
    "readme": lambda: only_part(build_conj_witness(*map(parse_sn_list, README_CONJ))),
    "crt-merge": lambda: only_part(build_conj_witness(*map(parse_sn_list, CRT_MERGE))),
    "cyclic-product": _cyclic_product_conj,
}
INVERSE_OR_RELATION = {"b-inverts-a", "a-inverts-b", "cocycle-identity-a", "cocycle-identity-b"}


def _agree_conj(cw, level, radius=6):
    """Same verdict, the same check names and the same homomorphism check.
    The box reads rho off the first row of each table, so while
    homomorphism holds the outcomes also agree check by check, and the
    equivariance and roundtrip checks count the same grid points; the
    inverse and relation checks count box elements instead."""
    exact = _exact(cw, level, conj=True)
    box = box_verify_conj(cw, level, radius)
    detail = exact.summary() + "\n" + box.summary()
    assert [c.name for c in exact.checks] == [c.name for c in box.checks], detail
    hom = exact.checks[0]
    assert (hom.checked, hom.ok) == (box.checks[0].checked, box.checks[0].ok), detail
    if hom.ok:
        for e, b in zip(exact.checks, box.checks):
            assert e.ok == b.ok, detail
            if e.name not in INVERSE_OR_RELATION:
                assert e.checked == b.checked, detail
    assert exact.passed == box.passed, detail
    return exact.passed


@pytest.mark.parametrize("case, level", [("readme", 3), ("crt-merge", 2), ("cyclic-product", 2)])
def test_conj_witnesses_agree(case, level):
    assert _agree_conj(CONJ_CASES[case](), level)


def test_conj_report_is_homomorphism_then_the_coe_checks():
    for cw, verify_conj, verify_coe in (
            (CONJ_CASES["cyclic-product"](), grid_oracle.verify_conj, grid_oracle.verify_coe),
            (CONJ_CASES["readme"](), cocycle.verify_conj, cocycle.verify_coe)):
        exact = verify_conj(cw, 2)
        assert [c.name for c in exact.checks] == (
            ["homomorphism"] + [c.name for c in verify_coe(cw, 2).checks])
        assert exact.kind == "conj-witness"


def test_orbit_equivalence_that_is_no_conjugacy_fails_only_homomorphism():
    w = _witness(README_PAIR)
    assert grid_oracle.verify_coe(w, 2).passed
    report = grid_oracle.verify_conj(w, 2)
    assert [c.name for c in report.checks if not c.ok] == ["homomorphism"], report.summary()
    assert not _agree_conj(w, 2, radius=2)


def _mutate_hom(tables: dict, key: str, every_row: bool, rng: random.Random) -> dict:
    """Change rho ("a") or rho^-1 ("b") on one generator by a step its
    target group does not kill: in every row of the table alike, or in one
    row of the table spread over the next finer grid."""
    out = copy.deepcopy(tables)
    block = out[key]
    spec = out["source" if key == "a" else "target"]
    if not every_row:
        res = _Grid(spec, block["level"] + 1).res
        block["generators"] = [g[:, cylinder_index(spec, block["level"], res)]
                               for g in block["generators"]]
        block["level"] += 1
    group = block["target_group"]
    c = rng.randrange(len(group))
    step = rng.choice([d for d in (-2, -1, 1, 2) if not group[c] or d % group[c]])
    gen = block["generators"][rng.randrange(len(block["generators"]))]
    gen[c, slice(None) if every_row else rng.randrange(gen.shape[1])] += step
    return out


@pytest.mark.parametrize("case", sorted(CONJ_CASES))
def test_conj_single_entry_mutations_agree(case):
    cw = CONJ_CASES[case]()
    level = 2
    # the witness as plain tables, at every level the checks read them
    tables = witness_tables(cw, level)
    rng = random.Random(f"conj-mutations-{case}")
    failed = {"phi": 0, "psi": 0}
    for k in range(8):  # phi, psi, one row of rho, all of rho; twice each
        key = ("phi", "psi", "row", "every")[k % 4]
        if key in failed:
            mutant = witness_from_tables(_mutate(tables, key, rng))
            failed[key] += not _agree_conj(mutant, level, radius=2)
            continue
        mutant = witness_from_tables(_mutate_hom(tables, "ab"[k // 4], key == "every", rng))
        assert not _agree_conj(mutant, level, radius=2)
        report = grid_oracle.verify_conj(mutant, level)
        failing = {c.name for c in report.checks if not c.ok}
        if key == "row":
            assert "homomorphism" in failing, report.summary()
        else:
            assert "homomorphism" not in failing and failing & INVERSE_OR_RELATION, \
                report.summary()
    assert all(failed.values()), failed


# ---------------------------------------------------------------------------
# the per-component kernels at the seams of the grid: a point map changed
# where an e_i-translate wraps around, and at an interior point


def _poke(f: LCMap, level: int, point: tuple[int, ...], comp: int) -> LCMap:
    """f, held as a table, with component comp of its level-`level` image
    of `point`, given by residues at f's input level, moved by one."""
    f = as_table(f)
    mods = f.target.space_moduli(level)

    def table(k: int, res: np.ndarray) -> np.ndarray:
        out = f.table(k, res)
        if k == level:
            at = np.flatnonzero((res == np.array(point)[:, None]).all(axis=0))
            out = out.copy()
            out[comp, at] = (out[comp, at] + 1) % mods[comp]
        return out

    return replace(f, table=table, name=f"{f.name}*")


KERNEL_CASES = {
    "readme-conj": CONJ_CASES["readme"],  # two axes, two components
    "split": lambda: build_basic_coe(5, parse_sn("2^inf")),  # one axis, two components
    "merge": _cyclic_source,  # the split's inverse: two axes, one component
}


def _kernel_pokes(w: CoeWitness, level: int):
    """(point, component): for each axis i every component at the last
    residue along i, whose e_i-translate wraps, then every component at an
    interior point."""
    mods = w.source.space_moduli(w.phi.input_level(level))
    interior = tuple(m // 2 for m in mods)
    assert all(0 < r < m - 1 for r, m in zip(interior, mods))
    for i, m in enumerate(mods):
        for c in range(w.target.rank):
            yield interior[:i] + (m - 1,) + interior[i + 1:], c
    for c in range(w.target.rank):
        yield interior, c


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_kernel_mutations_at_wrapping_and_interior_points(case):
    w = KERNEL_CASES[case]()
    level = 2
    conj = case.endswith("conj")
    made = 0
    for point, comp in _kernel_pokes(w, level):
        mutant = replace(w, phi=_poke(w.phi, level, point, comp))
        report = _exact(mutant, level, conj)
        checks = {c.name: c for c in report.checks}
        where = PointAtLevel(w.phi.input_level(level), point)
        detail = (point, comp, report.summary())
        # every generator's comparison reports the point, the wrapping one too
        seen = {(v[1], v[2]) for v in checks["phi-equivariance"].violations}
        assert all((generator(w.source, i), where) in seen
                   for i in range(w.source.rank)), detail
        assert where in [v[1] for v in checks["psi-after-phi"].violations], detail
        assert not checks["phi-after-psi"].ok, detail
        assert not (_agree_conj(mutant, level, radius=2) if conj else _agree(mutant, level, 2))
        made += 1
    assert made == {"readme-conj": 6, "split": 4, "merge": 3}[case]


# ---------------------------------------------------------------------------
# a conjugacy is one stage of block conjugacies: block by block against the
# composite, checked exactly and over the box

THREE_FACTOR = ("2^inf*3^inf,2^inf,2^inf", "2^inf,2^inf,2^inf*3^inf")
CROSSED = ("3^inf,3*2^inf,2^inf", "2^inf,3*2^inf,3^inf")


def _conj_verdicts(chain, level=2, radius=2):
    """verify_chain of the conjugacy claim, verify_conj on each part, then
    verify_conj and the box oracle on the chain's composite."""
    whole = compose_chain(chain)
    return (verify_chain(chain, level, "conj").passed,
            grid_oracle.verify_conj(whole, level).passed,
            box_verify_conj(whole, level, radius).passed)


def test_conj_chain_and_composite_agree_on_the_corpus():
    pairs = list(dict.fromkeys(p for p in grid_oracle.desk_instances(17, 200) if conj_decide(*p)))
    pairs += [tuple(map(parse_sn_list, pair)) for pair in (README_CONJ, CRT_MERGE)]
    assert len(pairs) == 51
    for ms, ns in pairs:
        chain = build_conj_witness(ms, ns)
        # a composite beyond the verifier's limit at level 2 is compared at
        # level 1: desk_instances screens by its parts' grids, not by it
        level = 2 if composite_scale(chain, 2) <= 5 * 10**6 else 1
        assert _conj_verdicts(chain, level) == (True, True, True), (ms, ns, level)


@pytest.mark.parametrize("pair, tables", [(THREE_FACTOR, 4), (CROSSED, 4), (README_CONJ, 2)],
                         ids=["three-factor", "crossed", "readme"])
def test_conj_block_mutations_fail_all_three(pair, tables):
    # each mutates one block's part, in its tables at level `tables`; the
    # README block's level-4 tables would hold 2,343,750 points
    ms, ns = map(parse_sn_list, pair)
    chain = build_conj_witness(ms, ns)
    (stage,) = chain.stages
    assert len(stage.parts) == len(conj_decide(ms, ns).blocks)
    rng = random.Random(f"conj-block-mutations-{pair}")
    made = 0
    while made < 8:  # two mutations of each of a, b, phi, psi
        key = ("a", "b", "phi", "psi")[made % 4]
        p = rng.randrange(len(stage.parts))
        part = _mutate_part(stage.parts[p], key, rng)
        if part is None:
            continue
        made += 1
        parts = stage.parts[:p] + (part,) + stage.parts[p + 1:]
        mutant = replace(chain, stages=(replace(stage, parts=parts),))
        assert _conj_verdicts(mutant) == (False, False, False), (key, p)


def test_part_checks_follow_the_claim_not_the_part_label():
    # an orbit equivalence that is no conjugacy, labelled as a conj block:
    # the relation claimed decides what is checked, not the label
    w = build_basic_coe(5, parse_sn("2^inf"))
    part = StagePart("conj", w, (0,), (0, 1))
    chain = CoeChain(w.source, w.target, (Stage(w.source, w.target, (part,)),))
    as_coe = verify_chain(chain, 2)
    assert as_coe.passed and as_coe.kind == "coe-witness"
    as_conj = verify_chain(chain, 2, "conj")
    assert as_conj.kind == "conj-witness"
    assert [c.name for c in as_conj.checks if not c.ok] == [
        "stage 0 part 0 (conj) @2: homomorphism"], as_conj.summary()


def test_two_parts_wired_alike_fail_only_the_seams():
    # the README block twice over: each part is a conjugacy of the factors
    # it is wired to, but the two read and write the same factors, which
    # the seams refuse whatever the claim
    chain = build_conj_witness(*map(parse_sn_list, README_CONJ))
    (stage,) = chain.stages
    (part,) = stage.parts
    twice = replace(chain, stages=(replace(stage, parts=(part, part)),))
    for relation in ("coe", "conj"):
        report = verify_chain(twice, 3, relation)
        assert [c.name for c in report.checks if not c.ok] == ["stage 0 @3: seams"], \
            report.summary()
        assert [v[1] for v in report.checks[0].violations] == [
            f"the parts' {side} do not partition the 2 factors" for side in ("reads", "writes")]
