"""Linear parts, the one-piece case of orbitcert.linear, are checked by
integer conditions on their matrices and their cocycles' columns; a copy
of the same part held as plain tables (box_oracle.witness_tables) is
checked on grids by the grid oracle.  The two must agree on every linear
part of the seed-17 corpora, unmutated and with seeded mutations of one
matrix entry: in rho or rho^-1 itself (a point map and its cocycle's
columns alike), in a's columns only, or in phi's matrix only.  A linear
part is built and checked with no grid and no table at all."""
from __future__ import annotations

import random
from dataclasses import replace

import pytest

import grid_oracle
from box_oracle import witness_from_tables, witness_tables
from orbitcert.certificates import witness_block, witness_from_block
from orbitcert.chain import verify_chain
from orbitcert.cocycle import (
    CocycleTable,
    CoeWitness,
    LCMap,
    homomorphism_cocycle,
    linear_map,
    verify_coe,
    verify_conj,
)
from orbitcert.decide import coe_decide, conj_decide
from orbitcert.dynamics import Cyclic, Odometer, PointAtLevel, SystemSpec, canonical_coords
from orbitcert.supernatural import parse_sn, parse_sn_list
from orbitcert.witness import build_coe_witness, build_conj_witness, linear_witness

README_PAIR = ("5*2^inf,3^inf", "2^inf,5*3^inf")
README_CONJ = ("2*5^inf,3*5^inf", "3*5^inf,2*5^inf")
CRT_MERGE = ("2*7^inf,3*7^inf", "6*7^inf,7^inf")
# a roundtrip's verdict is its matrix condition's unless a wrap condition
# fails, and that is the other map's equivariance at the same level
ROUNDTRIPS = ("psi-after-phi", "phi-after-psi")
# the checks a column-given cocycle decides by its columns, with the grid
# check's counts and violation points
COLUMN_CHECKS = ("homomorphism", "cocycle-identity-a", "cocycle-identity-b")
ORACLE = {verify_coe: grid_oracle.verify_coe, verify_conj: grid_oracle.verify_conj}


def _columns(a) -> tuple | None:
    """a(e_i, x) = columns[i] of a one-cylinder cocycle, None for any other."""
    return a.values[0] if len(a.values) == 1 else None


def matrices(w) -> tuple | None:
    """(rho, sigma) when w is a linear part: both point maps are one piece
    with offset 0, and a and b are the one-cylinder cocycles of their
    matrices, each canonical in its group."""
    rho, sigma, a, b = w.phi.rho, w.psi.rho, _columns(w.a), _columns(w.b)
    if rho is None or sigma is None or a is None or b is None:
        return None
    for cols, given, group in ((rho, a, w.a.target_group), (sigma, b, w.b.target_group)):
        if given != tuple(canonical_coords(group, tuple(col)) for col in cols):
            return None
    return rho, sigma


def _linear_parts() -> dict:
    """Every distinct identity or conjugacy part of the coe and conj
    witnesses the seed-17 selftest corpus verifies, of the README pairs and
    of CRT_MERGE, keyed by relation, systems, matrices and depth."""
    instances = grid_oracle.desk_instances(17, 200)
    coe = [p for p in instances if len(p[0]) <= 2 and coe_decide(*p)]
    conj = [p for p in instances if conj_decide(*p)]
    coe.append(tuple(map(parse_sn_list, README_PAIR)))
    conj += [tuple(map(parse_sn_list, pair)) for pair in (README_CONJ, CRT_MERGE)]
    parts: dict = {}
    for relation, pairs, build in (("coe", coe, build_coe_witness),
                                   ("conj", conj, build_conj_witness)):
        for ms, ns in pairs:
            for stage in build(ms, ns).stages:
                for part in stage.parts:
                    w = part.witness
                    if part.kind.startswith(("identity", "conj")):
                        key = (relation, w.source, w.target, w.phi.rho, w.psi.rho,
                               w.phi.input_level(0))
                        parts.setdefault(key, w)
    return parts


PARTS = _linear_parts()


def _bumped(cols, rng: random.Random):
    """cols with one entry moved by a small non-zero step."""
    out = [list(col) for col in cols]
    col = rng.choice(out)
    col[rng.randrange(len(col))] += rng.choice([-3, -2, -1, 1, 2, 3])
    return out


def _mutants(w: CoeWitness, depth: int, rng: random.Random):
    """(kind, mutant) for one entry changed in rho itself, which moves phi's
    table and a's columns alike, in rho^-1 itself, in a's columns only and
    in phi's table only."""
    x, y, rho, sigma = w.source, w.target, w.phi.rho, w.psi.rho
    yield "matrix", linear_witness(x, y, _bumped(rho, rng), sigma, depth)
    yield "matrix", linear_witness(x, y, rho, _bumped(sigma, rng), depth)
    yield "columns", CoeWitness(
        w.phi, homomorphism_cocycle(x, _bumped(rho, rng), y.group_moduli()), w.psi, w.b)
    yield "table", CoeWitness(linear_map(x, y, w.phi.level_map, _bumped(rho, rng)),
                              w.a, w.psi, w.b)


def _tables(w: CoeWitness, level: int) -> CoeWitness:
    return witness_from_tables(witness_tables(w, level))


def _agree(w: CoeWitness, level: int, verify, copy=_tables) -> bool:
    """verify on w and on its copy checked on grids, by default its copy
    held as tables, give the same verdict and the same check names; a
    check that passes by its matrix condition passes on the grid, and the
    two agree check by check wherever the argument in orbitcert.chain
    covers the check.  Returns whether w is a linear part."""
    got = verify(w, level)
    oracle = ORACLE[verify](copy(w, level), level)
    detail = f"level {level}\n{got.summary()}\n{oracle.summary()}"
    assert [c.name for c in got.checks] == [c.name for c in oracle.checks], detail
    assert got.passed == oracle.passed, detail
    for c, o in zip(got.checks, oracle.checks):
        assert o.ok or not c.ok, detail
        if c.name not in ROUNDTRIPS or not any(isinstance(v[1], str) for v in c.violations):
            assert c.ok == o.ok, detail
        if c.name in COLUMN_CHECKS:
            assert (c.checked, c.violations) == (o.checked, o.violations), detail
    return matrices(w) is not None


def _case(key) -> str:
    relation, x, y, _rho, _sigma, depth = key
    return f"{relation}-{x.rank}x{y.rank}-d{depth}"


def test_the_corpora_hold_identity_and_conjugacy_parts():
    relations = [key[0] for key in PARTS]
    assert relations.count("coe") >= 20 and relations.count("conj") >= 30


@pytest.mark.parametrize("key", list(PARTS), ids=[_case(k) for k in PARTS])
def test_matrix_path_agrees_with_the_grid_path(key):
    w = PARTS[key]
    verify = verify_conj if key[0] == "conj" else verify_coe
    depth = key[-1]
    rng = random.Random(repr(key))
    for level in range(4):
        assert _agree(w, level, verify)
        assert verify(w, level).passed
        for kind, mutant in _mutants(w, depth, rng):
            # only a mutant of the matrix itself is still a linear part
            assert _agree(mutant, level, verify) == (kind == "matrix"), kind


def test_linear_parts_on_cyclic_factors_agree():
    # x = (a mod 2, b mod 3) corresponds to 3a + 4b mod 6: values are
    # canonical in groups with cyclic coordinates
    x, y = SystemSpec((Cyclic(2), Cyclic(3))), SystemSpec((Cyclic(6),))
    w = linear_witness(x, y, [(3,), (4,)], [(1, 1)])
    rng = random.Random("cyclic")
    for level in range(3):
        assert _agree(w, level, verify_conj) and verify_conj(w, level).passed
        for _ in range(4):
            # a step its cyclic group kills leaves the part linear
            for _kind, mutant in _mutants(w, 0, rng):
                _agree(mutant, level, verify_conj)


# odometer limits, finite ones among them, and cyclic orders
FACTORS = ("2", "4", "2^inf", "3", "9*2", "3^inf", "2*3^inf", "4*3^inf", "2^inf*3", 2, 3, 4, 6)


def _random_system(rng: random.Random) -> SystemSpec:
    picks = [rng.choice(FACTORS) for _ in range(rng.randint(1, 2))]
    return SystemSpec(tuple(Cyclic(f) if isinstance(f, int) else Odometer(parse_sn(f))
                            for f in picks))


def _random_map(src: SystemSpec, tgt: SystemSpec, rng: random.Random) -> LCMap:
    """A matrix with entries in -4..4, read at level k + shift, one level
    coarser than its output level down to two finer."""
    shift = rng.choice([-1, 0, 0, 1, 2])
    cols = tuple(tuple(rng.randint(-4, 4) for _ in range(tgt.rank)) for _ in range(src.rank))
    return linear_map(src, tgt, lambda k: max(k + shift, 0), cols)


def test_random_linear_maps_agree():
    # arbitrary matrices between small systems, rarely mutually inverse or
    # well defined: every condition fails somewhere, on cyclic and odometer
    # factors, with maps that read their input coarser or finer.  A map
    # read coarser than its output is no map of the inverse limits, which a
    # copy held as plain arrays assumes, so the oracle evaluates the maps
    # themselves (grid_oracle.tabulated)
    rng = random.Random("random-linear")
    failing: set = set()
    for _ in range(200):
        x, y = _random_system(rng), _random_system(rng)
        phi, psi = _random_map(x, y, rng), _random_map(y, x, rng)
        w = CoeWitness(phi, homomorphism_cocycle(x, phi.rho, y.group_moduli()),
                       psi, homomorphism_cocycle(y, psi.rho, x.group_moduli()))
        for level in range(4):
            assert _agree(w, level, verify_coe, lambda w, _level: grid_oracle.tabulated(w))
            failing |= {c.name for c in verify_coe(w, level).checks if not c.ok}
        _agree(w, 0, verify_conj, lambda w, _level: grid_oracle.tabulated(w))
    assert failing == {"phi-equivariance", "psi-equivariance", "psi-after-phi", "phi-after-psi",
                       "b-inverts-a", "a-inverts-b", "cocycle-identity-a", "cocycle-identity-b"}


def test_a_map_has_a_table_or_a_matrix():
    # a linear map is the one-piece map with offset 0, and a copy keeps it
    w = PARTS[next(iter(PARTS))]
    copy = replace(w.phi, name="copy")
    assert copy.rho == w.phi.rho and copy.pieces == w.phi.pieces
    assert w.phi.moduli == (1,) * w.source.rank
    shifted = LCMap(w.source, w.target, w.phi.level_map,
                    (((1,) * w.target.rank, w.phi.rho),))
    assert shifted.rho is None and matrices(CoeWitness(shifted, w.a, w.psi, w.b)) is None
    with pytest.raises(ValueError, match="one piece per cylinder"):
        LCMap(w.source, w.target, w.phi.level_map, w.phi.pieces * 2)
    with pytest.raises(ValueError, match="one piece per cylinder"):
        linear_map(w.source, w.target, w.phi.level_map, w.phi.rho + w.phi.rho)


def test_an_orbit_sum_that_is_not_zero_fails_on_columns_and_on_tables():
    # x = Z/2 x Z/3 into Z/6: a column 1 at the order-2 factor sums to
    # 2 * 1 = 2, not 0, around every e0-orbit.  Given as a linear part's
    # columns, or as a's columns alone, the columns and the table oracle
    # both fail cocycle-identity-a, at the same orbits
    x, y = SystemSpec((Cyclic(2), Cyclic(3))), SystemSpec((Cyclic(6),))
    w = linear_witness(x, y, [(3,), (4,)], [(1, 1)])
    mutants = [linear_witness(x, y, [(1,), (4,)], [(1, 1)]),
               CoeWitness(w.phi, homomorphism_cocycle(x, [(1,), (4,)], (6,)), w.psi, w.b)]
    assert matrices(mutants[0]) and not matrices(mutants[1])
    for mutant in mutants:
        for level in range(3):
            for verify in (verify_coe, verify_conj):
                _agree(mutant, level, verify)
                for report in (verify(mutant, level),
                               ORACLE[verify](_tables(mutant, level), level)):
                    (check,) = [c for c in report.checks if c.name == "cocycle-identity-a"]
                    assert check.violations == [
                        ("cocycle-identity-a", "2*e0 = 0", PointAtLevel(0, (0, r)))
                        for r in range(3)], report.summary()


def _refuse(*args, **kwargs):
    raise AssertionError("a grid or a table was built")


def test_identity_and_conjugacy_parts_are_built_and_checked_without_tables(monkeypatch):
    # every identity part of the seed-17 coe chains, and the wired pairs and
    # the README conjugacy end to end, with every grid and table refused
    coe = [p for p in grid_oracle.desk_instances(17, 200) if coe_decide(*p)]
    chains = [build_coe_witness(*p) for p in coe]
    identity = [(part.witness, lam) for chain in chains
                for stage, lam in zip(chain.stages, chain.stage_levels(4))
                for part in stage.parts if part.kind.startswith("identity")]
    wired = [("coe", p) for p, chain in zip(coe, chains) if len(chain.stages) == 1]
    assert len(wired) >= 40 and len(identity) > 2 * len(wired)
    monkeypatch.setattr(grid_oracle._Grid, "__init__", _refuse)
    monkeypatch.setattr(grid_oracle.GroupValuedMap, "__post_init__", _refuse)
    for w, lam in identity:
        assert verify_coe(w, lam).passed
    for relation, (ms, ns) in wired + [("conj", tuple(map(parse_sn_list, README_CONJ)))]:
        for level in (4, 12):
            assert witness_block(relation, ms, ns, level) == {"type": relation, "level": level}
            report = verify_chain(witness_from_block(relation, ms, ns), level, relation)
            assert report.passed, report.summary()


def test_a_cocycle_has_tables_or_columns():
    # a one-cylinder cocycle is given by its columns, stored canonical, and
    # its copy held as tables is the constant level-0 tables of those
    # columns; a cocycle of several cylinders has no columns
    x = SystemSpec((Cyclic(2), Cyclic(3)))
    a = homomorphism_cocycle(x, [(9,), (4,)], (6,))
    assert _columns(a) == ((3,), (4,)) and a.level == 0 and a.moduli == (1, 1)
    assert [g.values.T.tolist() for g in grid_oracle.as_table(a).generators] == \
        [[[3]] * 6, [[4]] * 6]
    split = CocycleTable(x, (6,), [((1,), (2,)), ((3,), (4,))], (2, 1))
    assert _columns(split) is None and split.values[1] == ((3,), (4,))
    with pytest.raises(ValueError, match="one value per cylinder"):
        CocycleTable(x, (6,), [((1,), (2,))], (2, 1))
    with pytest.raises(ValueError, match="must divide"):
        CocycleTable(x, (6,), [((1,), (2,))] * 4, (4, 1))
    with pytest.raises(ValueError, match="per source factor"):
        CocycleTable(x, (6,), [((1,),)])
    with pytest.raises(ValueError, match="per source factor"):
        CocycleTable(x, (6,), [((1, 0), (0, 1))])
