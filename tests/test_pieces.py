"""Every part is checked by congruences on its pieces (orbitcert.linear);
the same part held as tables (grid_oracle.tabulated) is checked on the
grids of its truncations.  The two must agree on every split, merge,
finite and slid part of the seed-17 corpus chains and of the cohomology
suite's witnesses, at levels 0-3, unmutated and with seeded mutations of
one piece offset, one matrix entry and one cocycle column: a check that
passes on pieces passes on the grid, and the two agree check by check
wherever the argument in orbitcert.chain says a condition is exact."""
from __future__ import annotations

import random
from dataclasses import replace

import pytest

import grid_oracle
from orbitcert import selftest
from orbitcert.cocycle import CocycleTable, CoeWitness, verify_coe, verify_conj
from orbitcert.decide import coe_decide
from orbitcert.dynamics import Cyclic
from orbitcert.supernatural import parse_sn_list, sn_str
from orbitcert.witness import build_coe_witness

# the checks whose counts and violation points are those of the grid
GRID_COUNTED = ("homomorphism", "cocycle-identity-a", "cocycle-identity-b")
ROUNDTRIPS = ("psi-after-phi", "phi-after-psi")


def fits(w, level: int) -> bool:
    """The oracle's grids of w at `level` fit its point limit."""
    try:
        grid_oracle.require_grids(grid_oracle.tabulated(w), level, grid_oracle.POINT_LIMITS["coe"])
    except ValueError:
        return False
    return True


def agree(w, level, verify, oracle):
    """verify on w and oracle on its copy held as tables give the same
    check names; a check passing on pieces passes on the grid, and both
    agree on every check but a roundtrip that fails a wrap condition."""
    try:
        got = verify(w, level)
    except ValueError as e:  # a map whose cylinders its input level cannot hold
        with pytest.raises(ValueError):
            oracle(grid_oracle.tabulated(w), level)
        return str(e)
    want = oracle(grid_oracle.tabulated(w), level)
    detail = f"level {level}\n{got.summary()}\n{want.summary()}"
    assert [c.name for c in got.checks] == [c.name for c in want.checks], detail
    for c, o in zip(got.checks, want.checks):
        assert o.ok or not c.ok, detail
        wrap = c.name in ROUNDTRIPS and any(isinstance(v[1], str) for v in c.violations)
        if not wrap:
            assert c.ok == o.ok, detail
        if c.name in GRID_COUNTED:
            assert (c.checked, c.violations) == (o.checked, o.violations), detail
    assert got.passed == want.passed or not got.passed, detail
    return got.passed


def _nonlinear_parts() -> dict:
    """The split, merge and finite parts of the seed-17 coe chains and of
    the README pair, keyed by kind and systems."""
    pairs = [p for p in grid_oracle.desk_instances(17, 200) if coe_decide(*p)]
    pairs.append(tuple(map(parse_sn_list, ("5*2^inf,3^inf", "2^inf,5*3^inf"))))
    parts: dict = {}
    for ms, ns in pairs:
        for stage in build_coe_witness(ms, ns).stages:
            for part in stage.parts:
                if part.witness.phi.rho is None:
                    w = part.witness
                    parts.setdefault((part.kind, w.source, w.target), w)
    return parts


def _cohomology_witnesses() -> list:
    """The twisted witnesses the cohomology suite untwists, and the
    conjugacies it untwists them to, by recording its calls."""
    seen = []
    real = selftest.untwist_to_conjugacy

    def recording(w, u, rho, level):
        out = real(w, u, rho, level)
        seen.append((w, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(selftest, "untwist_to_conjugacy", recording)
        assert selftest.suite_cohomology(17).ok
    return seen


PARTS = _nonlinear_parts()
TWISTED = _cohomology_witnesses()


def _bump(value: int, rng: random.Random) -> int:
    return value + rng.choice([-3, -2, -1, 1, 2, 3])


def _mutant_map(f, rng: random.Random, offset: bool):
    p = rng.randrange(len(f.pieces))
    t, rows = f.pieces[p]
    if offset:
        c = rng.randrange(len(t))
        t = t[:c] + (_bump(t[c], rng),) + t[c + 1:]
    else:
        i, c = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
        rows = tuple(row[:c] + (_bump(row[c], rng),) + row[c + 1:] if j == i else row
                     for j, row in enumerate(rows))
    pieces = f.pieces[:p] + ((t, rows),) + f.pieces[p + 1:]
    return type(f)(f.source, f.target, f.level_map, pieces, f.moduli, f.name)


def _mutant_cocycle(a: CocycleTable, rng: random.Random) -> CocycleTable:
    r = rng.randrange(len(a.values))
    i, c = rng.randrange(a.source.rank), rng.randrange(len(a.target_group))
    cols = tuple(col[:c] + (_bump(col[c], rng),) + col[c + 1:] if j == i else col
                 for j, col in enumerate(a.values[r]))
    return replace(a, values=a.values[:r] + (cols,) + a.values[r + 1:])


def mutants(w: CoeWitness, rng: random.Random):
    """(kind, mutant): one piece offset, one matrix entry and one cocycle
    column changed, each on a side drawn at random."""
    side = rng.choice(["phi", "psi"])
    yield "offset", replace(w, **{side: _mutant_map(getattr(w, side), rng, True)})
    side = rng.choice(["phi", "psi"])
    yield "matrix", replace(w, **{side: _mutant_map(getattr(w, side), rng, False)})
    side = rng.choice(["a", "b"])
    yield "column", replace(w, **{side: _mutant_cocycle(getattr(w, side), rng)})


def test_the_corpora_hold_every_kind_of_part():
    kinds = {key[0].removesuffix("^-1") for key in PARTS}
    assert kinds == {"split", "finite"}, kinds
    assert len(PARTS) >= 20 and len(TWISTED) >= 15


def _case(key) -> str:
    def side(spec):
        return "x".join(str(f.n) if isinstance(f, Cyclic) else sn_str(f.limit)
                        for f in spec.factors)

    return f"{key[0]}:{side(key[1])}:{side(key[2])}"


@pytest.mark.parametrize("key", list(PARTS), ids=[_case(k) for k in PARTS])
def test_split_merge_and_finite_parts_agree_with_the_grid_oracle(key):
    w = PARTS[key]
    rng = random.Random(repr(key))
    levels = [level for level in range(4) if fits(w, level)]
    assert levels[:2] == [0, 1]
    for level in levels:
        assert agree(w, level, verify_coe, grid_oracle.verify_coe) is True
        for side in (w, CoeWitness(w.psi, w.b, w.phi, w.a)):
            for _kind, mutant in mutants(side, rng):
                agree(mutant, level, verify_coe, grid_oracle.verify_coe)


def test_slid_parts_agree_with_the_grid_oracle():
    rng = random.Random("slid")
    failed = set()
    for twisted, out in TWISTED:
        for level in range(4):
            assert fits(twisted, level) and fits(out, level)
            assert agree(twisted, level, verify_coe, grid_oracle.verify_coe) is True
            assert agree(out, level, verify_conj, grid_oracle.verify_conj) is True
            for w, verify, oracle in ((twisted, verify_coe, grid_oracle.verify_coe),
                                      (out, verify_conj, grid_oracle.verify_conj)):
                for kind, mutant in mutants(w, rng):
                    if agree(mutant, level, verify, oracle) is False:
                        failed.add(kind)
    assert failed == {"offset", "matrix", "column"}
