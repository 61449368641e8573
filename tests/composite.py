"""Composite witnesses, kept as the reference that stage-wise verification
is compared against.

`compose_chain` glues a CoeChain into one CoeWitness the way the library
once built every orbit equivalence: each stage becomes the direct sum of
its parts between two factor permutations, and the stages are composed
into one point map each way with composite cocycles, all held as tables
(grid_oracle).  The grid oracle's verify_coe on the result checks the
whole composite on one product grid; the tests require its verdict to
match verify_chain's.  composite_scale sizes the
composite's grids without building it.
"""
from __future__ import annotations

import numpy as np

from grid_oracle import (
    CocycleTable,
    GroupValuedMap,
    LCMap,
    _Grid,
    cocycle_reader,
    constant_generator,
    tabulated,
)
from orbitcert.chain import CoeChain, Stage
from orbitcert.cocycle import CoeWitness
from orbitcert.dynamics import SystemSpec, generator, point_count
from orbitcert.witness import linear_witness


def _chain(first: LCMap, second: LCMap) -> LCMap:
    """second o first: the first table's output feeds the second's input."""
    def table(k: int, res: np.ndarray) -> np.ndarray:
        return second.table(k, first.table(second.input_level(k), res))

    return LCMap(first.source, second.target,
                 lambda k: first.input_level(second.input_level(k)), table,
                 f"({second.name})o({first.name})")


def _composite_cocycle(a1: CocycleTable, phi1: LCMap, a2: CocycleTable,
                       name: str) -> CocycleTable:
    """a(g, x) = a2(a1(g, x), phi1(x)), one gather per generator."""
    read = cocycle_reader(a2)
    gens = []
    # a2 read on a one-point grid does not depend on the point, so phi1 is
    # not read and the composite keeps a1's levels
    constant = point_count(a2.source, a2.level) == 1
    for i, g in enumerate(a1.generators):
        grid = _Grid(a1.source, g.level if constant else
                     max(g.level, phi1.input_level(a2.level)))
        y = (np.zeros((a2.source.rank, grid.size), dtype=np.int64) if constant
             else phi1.at(a2.level, grid.res))
        vals = read(g.at(grid.res), y, name)
        gens.append(GroupValuedMap(a1.source, a2.target_group, grid.level, vals, f"{name}[{i}]"))
    return CocycleTable(a1.source, a2.target_group, tuple(gens))


def identity_witness(spec: SystemSpec) -> CoeWitness:
    """The identity of spec: the linear witness of the identity matrix."""
    ident = [generator(spec, i) for i in range(spec.rank)]
    return linear_witness(spec, spec, ident, ident)


def compose_coe(w1: CoeWitness, w2: CoeWitness) -> CoeWitness:
    """Chain witnesses X -> Y and Y -> Z into X -> Z."""
    if w1.target != w2.source:
        raise ValueError("middle systems do not match")
    w1, w2 = tabulated(w1), tabulated(w2)
    return CoeWitness(
        _chain(w1.phi, w2.phi),
        _composite_cocycle(w1.a, w1.phi, w2.a, "a12"),
        _chain(w2.psi, w1.psi),
        _composite_cocycle(w2.b, w2.psi, w1.b, "b21"),
    )


def permutation_witness(spec: SystemSpec, perm: tuple[int, ...]) -> CoeWitness:
    """Reorder factors: output factor j is input factor perm[j]."""
    if sorted(perm) != list(range(spec.rank)):
        raise ValueError("perm must be a permutation of the factor indices")
    inv = [0] * len(perm)
    for j, i in enumerate(perm):
        inv[i] = j
    tgt = SystemSpec(tuple(spec.factors[i] for i in perm))
    phi = LCMap(spec, tgt, lambda k: k, lambda k, res: res[list(perm)], "perm")
    psi = LCMap(tgt, spec, lambda k: k, lambda k, res: res[inv], "perm-inv")
    gm_x, gm_y = spec.group_moduli(), tgt.group_moduli()
    unit = np.eye(spec.rank, dtype=np.int64)
    a = CocycleTable(spec, gm_y, tuple(
        constant_generator(spec, gm_y, tuple(unit[inv[i]])) for i in range(spec.rank)
    ))
    b = CocycleTable(tgt, gm_x, tuple(
        constant_generator(tgt, gm_x, tuple(unit[perm[j]])) for j in range(tgt.rank)
    ))
    return CoeWitness(phi, a, psi, b)


def direct_sum_coe(parts: list[CoeWitness]) -> CoeWitness:
    """Witness between the concatenated systems acting factorwise."""
    if not parts:
        raise ValueError("at least one part")
    parts = [tabulated(w) for w in parts]
    x = SystemSpec(tuple(f for w in parts for f in w.source.factors))
    y = SystemSpec(tuple(f for w in parts for f in w.target.factors))
    xoff, yoff = [0], [0]
    for w in parts:
        xoff.append(xoff[-1] + w.source.rank)
        yoff.append(yoff[-1] + w.target.rank)

    def sum_map(maps: list[LCMap], src: SystemSpec, tgt: SystemSpec, off, name) -> LCMap:
        def table(k: int, res: np.ndarray) -> np.ndarray:
            return np.concatenate([m.at(k, res[off[t] : off[t + 1]]) for t, m in enumerate(maps)])

        return LCMap(src, tgt, lambda k: max(m.input_level(k) for m in maps), table, name)

    def lift(t: int, local: GroupValuedMap, spec: SystemSpec, src_off, tgt_off,
             tgt_gm) -> GroupValuedMap:
        """local's values placed in part t's coordinates of the sum."""
        def vals(res: np.ndarray) -> np.ndarray:
            out = np.zeros((len(tgt_gm), res.shape[1]), dtype=np.int64)
            out[tgt_off[t] : tgt_off[t + 1]] = local.at(res[src_off[t] : src_off[t + 1]])
            return out

        return GroupValuedMap.tabulate(spec, tgt_gm, local.level, vals)

    phi = sum_map([w.phi for w in parts], x, y, xoff, "sum")
    psi = sum_map([w.psi for w in parts], y, x, yoff, "sum-inv")
    gm_x, gm_y = x.group_moduli(), y.group_moduli()
    a = CocycleTable(x, gm_y, tuple(
        lift(t, g, x, xoff, yoff, gm_y) for t, w in enumerate(parts) for g in w.a.generators
    ))
    b = CocycleTable(y, gm_x, tuple(
        lift(t, g, y, yoff, xoff, gm_x) for t, w in enumerate(parts) for g in w.b.generators
    ))
    return CoeWitness(phi, a, psi, b)


def compose_stage(stage: Stage) -> CoeWitness:
    """The stage as one witness: permute the source into the parts' read
    order, act by the direct sum of the parts, permute the written factors
    into place."""
    reads = tuple(i for p in stage.parts for i in p.reads)
    writes = tuple(j for p in stage.parts for j in p.writes)
    into = permutation_witness(stage.source, reads)
    total = direct_sum_coe([p.witness for p in stage.parts])
    place = [0] * len(writes)
    for q, j in enumerate(writes):
        place[j] = q
    out = permutation_witness(total.target, tuple(place))
    return compose_coe(compose_coe(into, total), out)


def compose_chain(chain: CoeChain) -> CoeWitness:
    """The whole chain as one composite witness from source to target."""
    w = compose_stage(chain.stages[0])
    for stage in chain.stages[1:]:
        w = compose_coe(w, compose_stage(stage))
    return w


def only_part(chain: CoeChain) -> CoeWitness:
    """The witness of a chain with one stage of one part wired straight
    through, such as the conjugacy of a pair with one asymptotic class."""
    (stage,) = chain.stages
    (part,) = stage.parts
    assert part.reads == part.writes == tuple(range(chain.source.rank))
    return part.witness


def composite_scale(chain: CoeChain, level: int) -> int:
    """Largest grid the composite of the chain's stages would materialize
    at this level, read off the chain's level maps alone: the composite
    level map chains the stage level maps, and a stage's is the largest of
    its parts'."""
    src, tgt = chain.source, chain.target

    def phi_in(k: int) -> int:
        return chain.phi_levels(k)[0]

    def psi_in(k: int) -> int:
        return chain.psi_levels(k)[-1]

    return max(
        point_count(src, phi_in(level)),
        point_count(tgt, psi_in(level)),
        point_count(src, max(level, phi_in(psi_in(level)))),
        point_count(tgt, max(level, psi_in(phi_in(level)))),
    )
