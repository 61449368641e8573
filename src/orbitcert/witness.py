"""Constructive witnesses: explicit orbit equivalences and conjugacies
between odometer products.

An orbit equivalence is a chain of elementary moves (orbitcert.chain),
never one composite table.  Each odometer factor splits a cyclic factor
off (the seam witness build_basic_coe), the finite cyclic factors merge
into one by mixed-radix rank and unrank (build_finite_coe), and the other
side's merge and split are undone.  A stage is a factorwise product of
such moves and identities; each move records the factor indices it reads
and writes, so reordering factors is wiring, not a move.  A pair whose
sides reorder each other needs no move at all: its chain is one stage of
identity parts, each wired from a factor to an equal one.  A conjugacy is
one stage of block conjugacies, one linear part per asymptotic class of
the decision.  Every move is integer data given by pieces
(orbitcert.linear): a split of an l-cycle has l pieces, a rerank one per
point, and an identity or conjugacy part, built by linear_witness, one.
verify_chain checks each by its pieces at any level within the point
limit, so the README conjugacy, whose block's level-4 grid would hold
2,343,750 points, and the README orbit equivalence, whose level-12 grids
would hold millions, are built and checked without a table."""
from __future__ import annotations

import math

from .chain import CoeChain, Stage, StagePart
from .cocycle import (
    POINT_LIMITS,
    CocycleTable,
    CoeWitness,
    LCMap,
    homomorphism_cocycle,
    linear_map,
    require_cylinders,
)
from .decide import CoeDecision, ConjDecision, coe_decide, conj_decide
from .dynamics import (
    Cyclic,
    Odometer,
    SystemSpec,
    generator,
    level_modulus,
    odometer_product,
)
from .intmat import invert_unimodular
from .linear import cylinder_index, cylinders
from .supernatural import SupernaturalNumber, div_exact, factorize, mul

_LEVEL_FUSE = 64  # no level search should ever walk past this


def build_basic_coe(l: int, L: SupernaturalNumber) -> CoeWitness:
    """The seam witness: the l*L odometer is orbit equivalent to the product
    of an l-cycle with the L odometer via v -> (v mod l, v div l).  Both
    maps have l pieces: the split sends r + l*u to (r, u), the merge (j, u)
    to j + l*u, and the cocycles are constant on those l cylinders."""
    if l < 1:
        raise ValueError("cyclic order must be >= 1")
    require_cylinders((l,), POINT_LIMITS["coe"], "a split")
    m = mul(SupernaturalNumber.from_int(l), L)
    x = SystemSpec((Odometer(m),))
    y = SystemSpec((Cyclic(l), Odometer(L)))

    def lm_l(k: int) -> int:
        return level_modulus(Odometer(L), k)

    def lm_m(k: int) -> int:
        return level_modulus(Odometer(m), k)

    def lphi(k: int) -> int:
        need = l * lm_l(k)
        j = k
        while lm_m(j) % need:
            j += 1
            if j > k + _LEVEL_FUSE:
                raise AssertionError("level search runaway")
        return j

    phi = LCMap(x, y, lphi, tuple(((r, 0), ((0, 1),)) for r in range(l)), (l,), f"split-{l}")
    psi = LCMap(y, x, lambda k: k, tuple(((j,), ((0,), (l,))) for j in range(l)), (l, 1),
                f"merge-{l}")
    a_level = 0
    while lm_m(a_level) % l:
        a_level += 1
    a = CocycleTable(x, (l, 0), tuple(((1, int(r == l - 1)),) for r in range(l)), (l,), a_level)
    b = CocycleTable(y, (0,), tuple(((1 - l if j == l - 1 else 1,), (l,)) for j in range(l)),
                     (l, 1))
    return CoeWitness(phi, a, psi, b)


def build_finite_coe(src_orders: tuple[int, ...], tgt_orders: tuple[int, ...]) -> CoeWitness:
    """Orbit equivalence between two finite cyclic products of equal size via
    mixed-radix rank and unrank (first factor most significant): one piece
    per point, and cocycles a(e_i, p) = phi(e_i.p) - phi(p) and likewise b."""
    total = math.prod(src_orders)
    if math.prod(tgt_orders) != total:
        raise ValueError("cyclic products must have equal size")
    if not src_orders or not tgt_orders:
        raise ValueError("at least one factor per side")
    require_cylinders(src_orders, POINT_LIMITS["coe"], "a rerank")

    def rerank(orders_in, orders_out, name):
        images = list(cylinders(orders_out))  # the n-th point of either grid to the n-th
        zero = ((0,) * len(orders_out),) * len(orders_in)
        f = LCMap(SystemSpec(tuple(Cyclic(n) for n in orders_in)),
                  SystemSpec(tuple(Cyclic(n) for n in orders_out)), lambda k: 0,
                  tuple((t, zero) for t in images), orders_in, name)
        steps = tuple(tuple(tuple(q - p for p, q in zip(images[i], images[cylinder_index(
            orders_in, tuple(v + (j == g) for j, v in enumerate(pt)))]))
            for g in range(len(orders_in))) for i, pt in enumerate(cylinders(orders_in)))
        return f, CocycleTable(f.source, f.target.group_moduli(), steps, orders_in)

    phi, a = rerank(src_orders, tgt_orders, "rank")
    psi, b = rerank(tgt_orders, src_orders, "unrank")
    return CoeWitness(phi, a, psi, b)


def linear_witness(x: SystemSpec, y: SystemSpec, rho, rho_inv, depth: int = 0) -> CoeWitness:
    """The linear part (orbitcert.linear) of the maps x -> x.rho from x to
    y, rho[i] the image of e_i, and y -> y.rho_inv back, with the
    homomorphism cocycles of rho and rho_inv, given by their columns: a
    conjugacy when its checks pass.  Each is one piece.  Both maps read
    their input at level max(k, depth).  The identity of x is
    linear_witness(x, x, I, I)."""
    rho, rho_inv = (tuple(tuple(map(int, col)) for col in m) for m in (rho, rho_inv))

    def level_map(k: int) -> int:
        return max(k, depth)

    phi = linear_map(x, y, level_map, rho, "linear")
    a = homomorphism_cocycle(x, rho, y.group_moduli())
    if (y, rho_inv) == (x, rho):  # an involution, such as the identity, is one map both ways
        return CoeWitness(phi, a, phi, a)
    return CoeWitness(phi, a, linear_map(y, x, level_map, rho_inv, "linear-inv"),
                      homomorphism_cocycle(y, rho_inv, x.group_moduli()))


# ---------------------------------------------------------------------------
# the full orbit-equivalence chain


def _rebalanced_pairs(
    ms: tuple[SupernaturalNumber, ...],
    ns: tuple[SupernaturalNumber, ...],
    decision,
) -> list[tuple[int, int, int, int]]:
    """(i, sigma(i), m_i, n_i) with the side products made exactly equal.

    The decision's multipliers satisfy m_i M_i = n_i N_sigma(i) pairwise but
    their products can differ at primes whose total exponent is infinite;
    multiplying the deficient member at a factor whose class key contains the
    prime keeps the pairwise identity (the extra power is absorbed) and
    restores the balance.
    """
    pairs = [[p.left_index, p.right_index, p.m, p.n] for p in decision.pairs]
    pm = math.prod(p[2] for p in pairs)
    pn = math.prod(p[3] for p in pairs)
    g = math.gcd(pm, pn)
    for side, excess in ((3, pm // g), (2, pn // g)):
        # side 3 bumps n_i (m-product is larger), side 2 bumps m_i
        for d, e in factorize(excess).items():
            for p in pairs:
                if ms[p[0]].v(d) == math.inf:
                    p[side] *= d**e
                    break
            else:
                raise AssertionError(
                    f"no factor absorbs the {d}^{e} imbalance; decision unsound"
                )
    assert math.prod(p[2] for p in pairs) == math.prod(p[3] for p in pairs)
    return [tuple(p) for p in pairs]


def _identity_part(spec: SystemSpec, i: int, j: int) -> StagePart:
    """Factor i of the stage source carried unchanged to factor j."""
    one = SystemSpec((spec.factors[i],))
    ident = [generator(one, 0)]
    return StagePart("identity", linear_witness(one, one, ident, ident), (i,), (j,))


def _permutation(ms, ns) -> list[int] | None:
    """j[i] with ms[i] == ns[j[i]], each j used once, when ns reorders ms;
    None otherwise.  Equal factors are matched in order."""
    free, wiring = list(ns), []
    for m in ms:
        if m not in free:
            return None
        wiring.append(free.index(m))
        free[wiring[-1]] = None
    return wiring if len(ms) == len(ns) else None


def _split_stage(x: SystemSpec, orders: list[int], bases: list[SupernaturalNumber]) -> Stage:
    """Factor i of x, the orders[i]*bases[i] odometer, splits into an
    orders[i]-cycle at factor 2i and the bases[i] odometer at 2i+1."""
    parts = tuple(StagePart("split", build_basic_coe(l, L), (i,), (2 * i, 2 * i + 1))
                  for i, (l, L) in enumerate(zip(orders, bases)))
    return Stage(x, SystemSpec(tuple(f for p in parts for f in p.witness.target.factors)), parts)


def _merge_stage(split: SystemSpec, cycles: list[int]) -> Stage:
    """The cycles at factors `cycles` of a split system merge, in that
    order, into one cyclic factor 0; the odometer at factor c+1 after cycle
    number t moves to factor t+1."""
    orders = tuple(split.factors[c].n for c in cycles)
    total = math.prod(orders)
    finite = StagePart("finite", build_finite_coe(orders, (total,)), tuple(cycles), (0,))
    parts = (finite,) + tuple(_identity_part(split, c + 1, t + 1) for t, c in enumerate(cycles))
    middle = SystemSpec((Cyclic(total),) + tuple(split.factors[c + 1] for c in cycles))
    return Stage(split, middle, parts)


def build_coe_witness(
    ms: tuple[SupernaturalNumber, ...],
    ns: tuple[SupernaturalNumber, ...],
    decision: CoeDecision | None = None,
) -> CoeChain:
    """Explicit orbit equivalence between the odometer products, the chain
    X split -> X merge -> inverse Y merge -> inverse Y split through a
    common middle system: one cycle of order prod n_i = prod m_i and the
    pairs' base odometers L_i.  When ns reorders ms the chain is one stage
    of identity parts wired from each factor to an equal one: a product of
    odometers acted on factor by factor is conjugate to any reordering of
    it.  decision is coe_decide(ms, ns), decided here unless the caller
    holds it.  Raises ValueError when the systems are not equivalent."""
    if decision is None:
        decision = coe_decide(ms, ns)
    if not decision:
        raise ValueError(f"not orbit equivalent: {decision.obstruction}")
    x, y = odometer_product(ms), odometer_product(ns)
    wiring = _permutation(ms, ns)
    if wiring is not None:
        ident = tuple(_identity_part(x, i, j) for i, j in enumerate(wiring))
        return CoeChain(x, y, (Stage(x, y, ident),))
    pairs = _rebalanced_pairs(ms, ns, decision)
    bases = []
    for i, j, mi, ni in pairs:
        li = div_exact(ms[i], SupernaturalNumber.from_int(ni))
        assert mul(SupernaturalNumber.from_int(mi), li) == ns[j], "pair identity broke"
        bases.append(li)

    # X side: factor i splits off an n_i-cycle; pairs run in left order
    x_split = _split_stage(x, [p[3] for p in pairs], bases)
    x_merge = _merge_stage(x_split.target, [2 * t for t in range(len(pairs))])
    # Y side: factor sigma(i) splits off an m_i-cycle; merge in pair order
    y_orders, y_bases = [0] * len(pairs), [None] * len(pairs)
    for (i, j, mi, ni), li in zip(pairs, bases):
        y_orders[j], y_bases[j] = mi, li
    y_split = _split_stage(y, y_orders, y_bases)
    y_merge = _merge_stage(y_split.target, [2 * p[1] for p in pairs])
    return CoeChain(x, y, (x_split, x_merge, y_merge.inverse(), y_split.inverse()))


# ---------------------------------------------------------------------------
# conjugacy witnesses


def _block_part(ms, ns, blk) -> StagePart:
    """The conjugacy of a decision block: one linear part from the block's
    left factors to its right ones, wired like the block.  A conjugacy
    fixing 0 is a continuous group isomorphism that intertwines the
    translations, so it extends a group isomorphism rho of the acting
    groups: rho(e_b) is column b of the Smith conjugator S, and rho^-1 is
    S^-1 the same way.  Both maps read their input at depth, the largest
    exponent of any prime in the block's multipliers, deep enough for
    every finite multiplier."""
    s, _t = blk.conjugator
    s_inv = invert_unimodular(s)
    n = len(blk.left_indices)
    rho = [[s.get(a, b) for a in range(n)] for b in range(n)]
    rho_inv = [[s_inv.get(a, b) for a in range(n)] for b in range(n)]
    depth = max((e for q in blk.left_multipliers + blk.right_multipliers
                 for e in factorize(q).values()), default=0)
    w = linear_witness(odometer_product(tuple(ms[i] for i in blk.left_indices)),
                       odometer_product(tuple(ns[j] for j in blk.right_indices)),
                       rho, rho_inv, depth)
    return StagePart("conj", w, blk.left_indices, blk.right_indices)


def build_conj_witness(
    ms: tuple[SupernaturalNumber, ...],
    ns: tuple[SupernaturalNumber, ...],
    decision: ConjDecision | None = None,
) -> CoeChain:
    """Explicit conjugacy: one stage whose parts are the decision's blocks,
    one per asymptotic class, each wired from the block's left indices to
    its right ones.
    decision is conj_decide(ms, ns), decided here unless the caller holds
    it.  Raises ValueError when the systems are not conjugate."""
    if decision is None:
        decision = conj_decide(ms, ns)
    if not decision:
        raise ValueError(f"not conjugate: {decision.obstruction}")
    x, y = odometer_product(ms), odometer_product(ns)
    parts = tuple(_block_part(ms, ns, blk) for blk in decision.blocks)
    return CoeChain(x, y, (Stage(x, y, parts),))

