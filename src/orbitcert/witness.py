"""Constructive witnesses: explicit orbit equivalences and conjugacies
between odometer products.

An orbit equivalence is a chain of elementary moves (orbitcert.chain),
never one composite table.  Each odometer factor splits a cyclic factor off (the seam
witness build_basic_coe), the finite cyclic factors merge into one by
mixed-radix rank and unrank (build_finite_coe), and the other side's merge
and split are undone.  A stage is a factorwise product of such moves and
identities; each move records the factor indices it reads and writes, so
reordering factors is wiring, not a move.  verify_chain checks every move
on its own grid."""
from __future__ import annotations

import math

import numpy as np

from .chain import CoeChain, Stage, StagePart
from .cocycle import (
    CocycleTable,
    CoeWitness,
    GroupValuedMap,
    LCMap,
    constant_generator,
    homomorphism_cocycle,
    identity_witness,
    mixed_radix_strides,
)
from .decide import coe_decide, conj_decide
from .dynamics import (
    Cyclic,
    Odometer,
    SystemSpec,
    level_modulus,
    odometer_product,
)
from .intmat import invert_unimodular
from .supernatural import SupernaturalNumber, div_exact, factorize, mul

_LEVEL_FUSE = 64  # no level search should ever walk past this


def _e_max(n: int) -> int:
    """Largest prime exponent in n; the level depth at which n divides the
    truncation modulus of any tower containing it."""
    return max(factorize(n).values(), default=0)


def build_basic_coe(l: int, L: SupernaturalNumber) -> CoeWitness:
    """The seam witness: the l*L odometer is orbit equivalent to the product
    of an l-cycle with the L odometer via v -> (v mod l, v div l)."""
    if l < 1:
        raise ValueError("cyclic order must be >= 1")
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

    def phi_table(k: int, res: np.ndarray) -> np.ndarray:
        v = res[:, 0]
        return np.stack((v % l, (v // l) % lm_l(k)), axis=1)

    def psi_table(k: int, res: np.ndarray) -> np.ndarray:
        return ((res[:, 0] + l * res[:, 1]) % lm_m(k)).reshape(-1, 1)

    phi = LCMap(x, y, lphi, phi_table, f"split-{l}")
    psi = LCMap(y, x, lambda k: k, psi_table, f"merge-{l}")

    a_level = 0
    while lm_m(a_level) % l:
        a_level += 1
    a_gen = GroupValuedMap.tabulate(
        x, (l, 0), a_level,
        lambda res: np.stack((np.ones(len(res), dtype=np.int64), res[:, 0] % l == l - 1), axis=1),
        f"split-{l}-a",
    )
    # at level 0 the points of y are (j, 0) for j < l
    b_cyc = GroupValuedMap(y, (0,), 0, np.where(np.arange(l) == l - 1, 1 - l, 1),
                           f"merge-{l}-b0")
    b_odo = constant_generator(y, (0,), (l,), f"merge-{l}-b1")
    return CoeWitness(phi, CocycleTable(x, (l, 0), (a_gen,)),
                      psi, CocycleTable(y, (0,), (b_cyc, b_odo)))


def build_finite_coe(src_orders: tuple[int, ...], tgt_orders: tuple[int, ...]) -> CoeWitness:
    """Orbit equivalence between two finite cyclic products of equal size via
    mixed-radix rank and unrank (first factor most significant)."""
    total = math.prod(src_orders)
    if math.prod(tgt_orders) != total:
        raise ValueError("cyclic products must have equal size")
    if not src_orders or not tgt_orders:
        raise ValueError("at least one factor per side")
    x = SystemSpec(tuple(Cyclic(n) for n in src_orders))
    y = SystemSpec(tuple(Cyclic(n) for n in tgt_orders))

    def rerank(orders_in, orders_out):
        si = mixed_radix_strides(orders_in)
        so = mixed_radix_strides(orders_out)
        oo = np.array(orders_out, dtype=np.int64)
        return lambda k, res: ((res @ si)[:, None] // so[None, :]) % oo[None, :]

    phi = LCMap(x, y, lambda k: 0, rerank(src_orders, tgt_orders), "rank")
    psi = LCMap(y, x, lambda k: 0, rerank(tgt_orders, src_orders), "unrank")

    def diff_gen(f: LCMap, i: int) -> GroupValuedMap:
        """f(e_i.p) - f(p) in the target's acting group."""
        orders_from = np.array(f.source.group_moduli(), dtype=np.int64)
        orders_to = f.target.group_moduli()

        def vals(res: np.ndarray) -> np.ndarray:
            moved = res.copy()
            moved[:, i] = (moved[:, i] + 1) % orders_from[i]
            return f.table(0, moved) - f.table(0, res)

        return GroupValuedMap.tabulate(f.source, orders_to, 0, vals, f"{f.name}-a[{i}]")

    a = CocycleTable(x, y.group_moduli(), tuple(diff_gen(phi, i) for i in range(x.rank)))
    b = CocycleTable(y, x.group_moduli(), tuple(diff_gen(psi, j) for j in range(y.rank)))
    return CoeWitness(phi, a, psi, b)


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
    return StagePart("identity", identity_witness(SystemSpec((spec.factors[i],))), (i,), (j,))


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
) -> CoeChain:
    """Explicit orbit equivalence between the odometer products, the chain
    X split -> X merge -> inverse Y merge -> inverse Y split through a
    common middle system: one cycle of order prod n_i = prod m_i and the
    pairs' base odometers L_i.  Raises ValueError when the systems are not
    equivalent."""
    decision = coe_decide(ms, ns)
    if not decision:
        raise ValueError(f"not orbit equivalent: {decision.obstruction}")
    x, y = odometer_product(ms), odometer_product(ns)
    if ms == ns:
        ident = tuple(_identity_part(x, i, i) for i in range(x.rank))
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


def build_conj_witness(
    ms: tuple[SupernaturalNumber, ...],
    ns: tuple[SupernaturalNumber, ...],
) -> CoeWitness:
    """Explicit conjugacy: per asymptotic class, the finite multiplier
    coordinates are mapped through the Smith conjugator S while the common
    profinite part is mixed by the same matrix; the two strands are glued by
    the Chinese remainder theorem at every level.  The group isomorphism
    rho is S per block, and the witness's cocycles are the homomorphism
    cocycles of rho and rho^-1."""
    decision = conj_decide(ms, ns)
    if not decision:
        raise ValueError(f"not conjugate: {decision.obstruction}")
    r = len(ms)
    x = odometer_product(ms)
    y = odometer_product(ns)

    blocks = []
    rho_cols = [[0] * r for _ in range(r)]  # rho_cols[i] = rho(e_i)
    rho_inv_cols = [[0] * r for _ in range(r)]
    depth = 0
    for blk in decision.blocks:
        s, _t = blk.conjugator
        s_inv = invert_unimodular(s)
        for a_pos, j in enumerate(blk.right_indices):
            for b_pos, i in enumerate(blk.left_indices):
                rho_cols[i][j] = s.get(a_pos, b_pos)
                rho_inv_cols[j][i] = s_inv.get(b_pos, a_pos)
        blocks.append((blk, s, s_inv))
        depth = max(
            depth,
            max(_e_max(q) for q in blk.left_multipliers + blk.right_multipliers),
        )

    def make_table(forward: bool):
        def ev(k: int, res):
            out = np.zeros_like(res)
            for blk, s, s_inv in blocks:
                mat = s if forward else s_inv
                src_idx = blk.left_indices if forward else blk.right_indices
                tgt_idx = blk.right_indices if forward else blk.left_indices
                qs_src = blk.left_multipliers if forward else blk.right_multipliers
                tgt_limits = ns if forward else ms
                lm_l = level_modulus(Odometer(blk.base), k)
                m_t = np.array(mat.to_rows(), dtype=np.int64).T
                u = res[:, src_idx] % np.array(qs_src, dtype=np.int64)[None, :]
                w = res[:, src_idx] % lm_l
                su = u @ m_t
                sw = w @ m_t
                for a_pos, j in enumerate(tgt_idx):
                    whole = level_modulus(Odometer(tgt_limits[j]), k)
                    g = whole // lm_l
                    a1 = su[:, a_pos] % g
                    a2 = sw[:, a_pos] % lm_l
                    if g == 1:
                        out[:, j] = a2
                    elif lm_l == 1:
                        out[:, j] = a1
                    else:
                        t = ((a2 - a1) * pow(g, -1, lm_l)) % lm_l
                        out[:, j] = a1 + g * t
            return out

        return ev

    phi = LCMap(x, y, lambda k: max(k, depth), make_table(True), "conj")
    psi = LCMap(y, x, lambda k: max(k, depth), make_table(False), "conj-inv")
    a = homomorphism_cocycle(x, [tuple(c) for c in rho_cols], y.group_moduli())
    b = homomorphism_cocycle(y, [tuple(c) for c in rho_inv_cols], x.group_moduli())
    return CoeWitness(phi, a, psi, b)
