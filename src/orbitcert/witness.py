"""Constructive witnesses: explicit orbit equivalences and conjugacies
between odometer products, assembled from four elementary moves (splitting a
cyclic factor off an odometer, permuting factors, merging finite cyclic
factors, direct sums) and glued by composition."""
from __future__ import annotations

import math

import numpy as np

from .cocycle import (
    CocycleTable,
    CoeWitness,
    ConjWitness,
    GroupIso,
    GroupValuedMap,
    LCMap,
    compose_coe,
    constant_generator,
    identity_witness,
    inverse_coe,
    minimized_table,
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
from .intmat import IntMatrix, invert_unimodular
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


def permutation_witness(spec: SystemSpec, perm: tuple[int, ...]) -> CoeWitness:
    """Reorder factors: output factor j is input factor perm[j]."""
    if sorted(perm) != list(range(spec.rank)):
        raise ValueError("perm must be a permutation of the factor indices")
    inv = [0] * len(perm)
    for j, i in enumerate(perm):
        inv[i] = j
    tgt = SystemSpec(tuple(spec.factors[i] for i in perm))
    phi = LCMap(spec, tgt, lambda k: k, lambda k, res: res[:, perm], "perm")
    psi = LCMap(tgt, spec, lambda k: k, lambda k, res: res[:, inv], "perm-inv")
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
    x = SystemSpec(tuple(f for w in parts for f in w.source.factors))
    y = SystemSpec(tuple(f for w in parts for f in w.target.factors))
    xoff, yoff = [0], [0]
    for w in parts:
        xoff.append(xoff[-1] + w.source.rank)
        yoff.append(yoff[-1] + w.target.rank)

    def sum_map(maps: list[LCMap], src: SystemSpec, tgt: SystemSpec, off, name) -> LCMap:
        def table(k: int, res: np.ndarray) -> np.ndarray:
            return np.concatenate(
                [m.at(k, res[:, off[t] : off[t + 1]]) for t, m in enumerate(maps)], axis=1
            )

        return LCMap(src, tgt, lambda k: max(m.input_level(k) for m in maps), table, name)

    def lift(t: int, local: GroupValuedMap, spec: SystemSpec, src_off, tgt_off,
             tgt_gm) -> GroupValuedMap:
        """local's values placed in part t's coordinates of the sum."""
        def vals(res: np.ndarray) -> np.ndarray:
            out = np.zeros((len(res), len(tgt_gm)), dtype=np.int64)
            out[:, tgt_off[t] : tgt_off[t + 1]] = local.at(res[:, src_off[t] : src_off[t + 1]])
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


def build_coe_witness(
    ms: tuple[SupernaturalNumber, ...],
    ns: tuple[SupernaturalNumber, ...],
) -> CoeWitness:
    """Explicit orbit equivalence between the odometer products, built as
    split-permute-merge on both sides into a common middle system.  Raises
    ValueError when the systems are not equivalent."""
    decision = coe_decide(ms, ns)
    if not decision:
        raise ValueError(f"not orbit equivalent: {decision.obstruction}")
    if ms == ns:
        return identity_witness(odometer_product(ms))
    pairs = _rebalanced_pairs(ms, ns, decision)
    r = len(pairs)
    bases = []
    for i, j, mi, ni in pairs:
        li = div_exact(ms[i], SupernaturalNumber.from_int(ni))
        assert mul(SupernaturalNumber.from_int(mi), li) == ns[j], "pair identity broke"
        bases.append(li)

    def chain(orders: list[int], limits: list[SupernaturalNumber], perm: tuple[int, ...]):
        split = direct_sum_coe([build_basic_coe(l, L) for l, L in zip(orders, limits)])
        reorder = permutation_witness(split.target, perm)
        merge = direct_sum_coe(
            [build_finite_coe(tuple(orders), (math.prod(orders),))]
            + [identity_witness(SystemSpec((Odometer(L),))) for L in limits]
        )
        return compose_coe(compose_coe(split, reorder), merge)

    # X side: factor i splits off an n_i-cycle
    x_perm = tuple([2 * t for t in range(r)] + [2 * t + 1 for t in range(r)])
    x_chain = chain([p[3] for p in pairs], bases, x_perm)

    # Y side: factor sigma(i) splits off an m_i-cycle; permute back to pair order
    sigma = {p[0]: p[1] for p in pairs}
    y_orders = [0] * r
    y_limits: list[SupernaturalNumber] = [None] * r  # type: ignore[list-item]
    for t, (i, j, mi, ni) in enumerate(pairs):
        y_orders[j] = mi
        y_limits[j] = bases[t]
    y_perm = tuple([2 * sigma[p[0]] for p in pairs] + [2 * sigma[p[0]] + 1 for p in pairs])
    y_split = direct_sum_coe([build_basic_coe(l, L) for l, L in zip(y_orders, y_limits)])
    y_reorder = permutation_witness(y_split.target, y_perm)
    y_merge = direct_sum_coe(
        [build_finite_coe(tuple(p[2] for p in pairs), (math.prod(y_orders),))]
        + [identity_witness(SystemSpec((Odometer(L),))) for L in bases]
    )
    y_chain = compose_coe(compose_coe(y_split, y_reorder), y_merge)

    if x_chain.target != y_chain.target:
        raise AssertionError("the two chains built different middle systems")
    w = compose_coe(x_chain, inverse_coe(y_chain))
    return CoeWitness(w.phi, minimized_table(w.a), w.psi, minimized_table(w.b))


# ---------------------------------------------------------------------------
# conjugacy witnesses


def build_conj_witness(
    ms: tuple[SupernaturalNumber, ...],
    ns: tuple[SupernaturalNumber, ...],
) -> ConjWitness:
    """Explicit conjugacy: per asymptotic class, the finite multiplier
    coordinates are mapped through the Smith conjugator S while the common
    profinite part is mixed by the same matrix; the two strands are glued by
    the Chinese remainder theorem at every level."""
    decision = conj_decide(ms, ns)
    if not decision:
        raise ValueError(f"not conjugate: {decision.obstruction}")
    r = len(ms)
    x = odometer_product(ms)
    y = odometer_product(ns)

    blocks = []
    rho_rows = [[0] * r for _ in range(r)]
    rho_inv_rows = [[0] * r for _ in range(r)]
    depth = 0
    for blk in decision.blocks:
        s, _t = blk.conjugator
        s_inv = invert_unimodular(s)
        for a_pos, j in enumerate(blk.right_indices):
            for b_pos, i in enumerate(blk.left_indices):
                rho_rows[j][i] = s.get(a_pos, b_pos)
                rho_inv_rows[i][j] = s_inv.get(b_pos, a_pos)
        blocks.append((blk, s, s_inv))
        depth = max(
            depth,
            max(_e_max(q) for q in blk.left_multipliers + blk.right_multipliers),
        )
    rho = GroupIso(
        (0,) * r,
        (0,) * r,
        IntMatrix.from_rows(rho_rows),
        IntMatrix.from_rows(rho_inv_rows),
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
    phi_inv = LCMap(y, x, lambda k: max(k, depth), make_table(False), "conj-inv")
    return ConjWitness(rho, phi, phi_inv)
