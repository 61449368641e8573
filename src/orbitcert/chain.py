"""Orbit equivalences as chains of elementary moves, checked stage by stage.

A chain runs through stages X_0 -> X_1 -> ... -> X_n.  Each stage is a
factorwise product of elementary orbit equivalences (StagePart), each of
which reads some factors of the stage's source and writes some factors of
its target, so reordering factors is wiring, not a witness of its own.

Two standard facts make the stage-wise check sound: a composite of
continuous orbit equivalences is one, with the composite cocycle
a(g, x) = a2(a1(g, x), phi1(x)); and a product of them acting factorwise is
one, with the cocycle acting factorwise.  Stage k, from X_k to X_(k+1), is
checked at the one level

    lambda_k = max(E_(k+1), F_k, a_(k+1).level, b_(k-1).level),

where E_n = F_0 = L is the requested level, E_k applies the later stages'
phi level maps to L (the level on X_k the composite point map reads) and
F_k the earlier stages' psi level maps (the level on X_k the composite
inverse reads).  The composite's checks at L need exactly these: its
equivariance and roundtrips at L read stage k's maps at E_(k+1) and F_k,
and its cocycles read phi_k at a_(k+1).level and psi_k at b_(k-1).level.

A conjugacy is the one-stage chain of its block conjugacies, checked with
verify_conj on each part.  A factorwise product of conjugacies, wired by
factor permutations, is a conjugacy whose rho is block-diagonal up to those
permutations, and a composite of conjugacies is a conjugacy.  So the seams,
each part's homomorphism check and its eight coe checks prove the claim.
verify_chain takes the relation claimed, "coe" or "conj", and that alone
sets the part verifier and the point limit (POINT_LIMITS), never a part's
kind, so a mislabelled part cannot skip homomorphism.  require_checkable
refuses a level, or a part, beyond the point limit before any part is
checked: verify_chain runs it first, and certificates.witness_block
refuses through it too.

Every part is given by pieces (orbitcert.linear): a point map f with
cylinder modulus D sends r + D.u to t_r + u.A_r, and a cocycle is constant
on the cylinders of its own modulus.  A split has l pieces, a finite
rerank one per point, an identity or conjugacy part one (D = 1, t = 0,
A = rho), a slid map one per cylinder of its transfer.  At output level k
f reads input level d = d(k); write M(d) and N(k) for the moduli.  For a
modulus C with D | C | M(d), the grid points of a cylinder r of C are
x = r + C.v with v in the box prod [0, M_i(d)/C_i), and there f(x) =
t'_r + v.A'_r mod N(k), an affine map of v.  The argument rests on one
fact: c + v.B vanishes mod N on the box exactly when c does and B_j does
for every j whose box has more than one value, since v = 0 and v = e_j lie
in it.  Along an axis whose C_i does not divide M_i(d), C_i is the lcm
with M_i(d) and f is constant there.  Each grid check at its level then
becomes congruences:

- Equivariance, on the cylinders C of f and a together: a is constant on
  each.  The step x -> x + e_i stays inside the box when r_i < C_i - 1,
  moving to the cylinder r + e_i with v fixed; from r_i = C_i - 1 it moves
  to the cylinder with r_i = 0 and v + e_i, unless v_i is the last value,
  where v_i wraps to 0 at M_i(d).  On each of these boxes both sides are
  affine in v, so the fact decides it exactly.
- The roundtrip psi-after-phi at level L, with mid = psi's input level:
  phi is cut into pieces on which phi(x) lies in one cylinder s of psi's
  modulus E, every row being 0 mod E.  Along an axis phi reads coarser
  than L, the pieces are the cylinders of M(L) there.  On a piece,
  phi(x) = s + E.w with w = (t' + v.A') mod R and R = N(mid)/E, and
  psi(phi(x)) = tau_s + w.B_s.  Take a coordinate c of w.  Either it can
  never reach R_c on the box, or R_c B_s[c] = 0 mod M(L) (the wrap
  condition) hides the reduction.  In both cases psi(phi(x)) = tau_s +
  t'.B_s + v.(A'B_s) is affine in v, as x mod M(L) = r + C.v is, and the
  fact decides the check exactly.  Where neither holds the roundtrip is
  reported failing, which is stricter than the grid, never weaker.  For a
  linear part the wrap condition is psi's equivariance at L, so the
  part's verdict is exact there too.  phi-after-psi exchanges the roles.
- The inverse checks: phi is cut into pieces on which a is constant and
  phi(x) lies in one cylinder y of b, so b(a(e_i, x), phi(x)) is one value
  per piece.  b is read at any group element h by telescoping: along e_j
  its values repeat with period E_j, so h_j = q E_j + s steps sum to q
  periods plus s steps.
- The cocycle identities and homomorphism read only the cocycles, on
  their own cylinders: the commutation of each pair of generators at each
  cylinder, and on a cyclic factor of order n the sum over an e_i-orbit,
  n/E_i periods of E_i cylinders, against 0.  homomorphism asks that
  every cylinder's column equal the first.  These count, and show
  failures at, the points of the cocycle's level grid, as a table would.

No condition grows with the level, except along an axis a map reads
coarser than the level checked.  So require_level and POINT_LIMITS bound
a level, and a part's cylinders are bounded by the point limit
(cocycle.require_grids).  The grid checks survive as the tests' oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

from .cocycle import (
    POINT_LIMITS,
    CheckResult,
    CoeWitness,
    VerifyReport,
    inverse_coe,
    require_grids,
    verify_coe,
    verify_conj,
)
from .dynamics import SystemSpec, require_level


@dataclass(frozen=True, eq=False)
class StagePart:
    """One elementary witness inside a stage.  Its source is the stage
    source's factors `reads`, in that order, and its target the stage
    target's factors `writes`; reordering factors is this wiring, not a
    witness of its own."""

    kind: str
    witness: CoeWitness
    reads: tuple[int, ...]
    writes: tuple[int, ...]

    def inverse(self) -> "StagePart":
        kind = self.kind[:-3] if self.kind.endswith("^-1") else self.kind + "^-1"
        return StagePart(kind, inverse_coe(self.witness), self.writes, self.reads)


@dataclass(frozen=True, eq=False)
class Stage:
    """The factorwise product of its parts, from source to target."""

    source: SystemSpec
    target: SystemSpec
    parts: tuple[StagePart, ...]

    def inverse(self) -> "Stage":
        return Stage(self.target, self.source, tuple(p.inverse() for p in self.parts))

    def phi_level(self, k: int) -> int:
        """Input level of the stage's point map at output level k, the
        largest any part reads; likewise psi_level and the cocycle levels."""
        return max(p.witness.phi.input_level(k) for p in self.parts)

    def psi_level(self, k: int) -> int:
        return max(p.witness.psi.input_level(k) for p in self.parts)

    @property
    def a_level(self) -> int:
        return max(p.witness.a.level for p in self.parts)

    @property
    def b_level(self) -> int:
        return max(p.witness.b.level for p in self.parts)


@dataclass(frozen=True, eq=False)
class CoeChain:
    """An orbit equivalence from source to target as the composite of its
    stages, the first applied first."""

    source: SystemSpec
    target: SystemSpec
    stages: tuple[Stage, ...]

    def phi_levels(self, level: int) -> list[int]:
        """E: E[k] is the level on stage k's source that the composite point
        map reads for output level `level`; E[n] = level."""
        out = [level]
        for stage in reversed(self.stages):
            out.append(stage.phi_level(out[-1]))
        return out[::-1]

    def psi_levels(self, level: int) -> list[int]:
        """F: F[k] is the level on stage k's source that the composite
        inverse reads for output level `level`; F[0] = level."""
        out = [level]
        for stage in self.stages:
            out.append(stage.psi_level(out[-1]))
        return out

    def stage_levels(self, level: int) -> list[int]:
        """The level lambda_k each stage is checked at (module docstring)."""
        e, f, st = self.phi_levels(level), self.psi_levels(level), self.stages
        return [max(e[k + 1], f[k], st[k + 1].a_level if k + 1 < len(st) else 0,
                    st[k - 1].b_level if k else 0) for k in range(len(st))]


def part_tag(k: int, p: int, part: StagePart, lam: int) -> str:
    """The prefix naming stage k's part p, checked at level lam, on its
    report lines and on a refusal."""
    return f"stage {k} part {p} ({part.kind}) @{lam}: "


def _seam_check(name: str, stage: Stage, source: SystemSpec,
                target: SystemSpec) -> CheckResult:
    """The stage runs from `source` to `target`, the wirings of its parts
    partition the factors on either side, so no two parts share a factor,
    and each part has exactly the factors it reads and writes.  Three
    checks per stage and two per part."""
    bad = []
    if (stage.source, stage.target) != (source, target):
        bad.append((name, "the stage does not start where the previous one ends, "
                          "or the last stage does not end at the chain's target"))
    for side, spec in (("reads", stage.source), ("writes", stage.target)):
        if sorted(i for part in stage.parts for i in getattr(part, side)) != \
                list(range(spec.rank)):
            bad.append((name, f"the parts' {side} do not partition the {spec.rank} factors"))
    for p, part in enumerate(stage.parts):
        for spec, idx, own in ((stage.source, part.reads, part.witness.source),
                               (stage.target, part.writes, part.witness.target)):
            if not (all(0 <= i < spec.rank for i in idx)
                    and tuple(spec.factors[i] for i in idx) == own.factors):
                bad.append((name, f"part {p} ({part.kind}) is wired to {idx}, "
                                  "whose factors are not its own"))
    return CheckResult(name, 3 + 2 * len(stage.parts), bad)


def require_checkable(chain: CoeChain, level: int, limit: int) -> list[int]:
    """Refuse, with the part verifier's own error, a level beyond `limit`
    and a part of more cylinders than `limit` (require_grids); else return
    the stage levels lambda_k.  Each part is judged at its stage's level,
    and a part's refusal carries its tag, which names the stage and part."""
    require_level(chain.source, level, limit)
    require_level(chain.target, level, limit)
    levels = chain.stage_levels(level)
    for k, (stage, lam) in enumerate(zip(chain.stages, levels)):
        for p, part in enumerate(stage.parts):
            try:
                require_grids(part.witness, lam, limit)
            except ValueError as e:
                raise ValueError(f"{part_tag(k, p, part, lam)}{e}") from None
    return levels


def verify_chain(chain: CoeChain, level: int = 4, relation: str = "coe") -> VerifyReport:
    """Check a chain as a witness of `relation`, "coe" or "conj": the seams
    of every stage, then each elementary part at the stage's level lambda_k
    (module docstring), each by its pieces, with verify_coe, or verify_conj
    for a conjugacy.  Cost is the sum of the parts' pieces, not a grid of
    the composite.  The report's kind is the part reports'.  A level beyond
    the relation's point limit is refused by require_checkable before any
    part is checked."""
    limit = POINT_LIMITS[relation]
    levels = require_checkable(chain, level, limit)
    kind, checks = "coe-witness", []
    last = len(chain.stages) - 1
    for k, (stage, lam) in enumerate(zip(chain.stages, levels)):
        source = chain.stages[k - 1].target if k else chain.source
        target = chain.target if k == last else stage.target
        checks.append(_seam_check(f"stage {k} @{lam}: seams", stage, source, target))
        for p, part in enumerate(stage.parts):
            tag = part_tag(k, p, part, lam)
            # looked up by name at each call, so that a rebinding of the
            # module's verify_coe or verify_conj reaches this call
            report = (verify_conj if relation == "conj" else verify_coe)(part.witness, lam, limit)
            kind = report.kind
            checks.extend(CheckResult(tag + c.name, c.checked, c.violations)
                          for c in report.checks)
    return VerifyReport(kind, level, checks)
