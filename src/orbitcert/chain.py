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
plans every part's grids from the level maps before anything is built:
verify_chain runs it first, and certificates.witness_block and the
selftest screen refuse through it too.

An identity part, and each block of a conjugacy, is linear
(orbitcert.linear): phi sends the residues x at its input level d(k) to
x.rho mod the level-k moduli N_c(k), psi does likewise with sigma, and
a(e_i, x) = rho(e_i), b(e_c, y) = sigma(e_c) are constant.  Write M_i(k)
for the source moduli.  The integer conditions decide the checks that
read the point maps:

- Equivariance at output level k, on the grid of x at level d = d(k): where
  the step x -> x + e_i does not wrap, phi moves by rho(e_i) exactly; where
  it wraps, residue M_i(d) - 1 goes to 0 and phi moves by (1 - M_i(d)) rho(e_i).
  So the check holds exactly when N_c(k) | rho_ci M_i(d) for all i and c.
- The roundtrip psi-after-phi at level L, with mid = psi's input level at L:
  phi(x) = rho x - N(mid) q for some integer vector q, so psi(phi(x)) =
  sigma rho x - sigma N(mid) q mod M(L).  Given psi's wrap condition,
  M_i(L) | sigma_ic N_c(mid) for all i and c, which is psi's equivariance
  condition at L, the second term vanishes and psi(phi(x)) = sigma rho x is
  linear in x.  It equals x mod M(L) on the whole grid exactly when
  M_i(L) | (sigma rho - I)_ij for every axis j with more than one residue,
  since the grid holds 0 and each such e_j, and phi reads every axis in
  full; on an axis phi reads coarser than the grid, at its input level k,
  the point M_j(k) e_j has the image of 0 and fails.  Without the wrap
  condition the roundtrip is reported failing: psi's equivariance fails as
  well, so the part's verdict is exact, and a roundtrip that passes is one
  the grid passes.  phi-after-psi is the same with the roles exchanged.
- The inverse checks read constant tables: b(a(e_i, x), phi(x)) is
  sigma(rho(e_i)) at every point, rho(e_i) canonical in the target's group
  and the value in the source's, so sigma(rho(e_i)) = e_i, and rho(sigma(e_c))
  = e_c, decide them.
- The cocycle identities and verify_conj's homomorphism check read the
  cocycles, which a linear part gives by their columns rho(e_i)
  (CocycleTable.columns), not by tables; the grid checks would read the
  constant level-0 tables of those columns.  Constant tables always
  commute: f_i(x) + f_j(e_i.x) - f_j(x) - f_i(e_j.x) = 0 at every point.
  On a cyclic factor of order n every e_i-orbit has n points, so it sums
  to n rho(e_i), the same for every orbit: the identity holds exactly
  when n rho(e_i) = 0 in the target group, and otherwise fails at every
  orbit, each shown at its point with residue 0 on axis i.  A constant
  cocycle is a homomorphism by construction.  So the columns decide these
  checks with the grid checks' counts and violation points.  A part whose
  cocycles are given by tables (a split, merge, finite or twisted part) is
  never linear and keeps its grid checks; so is an untwisted witness,
  whose slid maps are tables, though its cocycles, rho's columns, are
  decided as above.

No condition grows with the level, and a linear part is built, planned
and checked without a grid or a table, so require_level, POINT_LIMITS and
the bound on array axes (cocycle._AXES) are the only bounds on it; its
grids are planned only for a screen of the grid checks (require_checkable
with matrix=False).
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
    report lines and on a refusal of its grids."""
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


def require_checkable(chain: CoeChain, level: int, limit: int, matrix: bool = True) -> list[int]:
    """Refuse, with the part verifier's own error, a level at which checking
    the chain would build a grid beyond `limit` points, and a part whose
    checks would need more array axes than numpy allows; else return the
    stage levels lambda_k.  Only the chain's level maps are read, nothing
    is built; each part is planned at its stage's level, a linear part by
    its matrices unless `matrix` is False (require_grids), and a part's
    refusal carries its tag, which names the stage and part."""
    require_level(chain.source, level, limit)
    require_level(chain.target, level, limit)
    levels = chain.stage_levels(level)
    for k, (stage, lam) in enumerate(zip(chain.stages, levels)):
        for p, part in enumerate(stage.parts):
            try:
                require_grids(part.witness, lam, limit, matrix)
            except ValueError as e:
                raise ValueError(f"{part_tag(k, p, part, lam)}{e}") from None
    return levels


def verify_chain(chain: CoeChain, level: int = 4, relation: str = "coe") -> VerifyReport:
    """Check a chain as a witness of `relation`, "coe" or "conj": the seams
    of every stage, then each elementary part at the stage's level lambda_k
    (module docstring), a linear part by its matrices and any other on its
    own grid, with verify_coe, or verify_conj for a conjugacy.  Cost is the
    sum of the parts' grids, not the grid of the composite.  The report's
    kind is the part reports'.  A level at which any part would build a
    grid beyond the relation's point limit is refused by require_checkable
    before any part is checked."""
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
