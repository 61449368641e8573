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
The part verifier comes from the claim being checked, never from a part's
kind, so a mislabelled part cannot skip homomorphism.
"""
from __future__ import annotations

from dataclasses import dataclass

from .cocycle import CheckResult, CoeWitness, VerifyReport, inverse_coe, verify_coe
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


def _seam_check(name: str, stage: Stage, source: SystemSpec, target: SystemSpec) -> CheckResult:
    """The stage runs from `source` to `target`, its parts' read and write
    indices partition the factors on either side, and each part's systems
    are exactly the factors it reads and writes."""
    bad = []
    if (stage.source, stage.target) != (source, target):
        bad.append((name, "the stage does not start where the previous one ends, "
                          "or the last stage does not end at the chain's target"))
    for side, spec in (("reads", stage.source), ("writes", stage.target)):
        if sorted(i for p in stage.parts for i in getattr(p, side)) != list(range(spec.rank)):
            bad.append((name, f"the parts' {side} do not partition the {spec.rank} factors"))
    for p, part in enumerate(stage.parts):
        for spec, idx, own in ((stage.source, part.reads, part.witness.source),
                               (stage.target, part.writes, part.witness.target)):
            if any(not 0 <= i < spec.rank for i in idx) or \
                    tuple(spec.factors[i] for i in idx) != own.factors:
                bad.append((name, f"part {p} ({part.kind}) is wired to {idx}, "
                                  "whose factors are not its own"))
    return CheckResult(name, 3 + 2 * len(stage.parts), bad)


def verify_chain(chain: CoeChain, level: int = 4, point_limit: int = 10**6,
                 verify=verify_coe) -> VerifyReport:
    """Check a chain stage by stage: the seams of every stage, then each
    elementary part with `verify` (verify_coe, or verify_conj for a
    conjugacy) on its own grid at the stage's level lambda_k (module
    docstring).  Cost is the sum of the parts' grids, not the grid of the
    composite.  The report's kind is the part reports'.  A level beyond the
    point limit is refused up front."""
    require_level(chain.source, level, point_limit)
    require_level(chain.target, level, point_limit)
    kind, checks = "coe-witness", []
    last = len(chain.stages) - 1
    for k, (stage, lam) in enumerate(zip(chain.stages, chain.stage_levels(level))):
        source = chain.stages[k - 1].target if k else chain.source
        target = chain.target if k == last else stage.target
        checks.append(_seam_check(f"stage {k} @{lam}: seams", stage, source, target))
        for p, part in enumerate(stage.parts):
            tag = f"stage {k} part {p} ({part.kind}) @{lam}: "
            report = verify(part.witness, lam, point_limit)
            kind = report.kind
            checks.extend(CheckResult(tag + c.name, c.checked, c.violations)
                          for c in report.checks)
    return VerifyReport(kind, level, checks)
