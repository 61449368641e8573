"""Products of cyclic translations and odometers, truncated at finite levels.

A system is a finite product of factors.  Each factor is either a cyclic
translation on Z/n or an odometer indexed by a supernatural number M; the
odometer's level-k truncation is the cyclic group Z/level_modulus(M, k), and
those truncations form an inverse tower as k grows.  The acting group is the
product of one copy of Z per odometer factor and Z/n per cyclic factor.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Union

from .supernatural import INF, SupernaturalNumber, is_supernatural


@dataclass(frozen=True)
class Cyclic:
    n: int


@dataclass(frozen=True)
class Odometer:
    limit: SupernaturalNumber


Factor = Union[Cyclic, Odometer]


@lru_cache(maxsize=None)
def level_modulus(f: Factor, k: int) -> int:
    """Modulus of the level-k truncation of one factor."""
    if k < 0:
        raise ValueError("level must be >= 0")
    if isinstance(f, Cyclic):
        return f.n
    m = 1
    for p, e in f.limit.factors:
        m *= p ** (k if e is INF else min(e, k))
    return m


@dataclass(frozen=True)
class SystemSpec:
    """Equality and hash depend on factors alone; _group holds group_moduli
    and _moduli memoizes space_moduli per level on the instance, so a call
    does not walk or hash the factors again."""

    factors: tuple[Factor, ...]
    _group: tuple = field(default=(), init=False, repr=False, compare=False)
    _moduli: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.factors:
            raise ValueError("a system needs at least one factor")
        object.__setattr__(
            self, "_group", tuple(f.n if isinstance(f, Cyclic) else 0 for f in self.factors)
        )

    @property
    def rank(self) -> int:
        return len(self.factors)

    def group_moduli(self) -> tuple[int, ...]:
        """Acting-group descriptor: n for a cyclic factor, 0 meaning Z."""
        return self._group

    def space_moduli(self, k: int) -> tuple[int, ...]:
        got = self._moduli.get(k)
        if got is None:
            got = self._moduli[k] = tuple(level_modulus(f, k) for f in self.factors)
        return got


@dataclass(frozen=True)
class PointAtLevel:
    level: int
    residues: tuple[int, ...]


def canonical_coords(group_moduli: tuple[int, ...], coords: tuple[int, ...]) -> tuple[int, ...]:
    """Reduce cyclic coordinates mod n; Z coordinates pass through."""
    if len(coords) != len(group_moduli):
        raise ValueError("coordinate arity mismatch")
    return tuple(c % m if m else c for c, m in zip(coords, group_moduli))


def generator(spec: SystemSpec, i: int) -> tuple[int, ...]:
    """The coordinates of the i-th generator e_i of the acting group."""
    return tuple(1 if j == i else 0 for j in range(spec.rank))


def point_count(spec: SystemSpec, k: int) -> int:
    n = 1
    for m in spec.space_moduli(k):
        n *= m
    return n


def require_level(spec: SystemSpec, k: int, limit: int) -> None:
    """Refuse level k, before any level-k modulus is computed, when its grid
    cannot fit in `limit` points: a factor with an infinite prime exponent
    has at least 2**k residues at level k."""
    if k >= limit.bit_length() and any(
        isinstance(f, Odometer) and is_supernatural(f.limit) for f in spec.factors
    ):
        raise ValueError(f"level {k} is beyond the point limit {limit}: "
                         f"a level-{k} grid holds at least 2**{k} points")


def odometer_product(limits: tuple[SupernaturalNumber, ...]) -> SystemSpec:
    return SystemSpec(tuple(Odometer(m) for m in limits))
