"""Exact arithmetic on supernatural numbers.

A supernatural number is a formal product prod_p p^(e_p) over primes with
exponents in {0, 1, 2, ...} union {infinity}.  Only finitely many primes may
carry a nonzero exponent here; that keeps every value finitely describable
while still covering all products of the form n * prod_p p^inf.

Where a value is checked: `SupernaturalNumber(...)` and `from_map` check
every prime and exponent of what a caller hands them, and `parse_sn` checks
every term of the text once, splitting it at `^` with no regular
expression.  The arithmetic (`mul`, `product`, `from_int`, `gcd`, `lcm`,
`div_exact`, and `decide`'s `eig_group` and block bases) builds its
results through `_canonical` without a check: their primes come from
checked operands or from `factorize`, and their exponents are sums,
minima, maxima or differences that the operation keeps canonical.

The class key, the set of primes with infinite exponent, is kept with the
value (`infinite_primes`), computed the first time `class_key` or
`is_supernatural` asks for it, whichever way the value was built; a value
that is never asked pays nothing.  It is not a field: equality, hash and
pickling read `factors` alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

INF = math.inf


class ParseError(ValueError):
    """Raised for malformed or out-of-domain textual input."""


# The supported domain: every prime factor of a natural number, whether an
# exponent's base or a factor of a bare natural or a multiplier, is below
# PRIME_LIMIT.  Trial division then ends after at most PRIME_LIMIT / 2
# divisions; a number outside the domain raises ValueError (exit 2).
PRIME_LIMIT = 10**6

# Every finite exponent of an input number, written after a prime or carried
# by a bare natural, is at most EXPONENT_LIMIT, so the multipliers built from
# the inputs grow with the number of factors, never with a written exponent.
# Products of inputs, such as a side's total, may carry larger exponents;
# only inputs are bounded.
EXPONENT_LIMIT = 64


@lru_cache(maxsize=4096)  # parse_sn and direct construction check each prime
def _is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def factorize(n: int) -> dict[int, int]:
    """Trial-division factorization of a natural number >= 1 whose prime
    factors are all below PRIME_LIMIT; ValueError for any other input."""
    if n < 1:
        raise ValueError(f"expected a natural number >= 1, got {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n and d < PRIME_LIMIT:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n >= PRIME_LIMIT:
        # no divisor below min(sqrt(n), PRIME_LIMIT) is left, so n has a
        # prime factor of at least PRIME_LIMIT
        raise ValueError(f"{n} has a prime factor >= {PRIME_LIMIT}, "
                         "outside the supported domain")
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _check_exponent(p: int, e, limit: float = INF) -> None:
    """e is INF or an int in [1, limit]; inputs pass EXPONENT_LIMIT."""
    if e is INF:
        return
    if isinstance(e, bool) or not isinstance(e, int):
        raise ValueError(f"exponent of {p} must be an int or INF, got {e!r}")
    if e < 1:
        raise ValueError(f"exponent of {p} must be >= 1 in canonical form")
    if e > limit:
        raise ParseError(f"exponent {e} of {p} exceeds {limit}, the supported bound "
                         "on finite exponents")


@dataclass(frozen=True)
class SupernaturalNumber:
    """Canonical form: primes strictly ascending, exponents int >= 1 or INF."""

    factors: tuple[tuple[int, int | float], ...] = ()

    def __post_init__(self):
        last = 1
        for p, e in self.factors:
            if not _is_prime(p):
                raise ValueError(f"{p} is not prime")
            if p <= last:
                raise ValueError("primes must be strictly ascending")
            _check_exponent(p, e)
            last = p

    @staticmethod
    def from_map(m: dict[int, int | float]) -> "SupernaturalNumber":
        items = tuple(sorted((p, e) for p, e in m.items() if e != 0))
        return SupernaturalNumber(items)

    @staticmethod
    def from_int(n: int) -> "SupernaturalNumber":
        return _canonical(factorize(n))

    def v(self, p: int) -> int | float:
        """Exponent of the prime p (0 when absent)."""
        for q, e in self.factors:
            if q == p:
                return e
        return 0

    @property
    def support(self) -> frozenset[int]:
        return frozenset(p for p, _ in self.factors)

    @cached_property
    def infinite_primes(self) -> frozenset[int]:
        """The class key: the primes with infinite exponent, kept once
        asked (see the module docstring)."""
        return frozenset(p for p, e in self.factors if e is INF)

    def __mul__(self, other: "SupernaturalNumber") -> "SupernaturalNumber":
        return mul(self, other)

    def __str__(self) -> str:
        return sn_str(self)

    def __reduce__(self):
        # unpickling builds every float anew, and an infinite exponent is
        # told by its identity with INF, so it is pickled as None
        return _unpickle, (tuple((p, None if e is INF else e) for p, e in self.factors),)


def _unpickle(factors) -> SupernaturalNumber:
    return SupernaturalNumber(tuple((p, INF if e is None else e) for p, e in factors))


ONE = SupernaturalNumber()


def _canonical(exps: dict[int, int | float]) -> SupernaturalNumber:
    """The value with exponents `exps`, built without a check: every key is
    prime and every exponent an int >= 0 or INF by construction.  Zero
    exponents are dropped and the primes sorted."""
    out = object.__new__(SupernaturalNumber)
    object.__setattr__(out, "factors", tuple(sorted([pe for pe in exps.items() if pe[1]])))
    return out


def is_supernatural(a: SupernaturalNumber) -> bool:
    """True when some exponent is infinite, i.e. the value is not a natural."""
    return bool(a.infinite_primes)


def mul(a: SupernaturalNumber, b: SupernaturalNumber) -> SupernaturalNumber:
    return product((a, b))


def product(ms: tuple[SupernaturalNumber, ...] | list[SupernaturalNumber]) -> SupernaturalNumber:
    """One pass: the factors' exponents are summed in one dict, INF absorbs."""
    out: dict[int, int | float] = {}
    for m in ms:
        for p, e in m.factors:
            cur = out.get(p, 0)
            out[p] = INF if (cur is INF or e is INF) else cur + e
    return _canonical(out)


def divides(a: SupernaturalNumber, b: SupernaturalNumber) -> bool:
    """Exponentwise a | b."""
    return all(e <= b.v(p) for p, e in a.factors)


def gcd(a: SupernaturalNumber, b: SupernaturalNumber) -> SupernaturalNumber:
    return _canonical({p: min(e, b.v(p)) for p, e in a.factors})


def lcm(a: SupernaturalNumber, b: SupernaturalNumber) -> SupernaturalNumber:
    out: dict[int, int | float] = dict(a.factors)
    for p, e in b.factors:
        out[p] = max(out.get(p, 0), e)
    return _canonical(out)


def div_exact(a: SupernaturalNumber, b: SupernaturalNumber) -> SupernaturalNumber:
    """Quotient a / b for a finite divisor b with b | a.

    Infinite divisors are rejected: inf - inf has no well-defined value.
    """
    if is_supernatural(b):
        raise ValueError(f"divisor {b} must be finite")
    if not divides(b, a):
        raise ValueError(f"{b} does not divide {a}")
    out: dict[int, int | float] = dict(a.factors)
    for p, e in b.factors:
        cur = out[p]
        out[p] = INF if cur is INF else cur - e
    return _canonical(out)


def class_key(a: SupernaturalNumber) -> frozenset[int]:
    """The set of primes with infinite exponent."""
    return a.infinite_primes


def sim(a: SupernaturalNumber, b: SupernaturalNumber) -> bool:
    """Mutual divisibility up to finite multipliers."""
    return class_key(a) == class_key(b)


def sim_witness(a: SupernaturalNumber, b: SupernaturalNumber) -> tuple[int, int]:
    """Smallest naturals (m, n) with m*a = n*b, for sim-equivalent inputs."""
    if not sim(a, b):
        raise ValueError(f"{a} and {b} are not equivalent up to finite multipliers")
    m = 1
    n = 1
    for p in sorted(a.support | b.support):
        ea, eb = a.v(p), b.v(p)
        if ea is INF:
            continue
        if ea > eb:
            n *= p ** (ea - eb)
        elif eb > ea:
            m *= p ** (eb - ea)
    return m, n


def parse_sn(text: str) -> SupernaturalNumber:
    """Parse expressions like ``2^inf*3^2`` or ``12``.

    Whitespace is ignored.  A base written with an exponent must be prime;
    bare naturals are factorized.  The value 0 is out of domain, and so is
    a finite exponent above EXPONENT_LIMIT.
    """
    s = "".join(text.split())  # str.split drops exactly what str.isspace() holds
    if not s:
        raise ParseError("empty supernatural-number expression")
    exps: dict[int, int | float] = {}  # the terms' exponents, summed; INF absorbs
    for term in s.split("*"):
        # a term is digits, optionally followed by ^ and digits or inf;
        # digits are what str.isdecimal() holds, as int() reads them
        head, caret, tail = term.partition("^")
        if not head.isdecimal() or (caret and tail != "inf" and not tail.isdecimal()):
            raise ParseError(f"malformed term {term!r}")
        base = int(head)
        if not caret:
            if base == 0:
                raise ParseError("0 is not a supernatural number")
            powers = factorize(base).items()
        else:
            if not _is_prime(base):
                raise ParseError(f"base {base} with an exponent must be prime")
            e = INF if tail == "inf" else int(tail)
            if e < 1:
                raise ParseError(f"exponent must be >= 1 or inf, got {e}")
            powers = ((base, e),)
        for p, e in powers:
            cur = exps.get(p, 0)
            exps[p] = INF if (cur is INF or e is INF) else cur + e
    out = _canonical(exps)
    for p, e in out.factors:
        _check_exponent(p, e, EXPONENT_LIMIT)
    return out


def parse_sn_list(text: str) -> tuple[SupernaturalNumber, ...]:
    """Parse a comma-separated list of supernatural-number expressions."""
    parts = text.split(",")
    if any(not p.strip() for p in parts):
        raise ParseError(f"malformed list {text!r}")
    return tuple(parse_sn(p) for p in parts)


def sn_str(a: SupernaturalNumber) -> str:
    """Canonical rendering: primes ascending, ``p^e`` terms joined by ``*``."""
    if not a.factors:
        return "1"
    terms = []
    for p, e in a.factors:
        if e is INF:
            terms.append(f"{p}^inf")
        elif e == 1:
            terms.append(str(p))
        else:
            terms.append(f"{p}^{e}")
    return "*".join(terms)
