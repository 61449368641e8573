import random
import re

import pytest
from hypothesis import given, strategies as st

from orbitcert.decide import eig_group
from orbitcert.supernatural import (
    INF,
    ONE,
    PRIME_LIMIT,
    ParseError,
    SupernaturalNumber,
    _is_prime,
    class_key,
    div_exact,
    divides,
    factorize,
    gcd,
    is_supernatural,
    lcm,
    mul,
    parse_sn,
    parse_sn_list,
    product,
    sim,
    sim_witness,
    sn_str,
)

SN = SupernaturalNumber.from_map


@st.composite
def supernaturals(draw, primes=(2, 3, 5, 7, 11, 13), max_exp=4, allow_inf=True):
    out = {}
    for p in primes:
        choices = list(range(0, max_exp + 1))
        e = draw(st.sampled_from(choices + [INF] if allow_inf else choices))
        if e:
            out[p] = e
    return SN(out)


def test_parse_examples():
    assert parse_sn("2^inf*3^2") == SN({2: INF, 3: 2})
    assert parse_sn("12") == SN({2: 2, 3: 1})
    assert parse_sn(" 2 ^ inf * 5") == SN({2: INF, 5: 1})
    assert parse_sn("1") == ONE
    assert parse_sn("2*2^inf") == SN({2: INF})


def test_parse_rejects():
    for bad in ["0", "", "4^2", "2^0", "2^-1", "x", "2**3", "6^inf", "2^inf*"]:
        with pytest.raises(ParseError):
            parse_sn(bad)


_TERMS = st.one_of(
    st.integers(1, 360).map(str),  # bare naturals, composites among them
    st.builds("{}^{}".format, st.sampled_from((2, 3, 5, 7)), st.integers(1, 30)),
    st.sampled_from((2, 3, 5, 7)).map("{}^inf".format),
)


@given(st.lists(_TERMS, min_size=1, max_size=5))
def test_parse_sums_the_terms_exponents(terms):
    # one number per expression, against the fold of its one-term parses
    folded = product([parse_sn(t) for t in terms])
    too_big = [(p, e) for p, e in folded.factors if e is not INF and e > 64]
    if too_big:
        p, e = too_big[0]
        with pytest.raises(ParseError, match=f"exponent {e} of {p} exceeds 64"):
            parse_sn("*".join(terms))
    else:
        assert parse_sn("*".join(terms)) == folded


def test_parse_repeated_primes_and_composites():
    assert parse_sn("2*2*2^3") == SN({2: 5})
    assert parse_sn("12*18") == SN({2: 3, 3: 3})
    assert parse_sn("2^3*2^inf") == parse_sn("2^inf*2^3") == SN({2: INF})
    assert parse_sn("6*3^inf*2") == SN({2: 2, 3: INF})
    assert parse_sn("2^32*2^32") == SN({2: 64})
    assert parse_sn("2^40*2^inf*2^40") == SN({2: INF})


@pytest.mark.parametrize("text, error, message", [
    ("", ParseError, "empty"),
    (" \t", ParseError, "empty"),
    ("2^", ParseError, "malformed term '2^'"),
    ("2*x*0", ParseError, "malformed term 'x'"),
    ("3*0", ParseError, "0 is not a supernatural number"),
    ("0*x", ParseError, "0 is not a supernatural number"),
    ("2*4^2", ParseError, "base 4 with an exponent must be prime"),
    ("9^inf*2^0", ParseError, "base 9 with an exponent must be prime"),
    ("3*2^0", ParseError, "exponent must be >= 1 or inf, got 0"),
    ("2^40*2^40", ParseError, "exponent 80 of 2 exceeds 64"),
    ("2^60*32", ParseError, "exponent 65 of 2 exceeds 64"),
    ("3^70*2^70", ParseError, "exponent 70 of 2 exceeds 64"),
    ("2^70*x", ParseError, "malformed term 'x'"),
    ("1000003", ValueError, "prime factor >= 1000000"),
    ("2*1000003^inf", ValueError, "prime factor >= 1000000"),
])
def test_parse_errors_in_term_order(text, error, message):
    with pytest.raises(error, match=re.escape(message)):
        parse_sn(text)


def test_str_round_trip_examples():
    assert sn_str(SN({2: INF, 3: 2})) == "2^inf*3^2"
    assert sn_str(SN({2: 2, 3: 1})) == "2^2*3"
    assert sn_str(ONE) == "1"


@given(supernaturals())
def test_parse_serialize_round_trip(a):
    assert parse_sn(sn_str(a)) == a


def test_parse_list():
    xs = parse_sn_list("5*2^inf, 3^inf")
    assert xs == (SN({2: INF, 5: 1}), SN({3: INF}))
    with pytest.raises(ParseError):
        parse_sn_list("2^inf,,3")


def test_canonical_form_rejects_bad_input():
    with pytest.raises(ValueError):
        SupernaturalNumber(((4, 2),))
    with pytest.raises(ValueError):
        SupernaturalNumber(((3, 1), (2, 1)))
    with pytest.raises(ValueError):
        SupernaturalNumber(((2, 0),))


def test_factorization_stays_in_the_prime_domain():
    assert PRIME_LIMIT == 10**6
    assert factorize(1) == {}
    assert factorize(8 * 999983) == {2: 3, 999983: 1}  # the largest prime below 10**6
    assert factorize(10**18) == {2: 18, 5: 18}
    assert _is_prime(999983) and not _is_prime(10**18) and not _is_prime(1)
    for big in (1000003, 2 * 1000003, 1000003**2, 1000000000000000003):
        for fn in (factorize, _is_prime, SupernaturalNumber.from_int):
            with pytest.raises(ValueError, match="prime factor >= 1000000"):
                fn(big)
    with pytest.raises(ValueError, match="prime factor"):
        parse_sn("1000003^2*2^inf")


def test_gcd_example():
    # gcd(6*2^inf, 4) = 4: the 2-exponent saturates at the finite side
    assert gcd(parse_sn("6*2^inf"), parse_sn("4")) == SN({2: 2})


def test_div_exact_examples():
    assert div_exact(parse_sn("5*2^inf"), parse_sn("5")) == SN({2: INF})
    with pytest.raises(ValueError):
        div_exact(parse_sn("2^inf"), parse_sn("2^inf"))
    with pytest.raises(ValueError):
        div_exact(parse_sn("4"), parse_sn("3"))


def test_is_supernatural():
    assert is_supernatural(parse_sn("2^inf"))
    assert not is_supernatural(parse_sn("12"))


def test_class_key():
    assert class_key(parse_sn("5*2^inf*3^inf")) == frozenset({2, 3})
    assert class_key(parse_sn("30")) == frozenset()


def test_sim_witness_examples():
    m, n = sim_witness(parse_sn("5*2^inf"), parse_sn("2^inf"))
    assert (m, n) == (1, 5)
    m, n = sim_witness(parse_sn("3^inf"), parse_sn("5*3^inf"))
    assert (m, n) == (5, 1)
    with pytest.raises(ValueError):
        sim_witness(parse_sn("2^inf"), parse_sn("3^inf"))


@given(supernaturals(), supernaturals())
def test_mul_commutes(a, b):
    assert mul(a, b) == mul(b, a)


@given(supernaturals(), supernaturals(), supernaturals())
def test_mul_associates(a, b, c):
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@given(supernaturals(), supernaturals())
def test_gcd_lcm_divide(a, b):
    g, l = gcd(a, b), lcm(a, b)
    assert divides(g, a) and divides(g, b)
    assert divides(a, l) and divides(b, l)
    assert mul(g, l) == mul(a, b) or is_supernatural(a) or is_supernatural(b)


@given(supernaturals(), supernaturals())
def test_sim_witness_identity(a, b):
    if sim(a, b):
        m, n = sim_witness(a, b)
        assert mul(SupernaturalNumber.from_int(m), a) == mul(
            SupernaturalNumber.from_int(n), b
        )


@given(supernaturals(max_exp=3), supernaturals(max_exp=3, allow_inf=False))
def test_div_exact_inverts_mul(a, b):
    assert div_exact(mul(a, b), b) == a


_SMALL = (2, 3, 5, 7, 11, 13)


def _random_exps(rng, finite=False):
    """Exponents over the primes up to 13: 0-3, or INF unless `finite`."""
    choices = [0, 1, 2, 3] if finite else [0, 1, 2, 3, INF]
    return {p: e for p in _SMALL if (e := rng.choice(choices))}


def _assert_canonical(got, exps):
    assert type(got) is SupernaturalNumber
    assert got == SN(exps)
    primes = [p for p, _ in got.factors]
    assert all(p < q for p, q in zip(primes, primes[1:]))
    for _, e in got.factors:
        assert e is INF or (type(e) is int and e >= 1)


def _plus(a, b):
    return INF if INF in (a, b) else a + b


def test_arithmetic_results_equal_their_checked_construction():
    rng = random.Random(26)
    for _ in range(400):
        x, y = _random_exps(rng), _random_exps(rng)
        a, b = SN(x), SN(y)
        keys = x.keys() | y.keys()
        _assert_canonical(mul(a, b), {p: _plus(x.get(p, 0), y.get(p, 0)) for p in keys})
        _assert_canonical(gcd(a, b), {p: min(x.get(p, 0), y.get(p, 0)) for p in keys})
        _assert_canonical(lcm(a, b), {p: max(x.get(p, 0), y.get(p, 0)) for p in keys})

        sides = [_random_exps(rng) for _ in range(rng.randrange(6))]
        total: dict = {}
        for side in sides:
            for p, e in side.items():
                total[p] = _plus(total.get(p, 0), e)
        _assert_canonical(product([SN(side) for side in sides]), total)

        f = _random_exps(rng, finite=True)
        n = 1
        for p, e in f.items():
            n *= p**e
        _assert_canonical(SupernaturalNumber.from_int(n), f)

        d = {p: rng.randint(0, e) if e is not INF else rng.randint(0, 3) for p, e in x.items()}
        quotient = {p: e if e is INF else e - d[p] for p, e in x.items()}
        _assert_canonical(div_exact(a, SN(d)), quotient)

        k = rng.choice([0, rng.randrange(-400, 400), rng.randrange(1, 10**6)])
        expected = {}
        if k:
            for p, e in x.items():
                v, r = 0, abs(k)
                while r % p == 0:
                    r, v = r // p, v + 1
                expected[p] = e if e is INF else max(e - v, 0)
        _assert_canonical(eig_group(a, k), expected)


def test_direct_construction_keeps_every_check():
    with pytest.raises(ValueError, match="9 is not prime"):
        SupernaturalNumber(((2, 1), (9, 1)))
    with pytest.raises(ValueError, match="must be an int or INF"):
        SupernaturalNumber(((2, 2.0),))
    with pytest.raises(ValueError, match="must be an int or INF"):
        SupernaturalNumber(((2, float("inf")),))
    with pytest.raises(ValueError, match="strictly ascending"):
        SupernaturalNumber(((5, 1), (3, INF)))
    with pytest.raises(ValueError, match="strictly ascending"):
        SupernaturalNumber(((3, 1), (3, 2)))
    with pytest.raises(ValueError, match="not prime"):
        SN({4: 1})


def test_pickled_values_keep_infinite_exponents():
    # an infinite exponent is told by its identity with INF, and unpickling
    # builds every float anew; selftest's worker processes receive their
    # instances pickled
    import pickle

    for text in ("2^inf*3^2*5", "7", "1", "2^inf*3^inf*13^3"):
        a = parse_sn(text)
        b = pickle.loads(pickle.dumps(a))
        assert b == a and hash(b) == hash(a)
        assert [e is INF for _, e in b.factors] == [e is INF for _, e in a.factors]
        assert is_supernatural(b) == is_supernatural(a)
        assert class_key(b) == class_key(a)
