import random

import pytest
from hypothesis import given, strategies as st

from orbitcert.dynamics import (
    Cyclic,
    Odometer,
    PointAtLevel,
    SystemSpec,
    generator,
    level_modulus,
    point_count,
)
from box_oracle import (
    GroupElement,
    act,
    box_elements,
    enumerate_points,
    orbit,
    project,
    project_to,
)
from orbitcert.selftest import random_side
from orbitcert.supernatural import parse_sn


def test_level_modulus_examples():
    assert level_modulus(Odometer(parse_sn("2^inf*3^2")), 3) == 72
    assert level_modulus(Odometer(parse_sn("5")), 1) == 5
    assert level_modulus(Cyclic(7), 4) == 7
    assert level_modulus(Odometer(parse_sn("2^inf")), 0) == 1


def test_level_moduli_form_a_tower():
    f = Odometer(parse_sn("5*2^inf*3^2"))
    for k in range(6):
        assert level_modulus(f, k + 1) % level_modulus(f, k) == 0


def test_act_examples():
    spec = SystemSpec((Odometer(parse_sn("2^inf")),))
    x = PointAtLevel(3, (6,))
    assert act(spec, 3, GroupElement((3,)), x) == PointAtLevel(3, (1,))

    spec2 = SystemSpec((Cyclic(2), Odometer(parse_sn("3^inf"))))
    y = PointAtLevel(1, (1, 1))
    assert act(spec2, 1, GroupElement((1, 2)), y) == PointAtLevel(1, (0, 0))


def test_act_level_mismatch():
    spec = SystemSpec((Odometer(parse_sn("2^inf")),))
    with pytest.raises(ValueError):
        act(spec, 2, GroupElement((1,)), PointAtLevel(3, (6,)))


def test_project():
    spec = SystemSpec((Odometer(parse_sn("2^inf")),))
    assert project(spec, PointAtLevel(3, (6,))) == PointAtLevel(2, (2,))
    assert project_to(spec, PointAtLevel(3, (6,)), 0) == PointAtLevel(0, (0,))
    with pytest.raises(ValueError):
        project_to(spec, PointAtLevel(1, (0,)), 2)


def test_enumerate_points():
    spec = SystemSpec((Odometer(parse_sn("2^inf")),))
    assert [x.residues for x in enumerate_points(spec, 1)] == [(0,), (1,)]
    with pytest.raises(ValueError):
        enumerate_points(spec, 30)


def test_projection_intertwines_action():
    spec = SystemSpec((Cyclic(4), Odometer(parse_sn("5*2^inf"))))
    g = GroupElement((3, -2))
    for x in enumerate_points(spec, 2):
        lhs = project(spec, act(spec, 2, g, x))
        rhs = act(spec, 1, g, project(spec, x))
        assert lhs == rhs


def test_translation_by_one_is_a_full_cycle_per_factor():
    # dense single orbit at every level: +1 cycles through the whole truncation
    for f in [Odometer(parse_sn("2^inf*3")), Cyclic(6)]:
        spec = SystemSpec((f,))
        m = level_modulus(f, 2)
        xs = orbit(spec, 2, PointAtLevel(2, (0,)), GroupElement(generator(spec, 0)), m)
        assert len({x.residues for x in xs[:-1]}) == m
        assert xs[-1] == xs[0]


def test_box_elements():
    spec = SystemSpec((Cyclic(2), Odometer(parse_sn("3^inf"))))
    box = box_elements(spec, 2)
    assert len(box) == 2 * 5
    assert GroupElement((1, -2)) in box
    spec1 = SystemSpec((Cyclic(9),))
    assert len(box_elements(spec1, 2)) == 5


@given(st.integers(0, 5), st.integers(-20, 20))
def test_act_matches_integer_translation(k, c):
    spec = SystemSpec((Odometer(parse_sn("2^inf*3^inf")),))
    m = level_modulus(spec.factors[0], k)
    x = PointAtLevel(k, (5 % m,))
    y = act(spec, k, GroupElement((c,)), x)
    assert y.residues[0] == (5 + c) % m


def test_point_count():
    spec = SystemSpec((Odometer(parse_sn("5*2^inf")), Odometer(parse_sn("3^inf"))))
    assert point_count(spec, 4) == 80 * 81


def test_space_moduli_are_memoized_per_instance_without_changing_identity():
    # seeded specs mixing odometers and cycles: the memo returns the same
    # moduli as the factors, and equality and hash still depend on the
    # factors alone, whichever levels either copy has memoized
    rng = random.Random(12)
    for _ in range(40):
        factors = tuple(Odometer(m) for m in random_side(rng))
        factors += tuple(Cyclic(rng.randint(1, 9)) for _ in range(rng.randint(0, 2)))
        spec, twin = SystemSpec(factors), SystemSpec(factors)
        for k in range(5):
            want = tuple(level_modulus(f, k) for f in factors)
            assert spec.space_moduli(k) == want
            assert spec.space_moduli(k) is spec.space_moduli(k)
            assert spec == twin and hash(spec) == hash(twin)
        assert {spec: 1}[twin] == 1
        assert spec != SystemSpec(factors + (Cyclic(2),))
