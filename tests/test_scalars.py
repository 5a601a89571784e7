import random
from fractions import Fraction

import pytest

from annulus.scalars import (
    Cyc, CycField, cyc_field, is_prime, mod_inverse,
)


def test_mod_inverse_examples():
    assert mod_inverse(1, 7) == 1
    assert mod_inverse(3, 7) == 5 and (3 * 5) % 7 == 1
    assert mod_inverse(2, 5) == 3 and (2 * 3) % 5 == 1


def test_mod_inverse_zero_rejected():
    with pytest.raises(ValueError, match="not invertible"):
        mod_inverse(0, 7)
    with pytest.raises(ValueError, match="not invertible"):
        mod_inverse(14, 7)


def test_mod_inverse_involution():
    for p in (2, 3, 5, 7):
        for a in range(1, p):
            assert mod_inverse(mod_inverse(a, p), p) == a


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_omega_order():
    for p in (2, 3, 5, 7):
        F = CycField(p)
        acc = F.one
        for _ in range(p):
            acc = acc * F.omega_pow(1)
        assert acc == F.one
        assert F.omega_pow(1) * F.omega_pow(p - 1) == F.one


def test_cyclotomic_relation_p3():
    # (1 + w + w^2) * x = 0 for any x
    F = CycField(3)
    s = F.one + F.omega_pow(1) + F.omega_pow(2)
    assert s.is_zero()
    x = F.omega_pow(2) * 4 + F.one
    assert (s * x).is_zero()


def test_p2_field_is_gaussian():
    F = CycField(2)
    i = F.root_pow(1)
    assert i * i == F.integer(-1)
    assert F.omega_pow(1) == F.integer(-1)
    assert F.root_pow(3) == -i


def test_ring_axioms_randomized():
    rng = random.Random(11)
    for p in (2, 3, 5):
        F = CycField(p)

        def rand():
            return Cyc(F, tuple(rng.randrange(-6, 7) for _ in range(F.dim)),
                       rng.choice([1, 2, 3, 5]))

        for _ in range(150):
            x, y, z = rand(), rand(), rand()
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x + (-x) == F.zero
            assert x * F.one == x


def test_mixed_orders_rejected():
    a = CycField(3).one
    b = CycField(5).one
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_inverse_randomized():
    rng = random.Random(5)
    for p in (2, 3, 5, 7):
        F = CycField(p)
        for _ in range(40):
            x = Cyc(F, tuple(rng.randrange(-4, 5) for _ in range(F.dim)),
                    rng.choice([1, 3]))
            if x.is_zero():
                continue
            assert x.inverse() * x == F.one
        for k in range(F.N):
            for c in (1, -2, Fraction(3, 5)):
                x = F.root_pow(k) * c
                assert x.inverse() * x == F.one


def test_rational_and_symbolic():
    F = CycField(3)
    third = F.rational(Fraction(1, 3))
    assert (third * 3) == F.one
    assert third.as_rational() == Fraction(1, 3)
    assert F.omega_pow(1).as_rational() is None
    assert F.zero.symbolic() == "0"
    assert F.omega_pow(1).symbolic() == "w"
    assert (F.omega_pow(1) * -2).symbolic() == "-2*w"


def test_cyc_field_is_one_instance_per_p():
    from annulus.engine import QuotientRep
    from annulus.levinwen import hexagon_chain_patch
    from annulus.defects import parse_defect
    from annulus.structures import vertical_compound

    assert cyc_field(3) is cyc_field(3)
    assert cyc_field(5) is cyc_field(5)
    assert cyc_field(3) is not cyc_field(5)
    assert (cyc_field(2).N, cyc_field(3).N) == (4, 3)
    d = parse_defect("RR(a=0,x=0)", 3)
    assert QuotientRep(vertical_compound(d, d)).field is cyc_field(3)
    assert hexagon_chain_patch(3, 1).field is cyc_field(3)
    with pytest.raises(ValueError, match="not prime"):
        cyc_field(4)
