import random
from fractions import Fraction

import pytest

from bigraded.errors import InvalidField
from bigraded.fields import PrimeField, RationalField, field_from_spec


def test_field_from_spec_variants():
    assert field_from_spec("q").char == 0
    assert field_from_spec("Q").char == 0
    assert field_from_spec(0).char == 0
    assert field_from_spec(32003).char == 32003
    f = RationalField()
    assert field_from_spec(f) is f


def test_composite_modulus_rejected():
    with pytest.raises(InvalidField):
        field_from_spec(4)
    with pytest.raises(InvalidField):
        field_from_spec(32004)
    with pytest.raises(InvalidField):
        PrimeField(1)


def test_rational_arithmetic_exact():
    F = RationalField()
    a = F.of(3)
    b = F.div(F.of(2), F.of(7)) if hasattr(F, "div") else F.mul(F.of(2), F.inv(F.of(7)))
    assert F.add(a, F.neg(a)) == F.zero
    assert F.mul(b, F.inv(b)) == F.one
    assert F.sub(F.of(5), F.of(5)) == 0
    assert F.of(2) + 0 == Fraction(2)


def test_prime_arithmetic_exact():
    F = PrimeField(32003)
    rng = random.Random(7)
    for _ in range(50):
        a = F.of(rng.randrange(1, 32003))
        assert F.add(a, F.neg(a)) == F.zero
        assert F.mul(a, F.inv(a)) == F.one
    assert F.of(32003) == F.zero
    assert F.of(-1) == F.of(32002)
    assert F.char == 32003


def test_small_prime_field():
    # moduli are restricted to odd primes
    with pytest.raises(InvalidField):
        PrimeField(2)
    F = PrimeField(3)
    assert F.add(F.one, F.of(2)) == F.zero
    assert F.inv(F.of(2)) == F.of(2)


def test_modulus_at_or_above_two_to_the_63_rejected():
    # normal-form rows store residues as signed 64-bit ints; 2^64 - 59 is
    # prime, and 2^63 - 25 is the largest prime below 2^63
    for spec in (2 ** 64 - 59, str(2 ** 64 - 59)):
        with pytest.raises(InvalidField, match="below 2\\^63"):
            field_from_spec(spec)
    with pytest.raises(InvalidField):
        PrimeField(2 ** 63 + 1)
    F = PrimeField(2 ** 63 - 25)
    a = F.of(-3)
    assert F.mul(a, F.inv(a)) == F.one
