"""Exact coefficient fields: arbitrary-precision rationals and odd prime fields.

Rational elements are fractions.Fraction; prime-field elements are plain ints
normalized into [0, p).  Every operation returns a normalized element, so
``a == 0`` is always a valid zero test on either backend.

A prime modulus must lie below 2^63: normal-form rows store residues as
signed 64-bit ints, and below that bound the Miller-Rabin test of
_is_prime is deterministic (it is for every n < 3.3e24).
"""

from fractions import Fraction

from .errors import InvalidField

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MODULUS_LIMIT = 2 ** 63  # every prime modulus is below this


def _is_prime(n):
    # deterministic Miller-Rabin; the base set covers every n < 3.3e24
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, a):
        return Fraction(a)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / a

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    def __init__(self, p):
        if (not isinstance(p, int) or p < 3 or p % 2 == 0
                or p >= MODULUS_LIMIT or not _is_prime(p)):
            raise InvalidField("modulus must be an odd prime below 2^63, "
                               "got %r" % (p,))
        self.p = p
        self.char = p
        self.zero = 0
        self.one = 1

    def of(self, a):
        return a % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = RationalField()


def field_from_spec(spec):
    """Accepts a field object, 'q'/'Q'/0 for the rationals, or an odd prime."""
    if isinstance(spec, (RationalField, PrimeField)):
        return spec
    if isinstance(spec, str):
        if spec.lower() in ("q", "qq", "rational", "rationals"):
            return QQ
        if spec.isdigit():
            return PrimeField(int(spec))
        raise InvalidField("unrecognized field spec %r" % (spec,))
    if spec == 0:
        return QQ
    if isinstance(spec, int):
        return PrimeField(spec)
    raise InvalidField("unrecognized field spec %r" % (spec,))
