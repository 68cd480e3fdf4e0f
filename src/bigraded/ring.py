"""Bigraded polynomial rings K[x0..xm, y0..yn] and sparse bihomogeneous polynomials.

Every x-variable has bidegree (1, 0) and every y-variable (0, 1).  A monomial
is an exponent tuple over the x-block followed by the y-block.  The term order
is degree-reverse-lex on total degree with x0 > x1 > ... > xm > y0 > ... > yn.
"""

import math
from operator import add, le, sub

from .errors import (EmptyRing, InvalidSpace, NotBihomogeneous, PieceTooLarge,
                     ZeroPolynomial)
from .fields import field_from_spec


def mono_mul(a, b):
    return tuple(map(add, a, b))


def mono_divides(a, b):
    """True iff monomial a divides monomial b."""
    return all(map(le, a, b))


def mono_div(b, a):
    """b / a, assuming a divides b."""
    return tuple(map(sub, b, a))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def mono_key(e):
    # The one grevlex key, smallest for the largest monomial, as a heap
    # wants it: higher total degree is larger, and a tie goes to the smaller
    # exponent in the last variable where the exponents differ.
    return (-sum(e), e[::-1])


def _accumulate(field, terms, items):
    """terms[key] += c for each (key, c), in place; a zero sum is dropped."""
    for key, c in items:
        acc = field.add(terms.get(key, field.zero), c)
        if acc == 0:
            terms.pop(key, None)
        else:
            terms[key] = acc
    return terms


def _compositions(total, parts):
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def sections_dim(m, k):
    """Number of monomials of degree k in m + 1 variables: dim H^0 of O(k)
    on P^m for m >= 0, and 1 at k = 0 only for an empty block (m = -1)."""
    if m < 0:
        return int(k == 0)
    return math.comb(m + k, m) if k >= 0 else 0


def top_dim(m, k):
    """Number of Laurent monomials of degree k in m + 1 variables with every
    exponent negative: dim H^m of O(k) on P^m for m >= 0 (Serre duality,
    sections_dim at -k-m-1), and 1 at k = 0 only for an empty block."""
    return sections_dim(m, -k - m - 1)


MAX_BLOCK = 32  # the largest m or n of a ring: P^32 x P^32
MAX_PIECE = 100_000  # the most monomials Ring.monomials lists in one bidegree


def _check_blocks(m, n):
    """Raise InvalidSpace unless both block dimensions lie in -1..MAX_BLOCK."""
    if m < -1 or n < -1:
        raise InvalidSpace("m and n must be at least -1")
    if m > MAX_BLOCK or n > MAX_BLOCK:
        raise InvalidSpace("m and n must be at most %d, got m=%d, n=%d"
                           % (MAX_BLOCK, m, n))


class Ring:
    """Context object: variable counts, coefficient field, monomial helpers.

    m and n lie in -1..MAX_BLOCK and are not both -1, so a ring has 1 to
    66 variables.  A ring caches only its monomial lists; what refers to a
    ring, such as a complex, is cached on a presentation, since on the ring
    it would be a cycle that only the cyclic garbage collector frees (the
    reason resolutions.FreeComplex holds its module weakly)."""

    def __init__(self, m, n, field):
        _check_blocks(m, n)
        if m == -1 and n == -1:
            raise EmptyRing("both variable blocks empty")
        self.m = m
        self.n = n
        self.field = field
        self.nx = m + 1
        self.ny = n + 1
        self.nvars = self.nx + self.ny
        self.names = tuple("x%d" % i for i in range(self.nx)) + \
                     tuple("y%d" % j for j in range(self.ny))
        self._name_to_index = {s: v for v, s in enumerate(self.names)}
        self.zero_mono = (0,) * self.nvars
        self._cache = {}

    def __repr__(self):
        return "Ring(m=%d, n=%d, field=%r)" % (self.m, self.n, self.field)

    def mono_bidegree(self, e):
        return (sum(e[:self.nx]), sum(e[self.nx:]))

    # ---- element constructors ----

    def zero(self):
        return Poly(self, {})

    def one(self):
        return Poly(self, {self.zero_mono: self.field.one})

    def var(self, v):
        e = [0] * self.nvars
        e[v] = 1
        return self.monomial(e)

    def monomial(self, e):
        return Poly(self, {tuple(e): self.field.one})

    def from_terms(self, items):
        """Build a polynomial from (monomial, coefficient) pairs, merging dupes."""
        return Poly(self, _accumulate(self.field, {},
                                      ((tuple(e), c) for e, c in items)))

    # ---- graded pieces of R ----

    def piece_dim(self, a, b):
        """dim R_{a,b}; C(a+m,m)*C(b+n,n) with empty blocks counting 1 at 0."""
        return sections_dim(self.m, a) * sections_dim(self.n, b)

    def monomials(self, d):
        """Exponent tuples of bidegree d, sorted decreasing in the term order.

        Enumerated and sorted once per bidegree; each call returns a new
        list, which the caller may mutate.  Raises PieceTooLarge above
        MAX_PIECE monomials."""
        a, b = d
        key = ("monomials", a, b)
        if key not in self._cache:
            size = self.piece_dim(a, b)
            if size > MAX_PIECE:
                raise PieceTooLarge("bidegree (%d,%d) of the ring holds %d "
                                    "monomials, more than %d"
                                    % (a, b, size, MAX_PIECE))
            # an empty block has only the exponent () of degree 0
            self._cache[key] = () if a < 0 or b < 0 else tuple(sorted(
                (xe + ye for xe in _compositions(a, self.nx)
                 for ye in _compositions(b, self.ny)),
                key=mono_key))
        return list(self._cache[key])


def make_ring(m, n, field=32003):
    """Ring context with m+1 x-variables and n+1 y-variables over the given field."""
    return Ring(m, n, field_from_spec(field))


class Poly:
    """Sparse polynomial: dict monomial -> nonzero coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms \
            and self.ring is other.ring

    def __add__(self, other):
        return Poly(self.ring, _accumulate(self.ring.field, dict(self.terms),
                                           other.terms.items()))

    def __neg__(self):
        f = self.ring.field
        return Poly(self.ring, {e: f.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        f = self.ring.field
        return Poly(self.ring, _accumulate(f, {}, (
            (mono_mul(e1, e2), f.mul(c1, c2))
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items())))

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = self.ring.one()
        for _ in range(k):
            out = out * self
        return out

    def scale(self, c):
        f = self.ring.field
        if c == 0:
            return Poly(self.ring, {})
        return Poly(self.ring, {e: f.mul(c, v) for e, v in self.terms.items()})

    def bidegree(self):
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no bidegree")
        degs = {self.ring.mono_bidegree(e) for e in self.terms}
        if len(degs) > 1:
            raise NotBihomogeneous("mixed bidegrees %s" % sorted(degs))
        return next(iter(degs))

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.ring.names
        parts = []
        for e in sorted(self.terms, key=mono_key):
            c = self.terms[e]
            factors = ["%s^%d" % (names[v], e[v]) if e[v] > 1 else names[v]
                       for v in range(len(e)) if e[v] > 0]
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append("-" + body)
            else:
                parts.append("%s*%s" % (c, body))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    __repr__ = __str__
