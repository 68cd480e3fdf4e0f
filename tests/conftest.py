"""Shared rings and the standard module corpus used across the suite."""

import random

import pytest

from bigraded.groebner import ideal_presentation
from bigraded.modules import free_presentation, quotient_presentation
from bigraded.ring import make_ring


def irrelevant_gens(ring):
    """The products x_i * y_j generating the irrelevant ideal."""
    return [ring.var(i) * ring.var(ring.nx + j)
            for i in range(ring.nx) for j in range(ring.ny)]


def seeded_minors_polys(ring):
    """The three 2x2 minors of a seeded random 2x3 matrix of
    bidegree-(1,1) forms; the seed pins the polynomials exactly."""
    rng = random.Random(20260816)
    monos = ring.monomials((1, 1))
    mat = [[ring.from_terms([(e, ring.field.of(rng.randrange(1, 32003)))
                             for e in monos]) for _ in range(3)]
           for _ in range(2)]
    return [mat[0][i] * mat[1][j] - mat[0][j] * mat[1][i]
            for i, j in ((0, 1), (0, 2), (1, 2))]


def seeded_minors(ring):
    return ideal_presentation(ring, seeded_minors_polys(ring))


def monomial_ideal(ring, exponent_lists):
    """Ideal presentation from explicit exponent tuples."""
    return ideal_presentation(ring, [ring.monomial(e) for e in exponent_lists])


@pytest.fixture(scope="session")
def P11():
    return make_ring(1, 1)


@pytest.fixture(scope="session")
def P12():
    return make_ring(1, 2)


@pytest.fixture(scope="session")
def P01():
    """K[x0, y0, y1]: one x variable, two y variables."""
    return make_ring(0, 1)


@pytest.fixture(scope="session")
def P11q():
    return make_ring(1, 1, field="q")


# A rank-3 module on P1xP1 whose torsion at the irrelevant ideal takes four
# saturation rounds; the rounds grew to hundreds of generators when each
# passed on every generator of its quotient instead of a reduced basis.
SATURATION_ROUNDS_DOC = """ring field=32003 m=1 n=1
module: gens=(0,0),(0,1),(1,1)
  rels: 3*x0*y1^2*e1 - 36*x0*y1*e2 + 24*x1*y0*e2 - 46*y1*e3;
    -40*x0*x1^2*y1*e1 - 49*x1^3*e2 + 45*x0^2*x1*e2 - 4*x0^3*e2;
    22*x0*y1^2*e1 - 2*x1*y0^2*e1 + 25*x1*y0*y1*e1 + 46*x0*y0^2*e1
      + 75*x1*y1*e2 - 48*x0*y1*e2 - 37*y1*e3;
    -36*x0*e1 - 2*x1*e1; -35*x0*y0*e1 + 35*x1*y1*e1 + 118*e3
"""

TWIST_RANGE = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]

CORPUS_NAMES = (
    ["R"]
    + ["R(%d,%d)" % ab for ab in TWIST_RANGE if ab != (0, 0)]
    + ["m[P1xP1]", "m[P1xP2]", "(x0y0)", "(x0^2y0y1)", "R/m", "R/(x0y0)"]
    + ["x0^%d(y0,y1)^%d" % (t, s)
       for t in (1, 2, 3) for s in (1, 2, 3)]
    + ["minors2x3"]
)


@pytest.fixture(scope="session")
def corpus(P11, P12, P01):
    """name -> Presentation for the standard corpus, all over F_32003."""
    return build_corpus(P11, P12, P01)


def corpus_ideals(P11, P12, P01):
    """name -> (ring, generators) for the ideals of the corpus."""
    x0, y0, y1 = P11.var(0), P11.var(2), P11.var(3)
    ideals = {"m[P1xP1]": (P11, irrelevant_gens(P11)),
              "m[P1xP2]": (P12, irrelevant_gens(P12)),
              "(x0y0)": (P11, [x0 * y0]),
              "(x0^2y0y1)": (P11, [x0 * x0 * y0 * y1])}
    for t in (1, 2, 3):
        for s in (1, 2, 3):
            # x0^t * (y0, y1)^s in K[x0, y0, y1]
            ideals["x0^%d(y0,y1)^%d" % (t, s)] = (
                P01, [P01.monomial((t, s - j, j)) for j in range(s + 1)])
    ideals["minors2x3"] = (P11, seeded_minors_polys(P11))
    return ideals


def build_corpus(P11, P12, P01):
    """The corpus, built afresh on every call, in CORPUS_NAMES order."""
    x0, y0 = P11.var(0), P11.var(2)
    mods = {"R": free_presentation(P11, [(0, 0)])}
    for a, b in TWIST_RANGE:
        if (a, b) != (0, 0):
            # R(a,b): the rank-one free module generated in bidegree (-a,-b)
            mods["R(%d,%d)" % (a, b)] = free_presentation(P11, [(-a, -b)])
    for name, (ring, polys) in corpus_ideals(P11, P12, P01).items():
        mods[name] = ideal_presentation(ring, polys)
    mods["R/m"] = quotient_presentation(P11, irrelevant_gens(P11))
    mods["R/(x0y0)"] = quotient_presentation(P11, [x0 * y0])
    assert sorted(mods) == sorted(CORPUS_NAMES)
    return {name: mods[name] for name in CORPUS_NAMES}
