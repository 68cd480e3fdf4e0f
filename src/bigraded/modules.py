"""Free bigraded modules, degree-compatible maps, and cokernel presentations.

An element of a free module with generators e_0..e_{r-1} is a sparse dict
{(generator index, monomial): coefficient}.  The module term order is
term-over-position: monomials compare grevlex first, and equal monomials
break ties toward the lower generator index.
"""

from operator import add

from .errors import NotBihomogeneous, ZeroPolynomial
from .ring import mono_key

# ---------------------------------------------------------------- vectors


def term_key(t):
    """mono_key, then the generator index: the smallest is the largest term."""
    return (mono_key(t[1]), t[0])


def vec_sub_shift(field, acc, v, mono, coeff, entered=None):
    """acc -= coeff * x^mono * v, in place; zeros are never stored.

    Terms that were not stored in acc and now are get appended to the
    list entered, when one is given.
    """
    p = field.char
    for (gi, e), c in v.items():
        t = (gi, tuple(map(add, e, mono)))
        old = acc.get(t)
        x = -coeff * c if old is None else old - coeff * c
        if p:
            x %= p
        if x:
            acc[t] = x
            if old is None and entered is not None:
                entered.append(t)
        else:
            acc.pop(t, None)


def vec_scale(field, c, u):
    if c == 0:
        return {}
    return {t: field.mul(c, v) for t, v in u.items()}


def vec_bidegree(ring, gens, u):
    """Bidegree of a bihomogeneous module element."""
    if not u:
        raise ZeroPolynomial("zero module element has no bidegree")
    degs = set()
    for (gi, e), _ in u.items():
        a, b = ring.mono_bidegree(e)
        ga, gb = gens[gi]
        degs.add((a + ga, b + gb))
    if len(degs) > 1:
        raise NotBihomogeneous("mixed bidegrees %s" % sorted(degs))
    return next(iter(degs))


def vec_from_poly(p, gi=0):
    return {(gi, e): c for e, c in p.terms.items()}

# ------------------------------------------------------------ free modules


class FreeModule:
    """Free bigraded module, described by the bidegrees of its generators."""

    def __init__(self, gens):
        self.gens = tuple((int(a), int(b)) for a, b in gens)

    @property
    def rank(self):
        return len(self.gens)

    def __eq__(self, other):
        return isinstance(other, FreeModule) and self.gens == other.gens

    def __repr__(self):
        return "FreeModule(%r)" % (list(self.gens),)

    def piece_dim(self, ring, d):
        a, b = d
        return sum(ring.piece_dim(a - ga, b - gb) for ga, gb in self.gens)

    def piece_basis(self, ring, d):
        """Module monomials of bidegree d: (gen index, monomial) pairs."""
        a, b = d
        out = []
        for gi, (ga, gb) in enumerate(self.gens):
            out.extend((gi, e) for e in ring.monomials((a - ga, b - gb)))
        return out

# ------------------------------------------------------------- module maps


class ModuleMap:
    """Map between free modules; column j is the image of source generator j."""

    def __init__(self, ring, source, target, cols):
        self.ring = ring
        self.source = source
        self.target = target
        self.cols = list(cols)
        assert len(self.cols) == source.rank

    def __repr__(self):
        return "ModuleMap(%d -> %d gens)" % (self.source.rank, self.target.rank)

    def is_zero(self):
        return all(not col for col in self.cols)

    def apply(self, vec):
        """Image of an element given in source coordinates."""
        field = self.ring.field
        out = {}
        for (gi, e), c in vec.items():
            vec_sub_shift(field, out, self.cols[gi], e, field.neg(c))
        return out

    def compose(self, other):
        """self o other (other.target must be self.source)."""
        return ModuleMap(self.ring, other.source, self.target,
                         [self.apply(col) for col in other.cols])

    def check(self):
        """Validate bihomogeneity and the degree convention of every entry."""
        for j, col in enumerate(self.cols):
            if not col:
                continue
            deg = vec_bidegree(self.ring, self.target.gens, col)
            if deg != self.source.gens[j]:
                raise NotBihomogeneous(
                    "column %d has bidegree %s but source generator %s"
                    % (j, deg, self.source.gens[j]))
            for (gi, e), _ in col.items():
                ea, eb = self.ring.mono_bidegree(e)
                if ea < 0 or eb < 0:
                    raise NotBihomogeneous("negative entry degree")
        return self

# ------------------------------------------------------------ presentations


class Presentation:
    """Finitely presented bigraded module M = coker(relations: F1 -> f0)."""

    def __init__(self, ring, f0, relations=None):
        self.ring = ring
        self.f0 = f0
        if relations is None:
            relations = ModuleMap(ring, FreeModule([]), f0, [])
        self.relations = relations
        self._cache = {}

    def __repr__(self):
        return "Presentation(%d gens, %d relations)" % (
            self.f0.rank, self.relations.source.rank)

    def twist(self, a, b):
        """M(a,b): every graded piece shifts so M(a,b)_{d,e} = M_{d+a,e+b}."""
        shift = lambda g: (g[0] - a, g[1] - b)
        f0 = FreeModule([shift(g) for g in self.f0.gens])
        src = FreeModule([shift(g) for g in self.relations.source.gens])
        rels = ModuleMap(self.ring, src, f0, [dict(c) for c in self.relations.cols])
        return Presentation(self.ring, f0, rels)


def free_presentation(ring, gen_degrees):
    """Free module as a presentation with no relations."""
    return Presentation(ring, FreeModule(gen_degrees))


def quotient_presentation(ring, polys):
    """R / (f_1, ..., f_k) as a presentation on one generator."""
    f0 = FreeModule([(0, 0)])
    degs, cols = [], []
    for f in polys:
        if f.is_zero():
            continue
        degs.append(f.bidegree())
        cols.append(vec_from_poly(f))
    rels = ModuleMap(ring, FreeModule(degs), f0, cols)
    return Presentation(ring, f0, rels)
