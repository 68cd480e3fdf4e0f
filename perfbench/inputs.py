"""Seeded inputs for the three workloads.

Everything here is plain data and needs no ``bigraded`` import: a module
is described by a *spec* (ring, field, presentation kind, polynomials as
exponent/coefficient lists), and each workload is a list of operations
over named specs.  The same seed always gives the same specs, whatever
``PYTHONHASHSEED`` is, because every random stream is seeded from a
string.  Only coefficients depend on the seed; the shapes are fixed, so
the cost of a workload and the set of cells the engine gets wrong stay
the same from seed to seed.
"""

import random

PRIME = 32003
WORKLOADS = ("lc-grid", "resolve", "cli")

# -------------------------------------------------------- polynomial data
# A polynomial is a dict {exponent tuple: int coefficient}; prime-field
# coefficients are kept reduced into 1..p-1.


def monomials(m, n, a, b):
    """Exponent tuples of bidegree (a, b) in m+1 x- and n+1 y-variables."""
    def comps(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total, -1, -1):
            for rest in comps(total - first, parts - 1):
                yield (first,) + rest
    return [x + y for x in comps(a, m + 1) for y in comps(b, n + 1)]


def _reduce(poly, field):
    if field == "q":
        return {e: c for e, c in poly.items() if c}
    return {e: c % PRIME for e, c in poly.items() if c % PRIME}


def poly_mul(f, g, field):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return _reduce(out, field)


def poly_sub(f, g, field):
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) - c
    return _reduce(out, field)


def _coeff(rng, field):
    if field == "q":
        return rng.choice((-1, 1)) * rng.randint(1, 9)
    return rng.randrange(1, PRIME)


def random_form(rng, m, n, deg, field):
    return {e: _coeff(rng, field) for e in monomials(m, n, *deg)}


def _spec(name, m, n, field, kind, polys=(), gens=((0, 0),)):
    return {"name": name, "m": m, "n": n, "field": field, "kind": kind,
            "polys": [sorted(p.items()) for p in polys],
            "gens": [list(g) for g in gens]}

# ------------------------------------------------------------ module specs


def minors_spec(rng, name="minors", m=1, n=1):
    """Ideal of 2x2 minors of a 2x3 matrix of random (1,1)-forms: on
    P1xP1 it cuts out six points, the module that carries most of the
    wrong certified cells at this stage of the engine."""
    mat = [[random_form(rng, m, n, (1, 1), PRIME) for _ in range(3)]
           for _ in range(2)]
    polys = [poly_sub(poly_mul(mat[0][i], mat[1][j], PRIME),
                      poly_mul(mat[0][j], mat[1][i], PRIME), PRIME)
             for i, j in ((0, 1), (0, 2), (1, 2))]
    return _spec(name, m, n, PRIME, "ideal", polys)


def torsion_spec(rng, name="torsion"):
    """R/(a^2, l1^2 l2) on P1xP1 with a random x-linear a and y-linear
    l1, l2: the reproducer R/(x0^2, y0^2 y1) after a random change of
    coordinates in each block, so a double point times a length-3
    scheme."""
    def linear(block):
        return {e: _coeff(rng, PRIME) for e in monomials(1, 1, *block)}
    a, l1, l2 = linear((1, 0)), linear((0, 1)), linear((0, 1))
    polys = [poly_mul(a, a, PRIME), poly_mul(poly_mul(l1, l1, PRIME), l2,
                                             PRIME)]
    return _spec(name, 1, 1, PRIME, "quotient", polys)


def forms_spec(rng, name, m, n, degs, field=PRIME, kind="ideal"):
    return _spec(name, m, n, field, kind,
                 [random_form(rng, m, n, d, field) for d in degs])


def free_spec(name, m, n, twist, field="q"):
    """R(a, b): one generator in bidegree (-a, -b)."""
    return _spec(name, m, n, field, "free", gens=[(-twist[0], -twist[1])])


def _rng(seed, tag):
    return random.Random("%d:%s" % (seed, tag))

# ---------------------------------------------------------------- lc-grid


def _window(k0, k1, l0, l1):
    return [(k, kp) for k in range(k0, k1 + 1) for kp in range(l0, l1 + 1)]


def lc_grid(seed):
    """Specs and cells (module, kind, i, bidegree) of the lc-grid workload.

    The two minors grids are the ones in which the engine certifies 17 of
    50 cells with the wrong value at this stage; they stay whole.  The
    other modules add few cells, mostly costly ones, so that the median
    cell falls among the normal-form-bound cells of the minors and not on
    the edge between them and the cells answered from the cache."""
    specs = {
        "minors": minors_spec(_rng(seed, "minors")),
        "torsion": torsion_spec(_rng(seed, "torsion")),
        "free": free_spec("free", 1, 1, (-1, -2)),
        "p1p2": forms_spec(_rng(seed, "p1p2"), "p1p2", 1, 2, [(1, 1)] * 3),
    }
    cells = []
    cells += [("minors", "irr", 2, d) for d in _window(-2, 2, -2, 2)]
    cells += [("minors", "sum", 3, d) for d in _window(-3, 1, -3, 1)]
    cells += [("torsion", "y", 1, d) for d in _window(0, 1, -4, -3)]
    cells += [("torsion", "x", 1, d) for d in _window(-4, -3, 0, 1)]
    cells += [("free", "sum", 4, (-3, -3)), ("free", "irr", 3, (-3, -2))]
    cells += [("p1p2", "irr", 2, (0, 0)), ("p1p2", "y", 3, (1, -3))]
    return specs, cells

# ---------------------------------------------------------------- resolve

# (m, n, field, presentation kind, generator bidegrees, copies): costs at
# this stage run from about 10 ms to 1.5 s a module, spread so that the
# median and the tail each fall among several shapes.  Shapes whose cost
# swings with the coefficients, such as (1,2),(2,1),(2,2) on P1xP1 at 22 s,
# are left out.
_RESOLVE_SHAPES = [
    (1, 1, PRIME, "ideal", [(1, 1)] * 3, 1),
    (1, 1, PRIME, "quotient", [(1, 1)] * 3, 1),
    (1, 1, PRIME, "ideal", [(1, 2), (2, 1)], 1),
    (1, 1, PRIME, "quotient", [(2, 0), (0, 2), (1, 1)], 2),
    (1, 1, "q", "ideal", [(1, 1)] * 3, 2),
    (1, 1, "q", "quotient", [(1, 2), (2, 1)], 2),
    (1, 2, PRIME, "ideal", [(1, 1)] * 3, 2),
    (1, 2, PRIME, "ideal", [(1, 2), (2, 1)], 2),
    (1, 2, PRIME, "quotient", [(1, 1), (0, 2), (1, 0)], 2),
    (2, 2, PRIME, "ideal", [(1, 0), (0, 1), (1, 1)], 1),
    (1, 1, PRIME, "ideal", [(2, 2), (1, 1), (1, 1)], 2),
    (1, 1, PRIME, "ideal", [(1, 3), (3, 1)], 2),
    (1, 1, PRIME, "ideal", [(1, 2)] * 3, 2),
    (1, 1, "q", "ideal", [(2, 2), (1, 1), (1, 1)], 2),
    (1, 2, "q", "ideal", [(1, 1)] * 3, 2),
    (2, 2, PRIME, "ideal", [(1, 1)] * 3, 2),
    (2, 2, PRIME, "quotient", [(1, 1)] * 3, 2),
    (1, 1, PRIME, "ideal", [(2, 1), (1, 2), (1, 1)], 1),
    (1, 1, PRIME, "ideal", [(2, 1), (2, 1), (1, 1)], 1),
    (1, 1, PRIME, "quotient", [(2, 1), (1, 2), (1, 1)], 1),
    (1, 1, PRIME, "ideal", [(1, 2), (1, 2), (2, 1), (2, 1)], 1),
    (1, 1, "q", "ideal", [(1, 2)] * 3, 1),
    (1, 1, "q", "ideal", [(2, 1), (2, 1), (1, 1)], 1),
    (1, 2, PRIME, "ideal", [(1, 1), (1, 1), (1, 2)], 1),
    (1, 2, PRIME, "ideal", [(2, 1)] * 3, 1),
    (1, 2, PRIME, "ideal", [(1, 1)] * 5, 1),
    (1, 2, PRIME, "ideal", [(1, 1)] * 4, 1),
    (1, 2, PRIME, "quotient", [(1, 1)] * 4, 1),
    (1, 2, PRIME, "ideal", [(2, 1), (1, 2), (1, 1)], 1),
    (2, 2, PRIME, "ideal", [(1, 1), (1, 1), (1, 2)], 1),
    (2, 2, PRIME, "ideal", [(1, 1)] * 4, 1),
    (2, 2, PRIME, "quotient", [(1, 1)] * 4, 1),
    (2, 2, PRIME, "ideal", [(1, 2), (2, 1), (1, 1)], 1),
]


def _shape_name(m, n, field, kind, degs):
    return "p%d%d-%s%s-%s" % (m, n, "q-" if field == "q" else "", kind,
                              "-".join("%d%d" % d for d in degs))


# pairs at which every resolve module is checked for strong regularity
STRONG_POINTS = [(0, 0), (1, 1), (2, 2), (3, 3), (1, 3), (3, 1), (2, 4)]


def resolve(seed):
    """Specs of the resolve workload, one operation per module."""
    specs = {}
    for m, n, field, kind, degs, copies in _RESOLVE_SHAPES:
        for c in range(copies):
            name = "%s#%d" % (_shape_name(m, n, field, kind, degs), c + 1)
            specs[name] = forms_spec(_rng(seed, name), name, m, n, degs,
                                     field=field, kind=kind)
    return specs, list(specs)

# -------------------------------------------------------------------- cli

# The demo input files, as specs, so that their reference answers do not
# go through the parser under test.  They must match demos/inputs/*.txt.
DEMO_SPECS = {
    "demos/inputs/products_ideal.txt": _spec(
        "products_ideal", 1, 1, PRIME, "ideal",
        [{e: 1} for e in ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0),
                          (0, 1, 0, 1))]),
    "demos/inputs/axes_quotient.txt": _spec(
        "axes_quotient", 1, 1, PRIME, "quotient",
        [{e: 1} for e in ((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0),
                          (0, 1, 0, 1))]),
    "demos/inputs/power_ideal.txt": _spec(
        "power_ideal", 0, 1, PRIME, "ideal",
        [{e: 1} for e in ((2, 2, 0), (2, 1, 1), (2, 0, 2))]),
    "demos/inputs/twisted_free.txt": free_spec("twisted_free", 1, 1,
                                               (-1, -2)),
}

# documents the command line must refuse with exit code 3
MALFORMED = {
    "gen/bad-variable.txt": "ring field=32003 m=1 n=1\nideal: x0*y0 + x2*y1\n",
    "gen/bad-degree.txt": "ring field=32003 m=1 n=1\nideal: x0 + y0\n",
    "gen/bad-field.txt": "ring field=4 m=1 n=1\nideal: x0*y0\n",
    "gen/bad-generator.txt": ("ring field=32003 m=1 n=1\nmodule: gens=(0,0)\n"
                              "  rels: x0*y0*e2\n"),
    "gen/no-ring.txt": "ideal: x0*y0\n",
}


def render(spec):
    """Input document for the command line, in its documented grammar."""
    names = (["x%d" % i for i in range(spec["m"] + 1)] +
             ["y%d" % j for j in range(spec["n"] + 1)])
    lines = ["# generated by perfbench/inputs.py",
             "ring field=%s m=%d n=%d" % (spec["field"], spec["m"], spec["n"])]

    def term(e, c, gen):
        factors = [str(abs(c))]
        factors += [v if k == 1 else "%s^%d" % (v, k)
                    for v, k in zip(names, e) if k]
        if gen:
            factors.append(gen)
        return ("- " if c < 0 else "+ ") + "*".join(factors)

    def poly_text(p, gen=None):
        text = " ".join(term(e, c, gen) for e, c in p)
        return text[2:] if text.startswith("+ ") else text

    if spec["kind"] == "free":
        lines.append("module: gens=" + ",".join("(%d,%d)" % tuple(g)
                                                for g in spec["gens"]))
    elif spec["kind"] == "ideal":
        lines.append("ideal: " + ";\n  ".join(poly_text(p)
                                             for p in spec["polys"]))
    else:
        lines.append("module: gens=(0,0)")
        lines.append("  rels: " + ";\n    ".join(poly_text(p, "e1")
                                                for p in spec["polys"]))
    return "\n".join(lines) + "\n"


def cli(seed):
    """Specs (keyed by input path) and invocations of the cli workload.

    Paths under ``gen/`` are written into the work directory before
    timing.  Each invocation is (argv after ``python -m bigraded.cli``,
    path of the input it reads or None)."""
    specs = dict(DEMO_SPECS)
    specs["gen/minors.txt"] = minors_spec(_rng(seed, "cli-minors"))
    specs["gen/torsion.txt"] = torsion_spec(_rng(seed, "cli-torsion"))
    specs["gen/q_ideal.txt"] = forms_spec(_rng(seed, "cli-q"), "q_ideal",
                                          1, 1, [(1, 1)] * 3, field="q")
    specs["gen/p1p2.txt"] = forms_spec(_rng(seed, "cli-p1p2"), "p1p2",
                                       1, 2, [(1, 2), (2, 1)])
    prod = "demos/inputs/products_ideal.txt"
    axes = "demos/inputs/axes_quotient.txt"
    power = "demos/inputs/power_ideal.txt"
    free = "demos/inputs/twisted_free.txt"
    mino, tors, qid, p12 = ("gen/minors.txt", "gen/torsion.txt",
                            "gen/q_ideal.txt", "gen/p1p2.txt")
    J = "--json"
    on = [  # (subcommand, input, options)
        ("betti", prod, [J]), ("betti", mino, []), ("betti", free, [J]),
        ("betti", p12, [J]), ("betti", qid, [J]), ("betti", tors, [J]),
        ("betti", axes, []), ("betti", power, []),
        ("frontier", power, [J]), ("frontier", qid, []),
        ("frontier", mino, [J]), ("frontier", p12, [J]),
        ("frontier", prod, []), ("frontier", free, [J]),
        ("reg-strong", prod, ["--p", "1", "--pp", "1", J]),
        ("reg-strong", mino, ["--p", "2", "--pp", "2", J]),
        ("reg-strong", axes, ["--p", "0", "--pp", "0"]),
        ("reg-strong", qid, ["--p", "2", "--pp", "2", J]),
        ("reg-strong", p12, ["--p", "1", "--pp", "1", J]),
        ("reg-weak", mino, ["--p", "-1", "--pp", "1", J]),
        ("reg-weak", prod, ["--p", "1", "--pp", "1", J]),
        ("reg-weak", qid, ["--p", "2", "--pp", "2", "--edges", J]),
        ("lc", tors, ["--ideal", "y", "--i", "1", "--window", "0:0,-3:-3", J]),
        ("lc", tors, ["--ideal", "x", "--i", "1", "--window", "-4:-3,0:1",
                      J]),
        ("lc", mino, ["--ideal", "irr", "--i", "2", "--window",
                      "-2:-2,-1:1", J]),
        ("lc", free, ["--ideal", "sum", "--i", "4", "--window",
                      "-3:-1,-4:-2", J]),
        ("lc", p12, ["--ideal", "x", "--i", "2", "--window", "-3:-2,0:1",
                     J]),
        ("mult", prod, ["--from", "1,1", "--step", "1,0"]),
        ("mult", prod, ["--from", "0,0", "--step", "1,1", J]),
        ("mult", axes, ["--from", "0,1", "--step", "1,1", J]),
        ("mult", power, ["--from", "2,1", "--step", "0,1", J]),
        ("verify", prod, [J]),
        ("verify", power, []),
    ]
    calls = [([cmd, path] + opts, path) for cmd, path, opts in on]
    calls += [(["sheaf", "--m", "1", "--n", "2", "--a", "-1", "--b", "0",
                "--i", "2", "--window", "-3:1,-3:1", J], None),
              (["sheaf", "--m", "2", "--n", "2", "--a", "0", "--b", "-3",
                "--i", "2", "--window", "-3:1,-3:1", J], None),
              (["region", "--kind", "Reg", "--i", "1", "--p", "1", "--pp",
                "0", "--window", "-2:3,-2:3"], None),
              (["region", "--kind", "St", "--i", "2", "--window",
                "-4:2,-4:2"], None),
              (["region", "--kind", "RegPrime", "--window", "-2:2,-2:2"],
               None)]
    calls += [(["betti", path], path) for path in sorted(MALFORMED)]
    calls.append((["lc", mino, "--ideal", "bogus", "--i", "1", "--window",
                   "0:0,0:0"], mino))
    return specs, calls


def workload(name, seed):
    return {"lc-grid": lc_grid, "resolve": resolve, "cli": cli}[name](seed)
