"""Command-line front end: parse ring/module files, dispatch, render.

Input grammar (line-oriented, ``#`` starts a comment):

    ring field=<q|prime> m=<int> n=<int>
    ideal: f1; f2; ...
    module: gens=(a1,b1),(a2,b2),... rels: <mono>*e<k> +- ...; ...

Polynomials use explicit ``*`` for products, ``^`` for powers and integer
coefficients; variables are named x0..xm and y0..yn.  Relation terms name
a generator with a 1-based ``e<k>`` factor.  The object declaration may
continue over several lines.

Output is aligned ASCII by default and a fixed JSON schema under
``--json``.  Exit codes: 0 success / positive verdict, 1 negative
verdict, 2 undecided, 3 input error.
"""

import argparse
import json
import sys

from .errors import BigradedError, InputError, NotBihomogeneous, \
    ZeroPolynomial
from .groebner import graded_piece, ideal_presentation
from .localcoh import IRRELEVANT, KINDS, X, XY_SUM, Y, lc_table
from .modules import FreeModule, ModuleMap, Presentation, vec_add, \
    vec_bidegree
from .regions import DREG, REG, REG_DOUBLE_PRIME, REG_PRIME, ST, dreg, reg, \
    reg_double_prime, reg_prime, region_ascii, region_contains, st
from .regularity import betti_multiplicities, module_betti, \
    multiplication_surjectivity, strong_regularity_check, \
    strong_regularity_frontier, weak_regularity_check
from .ring import make_ring
from .sheaf import LineBundleSum

# ------------------------------------------------------------ input parsing


class _Scanner:
    """Character stream over positioned fragments; positions are 1-based."""

    def __init__(self, fragments):
        chars = []
        for ln, c0, s in fragments:
            for i, ch in enumerate(s):
                chars.append((ch, ln, c0 + i))
            chars.append((" ", ln, c0 + len(s)))
        self.chars = chars
        self.i = 0

    def pos(self):
        if self.i < len(self.chars):
            _, ln, c = self.chars[self.i]
            return ln, c + 1
        if self.chars:
            _, ln, c = self.chars[-1]
            return ln, c + 1
        return 1, 1

    def error(self, msg):
        ln, c = self.pos()
        raise InputError("line %d, col %d: %s" % (ln, c, msg))

    def _skip_ws(self):
        while self.i < len(self.chars) and self.chars[self.i][0].isspace():
            self.i += 1

    def peek(self):
        self._skip_ws()
        return self.chars[self.i][0] if self.i < len(self.chars) else ""

    def take(self):
        ch = self.peek()
        if ch:
            self.i += 1
        return ch

    def eat(self, ch):
        if self.peek() != ch:
            self.error("expected %r" % ch)
        self.i += 1

    def at_end(self):
        return self.peek() == ""

    def integer(self):
        if not self.peek().isdigit():
            self.error("expected an integer")
        out = 0
        while self.i < len(self.chars) and self.chars[self.i][0].isdigit():
            out = out * 10 + int(self.chars[self.i][0])
            self.i += 1
        return out

    def signed_integer(self):
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        elif self.peek() == "+":
            self.take()
        return sign * self.integer()

    def ident(self):
        if not self.peek().isalpha():
            self.error("expected a name")
        out = []
        while self.i < len(self.chars) and \
                self.chars[self.i][0].isalnum():
            out.append(self.chars[self.i][0])
            self.i += 1
        return "".join(out)


def _parse_product(sc, ring, gens=None):
    """One ``*``-separated product; returns (int coeff, exponents, e-index).

    With gens=None the product is a plain monomial term; otherwise a
    single e<k> factor (1-based, k <= len(gens)) is required.
    """
    coeff = 1
    exps = [0] * ring.nvars
    eidx = None
    while True:
        ch = sc.peek()
        if ch.isdigit():
            coeff *= sc.integer()
        elif ch.isalpha():
            ln, c = sc.pos()
            name = sc.ident()
            if gens is not None and name[:1] == "e" and name[1:].isdigit():
                if eidx is not None:
                    sc.error("more than one generator factor in a term")
                k = int(name[1:])
                if not 1 <= k <= len(gens):
                    raise InputError(
                        "line %d, col %d: generator index e%d out of range "
                        "1..%d" % (ln, c, k, len(gens)))
                eidx = k - 1
            else:
                v = ring._name_to_index.get(name)
                if v is None:
                    raise InputError("line %d, col %d: unknown variable %r"
                                     % (ln, c, name))
                power = 1
                if sc.peek() == "^":
                    sc.take()
                    power = sc.integer()
                exps[v] += power
        else:
            sc.error("expected a coefficient, variable or generator factor")
        if sc.peek() == "*":
            sc.take()
            continue
        return coeff, tuple(exps), eidx


def _parse_terms(sc, ring, gens=None):
    """Signed sum of products up to ';' or end; list of (coeff, exps, eidx)."""
    out = []
    sign = 1
    if sc.peek() == "-":
        sc.take()
        sign = -1
    elif sc.peek() == "+":
        sc.take()
    while True:
        coeff, exps, eidx = _parse_product(sc, ring, gens)
        if gens is not None and eidx is None:
            sc.error("every relation term needs a generator factor e<k>")
        out.append((sign * coeff, exps, eidx))
        ch = sc.peek()
        if ch == "+":
            sc.take()
            sign = 1
        elif ch == "-":
            sc.take()
            sign = -1
        elif ch == ";" or ch == "":
            if ch:
                sc.take()
            return out
        else:
            sc.error("expected '+', '-', ';' or end of declaration")


def _parse_ideal_body(sc, ring):
    polys = []
    while not sc.at_end():
        ln, c = sc.pos()
        terms = _parse_terms(sc, ring)
        p = ring.from_terms((e, ring.field.of(cf)) for cf, e, _ in terms)
        try:
            p.bidegree()
        except ZeroPolynomial:
            raise InputError("line %d, col %d: ideal generator is zero "
                             "after reduction" % (ln, c))
        except NotBihomogeneous:
            raise NotBihomogeneous(
                "line %d, col %d: ideal generator is not bihomogeneous"
                % (ln, c))
        polys.append(p)
    if not polys:
        sc.error("an ideal needs at least one generator")
    return ideal_presentation(ring, polys)


def _parse_module_body(sc, ring):
    field = ring.field
    kw = sc.ident() if sc.peek().isalpha() else sc.error("expected 'gens='")
    if kw != "gens":
        sc.error("expected 'gens='")
    sc.eat("=")
    gens = []
    while True:
        sc.eat("(")
        a = sc.signed_integer()
        sc.eat(",")
        b = sc.signed_integer()
        sc.eat(")")
        gens.append((a, b))
        if sc.peek() == ",":
            sc.take()
            continue
        break
    f0 = FreeModule(gens)
    if sc.at_end():
        return Presentation(ring, f0)
    ln, c = sc.pos()
    kw = sc.ident() if sc.peek().isalpha() else ""
    if kw != "rels":
        raise InputError("line %d, col %d: expected 'rels:' or end of "
                         "declaration" % (ln, c))
    sc.eat(":")
    cols, degs = [], []
    while not sc.at_end():
        ln, c = sc.pos()
        terms = _parse_terms(sc, ring, gens=gens)
        vec = {}
        for coeff, exps, eidx in terms:
            vec = vec_add(field, vec, {(eidx, exps): field.of(coeff)})
        if not vec:
            continue
        try:
            degs.append(vec_bidegree(ring, gens, vec))
        except NotBihomogeneous:
            raise NotBihomogeneous(
                "line %d, col %d: relation terms do not share a bidegree"
                % (ln, c))
        cols.append(vec)
    rels = ModuleMap(ring, FreeModule(degs), f0, cols)
    return Presentation(ring, f0, rels)


def parse_input(text):
    """Parse an input document; returns (ring, presentation, ring meta)."""
    ring_meta = None
    ring = None
    body_kind = None
    fragments = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if ring is None:
            stripped = line.strip()
            if not stripped.startswith("ring"):
                raise InputError("line %d: expected a ring declaration first"
                                 % ln)
            fields = {}
            for piece in stripped[4:].split():
                if "=" not in piece:
                    raise InputError("line %d: malformed ring declaration "
                                     "near %r" % (ln, piece))
                k, _, v = piece.partition("=")
                fields[k] = v
            missing = {"field", "m", "n"} - set(fields)
            if missing:
                raise InputError("line %d: ring declaration is missing %s"
                                 % (ln, ", ".join(sorted(missing))))
            try:
                m, n = int(fields["m"]), int(fields["n"])
            except ValueError:
                raise InputError("line %d: m and n must be integers" % ln)
            if m < -1 or n < -1:
                raise InputError("line %d: m and n must be at least -1" % ln)
            spec = fields["field"]
            spec = "q" if spec.lower() in ("q", "qq") else spec
            if spec != "q":
                try:
                    spec = int(spec)
                except ValueError:
                    raise InputError("line %d: field must be 'q' or a prime"
                                     % ln)
            ring = make_ring(m, n, field=spec)
            ring_meta = {"field": spec, "m": m, "n": n}
            continue
        if body_kind is None:
            stripped = line.lstrip()
            col0 = len(line) - len(stripped)
            if stripped.startswith("ideal:"):
                body_kind = "ideal"
                fragments.append((ln, col0 + 6, stripped[6:]))
            elif stripped.startswith("module:"):
                body_kind = "module"
                fragments.append((ln, col0 + 7, stripped[7:]))
            else:
                raise InputError("line %d: expected 'ideal:' or 'module:'"
                                 % ln)
        else:
            fragments.append((ln, 0, line))
    if ring is None:
        raise InputError("empty input: no ring declaration")
    if body_kind is None:
        raise InputError("no 'ideal:' or 'module:' declaration")
    sc = _Scanner(fragments)
    if body_kind == "ideal":
        M = _parse_ideal_body(sc, ring)
    else:
        M = _parse_module_body(sc, ring)
    return ring, M, ring_meta

# ------------------------------------------------------------- rendering


def _parse_window(text):
    try:
        ks, ls = text.split(",")
        k0, k1 = (int(t) for t in ks.split(":"))
        l0, l1 = (int(t) for t in ls.split(":"))
    except ValueError:
        raise InputError("window must look like k0:k1,l0:l1")
    if k0 > k1 or l0 > l1:
        raise InputError("window bounds must be nondecreasing")
    return k0, k1, l0, l1


def _parse_pair(text, what):
    try:
        a, b = (int(t) for t in text.split(","))
    except ValueError:
        raise InputError("%s must look like a,b" % what)
    return a, b


def _emit(args, payload, ascii_text):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(ascii_text)


def _betti_json(betti):
    return {str(d): [[a, b, mult] for (a, b), mult in sorted(seen.items())]
            for d, seen in betti_multiplicities(betti).items()}


def _betti_ascii(betti):
    lines = []
    for d, seen in betti_multiplicities(betti).items():
        cells = " ".join("(%d,%d)x%d" % (a, b, mult)
                         for (a, b), mult in sorted(seen.items()))
        lines.append("level %d: %s" % (d, cells))
    return "\n".join(lines) if lines else "zero module"


def _frontier_ascii(points):
    return "[" + ",".join("(%d,%d)" % pt for pt in points) + "]"


def _verdict_word(value):
    if value is None:
        return "undecided"
    return "true" if value else "false"


def _verdict_json(v):
    return {"value": v.value,
            "witnesses": [[i, list(pt), dim] for i, pt, dim in v.witnesses],
            "undecided": [[i, list(pt)] for i, pt in v.undecided],
            "method": v.method, "certified": v.certified}


def _verdict_exit(value):
    if value is None:
        return 2
    return 0 if value else 1


def _grid_json(i, window, dims, uncertified=(), **extra):
    return dict(extra, i=i, window=list(window), dims=dims,
                uncertified=[list(u) for u in uncertified])


def _grid_ascii(title, window, dims, uncertified=()):
    k0, k1, l0, l1 = window
    flag = set(tuple(u) for u in uncertified)
    cells = {}
    for ki, k in enumerate(range(k0, k1 + 1)):
        for li, kp in enumerate(range(l0, l1 + 1)):
            text = str(dims[ki][li]) if dims[ki][li] else "."
            if (k, kp) in flag:
                text += "?"
            cells[(k, kp)] = text
    width = max(len(t) for t in cells.values())
    width = max(width, *(len(str(k)) for k in range(k0, k1 + 1)))
    lines = [title]
    label_w = max(len(str(kp)) for kp in range(l0, l1 + 1))
    for kp in range(l1, l0 - 1, -1):
        row = " ".join(cells[(k, kp)].rjust(width) for k in range(k0, k1 + 1))
        lines.append("%s | %s" % (str(kp).rjust(label_w), row))
    lines.append("%s +-%s" % (" " * label_w, "-" * ((width + 1) * (k1 - k0 + 1) - 1)))
    footer = " ".join(str(k).rjust(width) for k in range(k0, k1 + 1))
    lines.append("%s   %s" % (" " * label_w, footer))
    return "\n".join(lines)

# ------------------------------------------------------------- subcommands


def _cmd_betti(args):
    ring, M, meta = parse_input(_read(args.file))
    betti = module_betti(M)
    payload = {"ring": meta, "betti": _betti_json(betti)}
    _emit(args, payload, _betti_ascii(betti))
    return 0


def _cmd_frontier(args):
    ring, M, meta = parse_input(_read(args.file))
    points = strong_regularity_frontier(M)
    payload = {"ring": meta, "frontier": [list(pt) for pt in points]}
    _emit(args, payload, _frontier_ascii(points))
    return 0


def _cmd_reg_strong(args):
    ring, M, meta = parse_input(_read(args.file))
    v = strong_regularity_check(M, args.p, args.pp)
    lines = ["strong regularity at (%d,%d): %s"
             % (args.p, args.pp, _verdict_word(v.value))]
    for d, (a, b), mult in v.witnesses:
        lines.append("witness: level %d bidegree (%d,%d) multiplicity %d"
                     % (d, a, b, mult))
    _emit(args, {"ring": meta, "verdict": _verdict_json(v)},
          "\n".join(lines))
    return _verdict_exit(v.value)


def _cmd_reg_weak(args):
    ring, M, meta = parse_input(_read(args.file))
    v = weak_regularity_check(M, args.p, args.pp,
                              require_edge_vanishing=args.edges,
                              nu_max=args.nu_max)
    lines = ["weak regularity at (%d,%d): %s"
             % (args.p, args.pp, _verdict_word(v.value))]
    for i, (k, kp), dim in v.witnesses:
        lines.append("witness: H^%d at (%d,%d) dim %d" % (i, k, kp, dim))
    for i, (k, kp) in v.undecided:
        lines.append("undecided: H^%d at (%d,%d)" % (i, k, kp))
    _emit(args, {"ring": meta, "verdict": _verdict_json(v)},
          "\n".join(lines))
    return _verdict_exit(v.value)


_IDEAL_FLAGS = {"x": X, "y": Y, "sum": XY_SUM, "irr": IRRELEVANT}


def _cmd_lc(args):
    ring, M, meta = parse_input(_read(args.file))
    kind = _IDEAL_FLAGS[args.ideal]
    window = _parse_window(args.window)
    table = lc_table(M, kind, args.i, window, nu_max=args.nu_max)
    payload = {"ring": meta,
               "grid": _grid_json(args.i, window, table["dims"],
                                  table["uncertified"])}
    title = "H^%d at ideal '%s'" % (args.i, args.ideal)
    _emit(args, payload,
          _grid_ascii(title, window, table["dims"], table["uncertified"]))
    return 0 if not table["uncertified"] else 2


def _cmd_sheaf(args):
    if args.m < -1 or args.n < -1:
        raise InputError("--m and --n must be at least -1")
    window = _parse_window(args.window)
    F = LineBundleSum((args.m, args.n), [(args.a, args.b)])
    k0, k1, l0, l1 = window
    dims = [[F.cohomology_dim(args.i, k, kp) for kp in range(l0, l1 + 1)]
            for k in range(k0, k1 + 1)]
    payload = {"ring": {"field": "q", "m": args.m, "n": args.n},
               "grid": _grid_json(args.i, window, dims)}
    title = "H^%d of O(%d,%d) twists over the window" \
        % (args.i, args.a, args.b)
    _emit(args, payload, _grid_ascii(title, window, dims))
    return 0


_REGION_KINDS = (ST, REG, REG_PRIME, REG_DOUBLE_PRIME, DREG)


def _cmd_region(args):
    window = _parse_window(args.window)
    if args.kind in (REG_PRIME, REG_DOUBLE_PRIME):
        R = (reg_prime if args.kind == REG_PRIME
             else reg_double_prime)(args.p, args.pp)
    else:
        if args.i is None:
            raise InputError("--i is required for kind %s" % args.kind)
        ctor = {ST: st, REG: reg, DREG: dreg}[args.kind]
        R = ctor(args.i, args.p, args.pp)
    k0, k1, l0, l1 = window
    dims = [[1 if region_contains(R, k, kp) else 0
             for kp in range(l0, l1 + 1)] for k in range(k0, k1 + 1)]
    payload = {"grid": _grid_json(args.i, window, dims, kind=args.kind)}
    _emit(args, payload, region_ascii(R, window))
    return 0


def _cmd_mult(args):
    ring, M, meta = parse_input(_read(args.file))
    frm = _parse_pair(getattr(args, "from"), "--from")
    step = _parse_pair(args.step, "--step")
    if step[0] < 0 or step[1] < 0:
        raise InputError("--step must be componentwise nonnegative")
    ok = multiplication_surjectivity(M, frm, step)
    payload = {"ring": meta,
               "mult": {"from": list(frm), "step": list(step),
                        "surjective": ok}}
    _emit(args, payload, "surjective: %s" % ("true" if ok else "false"))
    return 0 if ok else 1


def _cmd_verify(args):
    ring, M, meta = parse_input(_read(args.file))
    checks = []

    def record(name, status, detail=""):
        checks.append({"name": name, "status": status, "detail": detail})

    module_betti(M)
    C = M._cache["min_res"]
    record("resolution-composites-vanish",
           "ok" if C.composites_vanish() else "FAIL")

    euler_ok = True
    detail = ""
    for k in range(-2, 5):
        for kp in range(-2, 5):
            total = 0
            for d, term in enumerate(C.terms):
                s = sum(ring.piece_dim(k - a, kp - b) for a, b in term.gens)
                total += s if d % 2 == 0 else -s
            if total != graded_piece(M, (k, kp))[1]:
                euler_ok = False
                detail = "mismatch at (%d,%d)" % (k, kp)
                break
        if not euler_ok:
            break
    record("resolution-euler-characteristic", "ok" if euler_ok else "FAIL",
           detail)

    frontier = strong_regularity_frontier(M)
    strong_ok = all(strong_regularity_check(M, p, pp).value
                    for p, pp in frontier)
    record("strong-at-frontier", "ok" if strong_ok else "FAIL")

    minimal_ok = all(
        not strong_regularity_check(M, p - 1, pp).value
        and not strong_regularity_check(M, p, pp - 1).value
        for p, pp in frontier)
    record("frontier-minimality", "ok" if minimal_ok else "FAIL")

    p, pp = frontier[0]
    wv = weak_regularity_check(M, p, pp, nu_max=args.nu_max)
    if wv.value is None:
        record("weak-at-frontier", "undecided")
    else:
        record("weak-at-frontier", "ok" if wv.value else "FAIL",
               "" if wv.value else repr(wv.witnesses))

    ev = weak_regularity_check(M, p, pp, require_edge_vanishing=True,
                               nu_max=args.nu_max)
    if ev.value:
        mult_ok = all(multiplication_surjectivity(M, (p, pp), step)
                      for step in ((1, 0), (0, 1), (1, 1)))
        record("mult-surjectivity", "ok" if mult_ok else "FAIL")
    else:
        record("mult-surjectivity", "skipped",
               "edge vanishing does not hold at the frontier")

    lines = ["%s: %s%s" % (c["name"], c["status"],
                           " (%s)" % c["detail"] if c["detail"] else "")
             for c in checks]
    failed = any(c["status"] == "FAIL" for c in checks)
    undecided = any(c["status"] == "undecided" for c in checks)
    code = 1 if failed else (2 if undecided else 0)
    _emit(args, {"ring": meta, "verify": {"checks": checks,
                                          "ok": not failed and not undecided}},
          "\n".join(lines))
    return code

# ----------------------------------------------------------------- driver


def _read(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(3, "%s: error: %s\n" % (self.prog, message))


def build_parser():
    ap = _Parser(prog="bigraded",
                 description="Bigraded regularity toolkit for modules over "
                             "a product of projective spaces.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, needs_file=True):
        if needs_file:
            p.add_argument("file", help="input document ('-' for stdin)")
        p.add_argument("--json", action="store_true",
                       help="emit the JSON schema instead of ASCII")
        p.add_argument("--seed", type=int, default=None,
                       help="reserved; no randomized behavior in v1")

    p = sub.add_parser("betti", help="Betti table of the minimal resolution")
    common(p)
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("frontier", help="minimal strong-regularity pairs")
    common(p)
    p.set_defaults(func=_cmd_frontier)

    p = sub.add_parser("reg-strong", help="strong regularity at a pair")
    common(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--pp", type=int, required=True)
    p.set_defaults(func=_cmd_reg_strong)

    p = sub.add_parser("reg-weak", help="weak regularity at a pair")
    common(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--pp", type=int, required=True)
    p.add_argument("--edges", action="store_true",
                   help="also require vanishing on the two edge quadrants")
    p.add_argument("--nu-max", type=int, default=8, dest="nu_max")
    p.set_defaults(func=_cmd_reg_weak)

    p = sub.add_parser("lc", help="local cohomology dimensions on a window")
    common(p)
    p.add_argument("--ideal", choices=sorted(_IDEAL_FLAGS), required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--window", required=True, help="k0:k1,l0:l1")
    p.add_argument("--nu-max", type=int, default=8, dest="nu_max")
    p.set_defaults(func=_cmd_lc)

    p = sub.add_parser("sheaf", help="twisted line-bundle cohomology grid")
    common(p, needs_file=False)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--i", type=int, default=0)
    p.add_argument("--window", required=True, help="k0:k1,l0:l1")
    p.set_defaults(func=_cmd_sheaf)

    p = sub.add_parser("region", help="ASCII picture of a lattice region")
    common(p, needs_file=False)
    p.add_argument("--kind", choices=_REGION_KINDS, required=True)
    p.add_argument("--i", type=int, default=None)
    p.add_argument("--p", type=int, default=0)
    p.add_argument("--pp", type=int, default=0)
    p.add_argument("--window", required=True, help="k0:k1,l0:l1")
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("mult", help="is multiplication onto a later piece?")
    common(p)
    p.add_argument("--from", required=True, help="a,b", dest="from")
    p.add_argument("--step", required=True, help="c,d")
    p.set_defaults(func=_cmd_mult)

    p = sub.add_parser("verify", help="cross-validation suite on a module")
    common(p)
    p.add_argument("--nu-max", type=int, default=8, dest="nu_max")
    p.set_defaults(func=_cmd_verify)

    return ap


_MERGE_FLAGS = ("--window", "--from", "--step")


def _merge_negative_values(argv):
    """Join '--window -4:1,...'-style pairs so argparse does not mistake a
    leading minus for an option."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _MERGE_FLAGS and i + 1 < len(argv):
            out.append(tok + "=" + argv[i + 1])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    args = ap.parse_args(_merge_negative_values(argv))
    try:
        return args.func(args)
    except BigradedError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
