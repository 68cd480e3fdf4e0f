"""Command-line front end: parse ring/module files, dispatch, render.

Input grammar (line-oriented, ``#`` starts a comment):

    ring field=<q|prime> m=<int> n=<int>     (each key once, any order)
    ideal: f1; f2; ...
    module: gens=(a1,b1),(a2,b2),... rels: <mono>*e<k> +- ...; ...

Polynomials use explicit ``*`` for products, ``^`` for powers and integer
coefficients; variables are named x0..xm and y0..yn.  Relation terms name
a generator with a 1-based ``e<k>`` factor.  The object declaration may
continue over several lines.  Coefficients, exponents, bidegrees,
generator indices and the ring's m, n and prime are ASCII digits.

Output is aligned ASCII by default and a fixed JSON schema under
``--json``.  Exit codes: 0 success / positive verdict, 1 negative
verdict, 2 undecided, 3 input error.
"""

import argparse
import re
import sys
from collections import namedtuple

from .errors import BigradedError, InputError, NotBihomogeneous, \
    ZeroPolynomial
from .modules import FreeModule, ModuleMap, Presentation, vec_bidegree
from .ring import _accumulate, make_ring

# Only the parse layer above is loaded with the module: each subcommand
# imports the layers it runs, and main imports json only under --json, so
# a process pays for no other code.

# ------------------------------------------------------------ input parsing

# An ASCII integer, a run of letters and digits, or any other single
# character.  A run is a name when it starts with a letter; one that
# starts with a non-ASCII digit (say '²') fits nowhere in the grammar, so
# it is reported at its first character.
_TOKEN = re.compile(r"(?P<int>[0-9]+)|[^\W_]+|\S")
_GEN_FACTOR = re.compile(r"e([0-9]+)")

_Token = namedtuple("_Token", ["kind", "text", "line", "col"])


def _error(line, col, msg, cls=InputError):
    return cls("line %d, col %d: %s" % (line, col, msg))


class _Tokens:
    """Token stream over positioned fragments; positions are 1-based.

    Kinds are 'int', 'name', 'char' and a final 'end', placed one column
    past the last fragment.
    """

    def __init__(self, fragments):
        self.toks = []
        for ln, c0, s in fragments:
            for m in _TOKEN.finditer(s):
                text = m.group()
                kind = m.lastgroup or ("name" if text[0].isalpha()
                                       else "char")
                self.toks.append(_Token(kind, text, ln, c0 + m.start() + 1))
        ln, c0, s = fragments[-1]
        self.toks.append(_Token("end", "", ln, c0 + len(s) + 1))
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def error(self, msg):
        tok = self.peek()
        raise _error(tok.line, tok.col, msg)

    def at_end(self):
        return self.peek().kind == "end"

    def accept(self, text):
        if self.peek().text != text:
            return False
        self.i += 1
        return True

    def eat(self, text):
        if not self.accept(text):
            self.error("expected %r" % text)

    def take(self, kind, msg):
        tok = self.peek()
        if tok.kind != kind:
            self.error(msg)
        self.i += 1
        return tok

    def integer(self):
        return int(self.take("int", "expected an integer").text)

    def sign(self):
        if self.accept("-"):
            return -1
        self.accept("+")
        return 1


def _parse_product(ts, ring, gens=None):
    """One ``*``-separated product; returns (int coeff, exponents, e-index).

    With gens=None the product is a plain monomial term; otherwise a
    single e<k> factor (1-based, k <= len(gens)) is required.
    """
    coeff = 1
    exps = [0] * ring.nvars
    eidx = None
    while True:
        tok = ts.peek()
        if tok.kind == "int":
            coeff *= ts.integer()
        elif tok.kind == "name":
            ts.i += 1
            gen = gens is not None and _GEN_FACTOR.fullmatch(tok.text)
            if gen:
                k = int(gen.group(1))
                if eidx is not None:
                    raise _error(tok.line, tok.col + len(tok.text),
                                 "more than one generator factor in a term")
                if not 1 <= k <= len(gens):
                    raise _error(tok.line, tok.col,
                                 "generator index e%d out of range 1..%d"
                                 % (k, len(gens)))
                eidx = k - 1
            else:
                v = ring._name_to_index.get(tok.text)
                if v is None:
                    raise _error(tok.line, tok.col,
                                 "unknown variable %r" % tok.text)
                exps[v] += ts.integer() if ts.accept("^") else 1
        else:
            ts.error("expected a coefficient, variable or generator factor")
        if not ts.accept("*"):
            return coeff, tuple(exps), eidx


def _parse_terms(ts, ring, gens=None):
    """Signed sum of products up to ';' or end; list of (coeff, exps, eidx)."""
    out = []
    sign = ts.sign()
    while True:
        coeff, exps, eidx = _parse_product(ts, ring, gens)
        if gens is not None and eidx is None:
            ts.error("every relation term needs a generator factor e<k>")
        out.append((sign * coeff, exps, eidx))
        if ts.accept(";") or ts.at_end():
            return out
        if ts.peek().text not in ("+", "-"):
            ts.error("expected '+', '-', ';' or end of declaration")
        sign = ts.sign()


def _parse_ideal_body(ts, ring):
    polys = []
    while not ts.at_end():
        tok = ts.peek()
        terms = _parse_terms(ts, ring)
        p = ring.from_terms((e, ring.field.of(cf)) for cf, e, _ in terms)
        try:
            p.bidegree()
        except ZeroPolynomial:
            raise _error(tok.line, tok.col,
                         "ideal generator is zero after reduction")
        except NotBihomogeneous:
            raise _error(tok.line, tok.col,
                         "ideal generator is not bihomogeneous",
                         NotBihomogeneous)
        polys.append(p)
    if not polys:
        ts.error("an ideal needs at least one generator")
    from .groebner import ideal_presentation
    return ideal_presentation(ring, polys)


def _parse_module_body(ts, ring):
    field = ring.field
    tok = ts.take("name", "expected 'gens='")
    if tok.text != "gens":
        raise _error(tok.line, tok.col + len(tok.text), "expected 'gens='")
    ts.eat("=")
    gens = []
    while not gens or ts.accept(","):
        ts.eat("(")
        a = ts.sign() * ts.integer()
        ts.eat(",")
        b = ts.sign() * ts.integer()
        ts.eat(")")
        gens.append((a, b))
    f0 = FreeModule(gens)
    if ts.at_end():
        return Presentation(ring, f0)
    if not ts.accept("rels"):
        ts.error("expected 'rels:' or end of declaration")
    ts.eat(":")
    cols, degs = [], []
    while not ts.at_end():
        tok = ts.peek()
        terms = _parse_terms(ts, ring, gens=gens)
        vec = _accumulate(field, {}, (((eidx, exps), field.of(coeff))
                                      for coeff, exps, eidx in terms))
        if not vec:
            continue
        try:
            degs.append(vec_bidegree(ring, gens, vec))
        except NotBihomogeneous:
            raise _error(tok.line, tok.col,
                         "relation terms do not share a bidegree",
                         NotBihomogeneous)
        cols.append(vec)
    rels = ModuleMap(ring, FreeModule(degs), f0, cols)
    return Presentation(ring, f0, rels)


_BODIES = {"ideal:": _parse_ideal_body, "module:": _parse_module_body}


def _parse_ring(ln, decl):
    """The ring declaration ``decl`` on line ln; returns (ring, ring meta).
    What make_ring refuses (a field that is no odd prime below 2^63, a
    block outside -1..ring.MAX_BLOCK, two empty blocks) is an InputError
    on line ln."""
    words = decl.split()
    if words[:1] != ["ring"]:
        raise InputError("line %d: expected a ring declaration first" % ln)
    fields = {}
    for piece in words[1:]:
        k, eq, v = piece.partition("=")
        if not eq:
            raise InputError("line %d: malformed ring declaration near %r"
                             % (ln, piece))
        if k not in ("field", "m", "n"):
            raise InputError("line %d: unknown ring key %r" % (ln, k))
        if k in fields:
            raise InputError("line %d: ring declaration repeats %s" % (ln, k))
        fields[k] = v
    missing = {"field", "m", "n"} - set(fields)
    if missing:
        raise InputError("line %d: ring declaration is missing %s"
                         % (ln, ", ".join(sorted(missing))))
    if not all(re.fullmatch("-?[0-9]+", fields[k]) for k in ("m", "n")):
        raise InputError("line %d: m and n must be integers" % ln)
    m, n = int(fields["m"]), int(fields["n"])
    spec = fields["field"]
    if spec in ("q", "Q", "qq", "QQ"):
        spec = "q"
    elif re.fullmatch("0*[1-9][0-9]*", spec):
        spec = int(spec)
    else:
        raise InputError("line %d: field must be 'q' or a prime" % ln)
    try:
        ring = make_ring(m, n, field=spec)
    except BigradedError as exc:
        raise InputError("line %d: %s" % (ln, exc))
    return ring, {"field": spec, "m": m, "n": n}


def parse_input(text):
    """Parse an input document; returns (ring, presentation, ring meta)."""
    ring = body = None
    fragments = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if ring is None:
            ring, ring_meta = _parse_ring(ln, line.strip())
        elif body is not None:
            fragments.append((ln, 0, line))
        else:
            stripped = line.lstrip()
            head = next((h for h in _BODIES if stripped.startswith(h)), None)
            if head is None:
                raise InputError("line %d: expected 'ideal:' or 'module:'"
                                 % ln)
            body = _BODIES[head]
            fragments.append((ln, len(line) - len(stripped) + len(head),
                              stripped[len(head):]))
    if ring is None:
        raise InputError("empty input: no ring declaration")
    if body is None:
        raise InputError("no 'ideal:' or 'module:' declaration")
    return ring, body(_Tokens(fragments), ring), ring_meta

# ------------------------------------------------------------- rendering


# The most bidegrees a --window may hold, so that one command line stays
# bounded: every subcommand with a window does work in each of its cells.
MAX_WINDOW_CELLS = 100_000


def _parse_window(text):
    try:
        ks, ls = text.split(",")
        k0, k1 = (int(t) for t in ks.split(":"))
        l0, l1 = (int(t) for t in ls.split(":"))
    except ValueError:
        raise InputError("window must look like k0:k1,l0:l1")
    if k0 > k1 or l0 > l1:
        raise InputError("window bounds must be nondecreasing")
    if (k1 - k0 + 1) * (l1 - l0 + 1) > MAX_WINDOW_CELLS:
        raise InputError("window holds more than %d bidegrees"
                         % MAX_WINDOW_CELLS)
    return k0, k1, l0, l1


def _parse_pair(text, what):
    try:
        a, b = (int(t) for t in text.split(","))
    except ValueError:
        raise InputError("%s must look like a,b" % what)
    return a, b


def _betti_json(mults):
    return {str(d): [[a, b, mult] for (a, b), mult in sorted(seen.items())]
            for d, seen in mults.items()}


def _betti_ascii(mults):
    lines = []
    for d, seen in mults.items():
        cells = " ".join("(%d,%d)x%d" % (a, b, mult)
                         for (a, b), mult in sorted(seen.items()))
        lines.append("level %d: %s" % (d, cells))
    return "\n".join(lines) if lines else "zero module"


def _outcome(value):
    """Word and exit code of a true, false or undecided (None) answer."""
    if value is None:
        return "undecided", 2
    return ("true", 0) if value else ("false", 1)


def _verdict(kind, args, v, witness):
    """Exit code, JSON payload and ASCII report of a regularity verdict at
    (args.p, args.pp); ``witness`` formats one (i, (a, b), n) witness."""
    word, code = _outcome(v.value)
    lines = ["%s regularity at (%d,%d): %s" % (kind, args.p, args.pp, word)]
    lines += [witness % (i, a, b, n) for i, (a, b), n in v.witnesses]
    lines += ["undecided: H^%d at (%d,%d)" % (i, k, kp)
              for i, (k, kp) in v.undecided]
    payload = {"verdict": {
        "value": v.value,
        "witnesses": [[i, list(pt), n] for i, pt, n in v.witnesses],
        "undecided": [[i, list(pt)] for i, pt in v.undecided],
        "method": v.method, "certified": v.certified}}
    return code, payload, "\n".join(lines)


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
#
# Each returns (exit code, JSON payload, ASCII text).  Those that read an
# input document get its presentation M; main adds the "ring" entry.


def _cmd_betti(args, M):
    from .regularity import betti_multiplicities, module_betti
    mults = betti_multiplicities(module_betti(M))
    return 0, {"betti": _betti_json(mults)}, _betti_ascii(mults)


def _cmd_frontier(args, M):
    from .regularity import strong_regularity_frontier
    points = strong_regularity_frontier(M)
    return (0, {"frontier": [list(pt) for pt in points]},
            "[" + ",".join("(%d,%d)" % pt for pt in points) + "]")


def _cmd_reg_strong(args, M):
    from .regularity import strong_regularity_check
    v = strong_regularity_check(M, args.p, args.pp)
    return _verdict("strong", args, v,
                    "witness: level %d bidegree (%d,%d) multiplicity %d")


def _cmd_reg_weak(args, M):
    from .regularity import weak_regularity_check
    v = weak_regularity_check(M, args.p, args.pp,
                              require_edge_vanishing=args.edges,
                              nu_max=args.nu_max)
    return _verdict("weak", args, v, "witness: H^%d at (%d,%d) dim %d")


# the ideal kinds of localcoh (X, Y, XY_SUM, IRRELEVANT), named as --ideal
# spells them
_IDEALS = ("irr", "sum", "x", "y")


def _cmd_lc(args, M):
    from .localcoh import lc_table
    window = _parse_window(args.window)
    table = lc_table(M, args.ideal, args.i, window,
                     nu_max=args.nu_max)
    dims, uncertified = table["dims"], table["uncertified"]
    title = "H^%d at ideal '%s'" % (args.i, args.ideal)
    return (2 if uncertified else 0,
            {"grid": _grid_json(args.i, window, dims, uncertified)},
            _grid_ascii(title, window, dims, uncertified))


def _cmd_sheaf(args):
    from .sheaf import LineBundleSum
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
    return 0, payload, _grid_ascii(title, window, dims)


# the region kinds of regions (ST, REG, REG_PRIME, REG_DOUBLE_PRIME, DREG)
_REGION_KINDS = ("St", "Reg", "RegPrime", "RegDoublePrime", "DReg")


def _cmd_region(args):
    from .regions import REG_DOUBLE_PRIME, REG_PRIME, Region, region_ascii, \
        region_contains
    window = _parse_window(args.window)
    if args.kind in (REG_PRIME, REG_DOUBLE_PRIME):
        R = Region(args.kind, -1, args.p, args.pp)
    elif args.i is None:
        raise InputError("--i is required for kind %s" % args.kind)
    else:
        R = Region(args.kind, args.i, args.p, args.pp)
    k0, k1, l0, l1 = window
    dims = [[1 if region_contains(R, k, kp) else 0
             for kp in range(l0, l1 + 1)] for k in range(k0, k1 + 1)]
    payload = {"grid": _grid_json(args.i, window, dims, kind=args.kind)}
    return 0, payload, region_ascii(R, window)


def _cmd_mult(args, M):
    from .regularity import multiplication_surjectivity
    frm = _parse_pair(getattr(args, "from"), "--from")
    step = _parse_pair(args.step, "--step")
    if step[0] < 0 or step[1] < 0:
        raise InputError("--step must be componentwise nonnegative")
    ok = multiplication_surjectivity(M, frm, step)
    word, code = _outcome(ok)
    return (code, {"mult": {"from": list(frm), "step": list(step),
                            "surjective": ok}},
            "surjective: %s" % word)


def _cmd_verify(args, M):
    from .groebner import graded_piece
    from .regularity import module_betti, multiplication_surjectivity, \
        strong_regularity_check, strong_regularity_frontier, \
        weak_regularity_check
    checks = []

    def record(name, status, detail=""):
        checks.append({"name": name, "status": status, "detail": detail})

    module_betti(M)
    C = M._cache["min_res"]
    record("resolution-composites-vanish",
           "ok" if C.composites_vanish() else "FAIL")

    bad = next(((k, kp) for k in range(-2, 5) for kp in range(-2, 5)
                if sum((-1) ** d * term.piece_dim(M.ring, (k, kp))
                       for d, term in enumerate(C.terms))
                != graded_piece(M, (k, kp))[1]), None)
    record("resolution-euler-characteristic", "ok" if bad is None else "FAIL",
           "" if bad is None else "mismatch at (%d,%d)" % bad)

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
    statuses = {c["status"] for c in checks}
    code = 1 if "FAIL" in statuses else (2 if "undecided" in statuses else 0)
    return code, {"verify": {"checks": checks, "ok": code == 0}}, \
        "\n".join(lines)

# ----------------------------------------------------------------- driver


def _read(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(3, "%s: error: %s\n" % (self.prog, message))


def _int(**kw):
    return dict(type=int, **kw)


_PAIR = (("--p", _int(required=True)), ("--pp", _int(required=True)))
_NU_MAX = ("--nu-max", _int(default=8, dest="nu_max"))
_WINDOW = ("--window", dict(required=True, help="k0:k1,l0:l1"))

# (name, help, reads an input document, handler, options after --json, in
# the order --help lists them)
_COMMANDS = (
    ("betti", "Betti table of the minimal resolution", True, _cmd_betti, ()),
    ("frontier", "minimal strong-regularity pairs", True, _cmd_frontier, ()),
    ("reg-strong", "strong regularity at a pair", True, _cmd_reg_strong,
     _PAIR),
    ("reg-weak", "weak regularity at a pair", True, _cmd_reg_weak,
     _PAIR + (("--edges", dict(action="store_true", help="also require "
                               "vanishing on the two edge quadrants")),
              _NU_MAX)),
    ("lc", "local cohomology dimensions on a window", True, _cmd_lc,
     (("--ideal", dict(choices=_IDEALS, required=True)),
      ("--i", _int(required=True)), _WINDOW, _NU_MAX)),
    ("sheaf", "twisted line-bundle cohomology grid", False, _cmd_sheaf,
     tuple((f, _int(required=True)) for f in ("--m", "--n", "--a", "--b"))
     + (("--i", _int(default=0)), _WINDOW)),
    ("region", "ASCII picture of a lattice region", False, _cmd_region,
     (("--kind", dict(choices=_REGION_KINDS, required=True)),
      ("--i", _int(default=None)), ("--p", _int(default=0)),
      ("--pp", _int(default=0)), _WINDOW)),
    ("mult", "is multiplication onto a later piece?", True, _cmd_mult,
     (("--from", dict(required=True, help="a,b", dest="from")),
      ("--step", dict(required=True, help="c,d")))),
    ("verify", "cross-validation suite on a module", True, _cmd_verify,
     (_NU_MAX,)),
)


def build_parser():
    ap = _Parser(prog="bigraded",
                 description="Bigraded regularity toolkit for modules over "
                             "a product of projective spaces.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text, reads_file, func, options in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        if reads_file:
            p.add_argument("file", help="input document ('-' for stdin)")
        p.add_argument("--json", action="store_true",
                       help="emit the JSON schema instead of ASCII")
        for flag, kw in options:
            p.add_argument(flag, **kw)
        p.set_defaults(func=func, reads_file=reads_file)
    return ap


_MERGE_FLAGS = ("--window", "--from", "--step")


def _merge_negative_values(argv):
    """Join '--window -4:1,...'-style pairs so argparse does not mistake a
    leading minus for an option."""
    out, rest = [], list(argv)
    while rest:
        tok = rest.pop(0)
        out.append(tok + "=" + rest.pop(0) if tok in _MERGE_FLAGS and rest
                   else tok)
    return out


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    args = ap.parse_args(_merge_negative_values(argv))
    # argparse drops a '--' value ('--i=--'), leaving an empty list
    if [] in vars(args).values():
        ap.error("an option's value is missing")
    try:
        if args.reads_file:
            _ring, M, meta = parse_input(_read(args.file))
            code, payload, text = args.func(args, M)
            payload["ring"] = meta
        else:
            code, payload, text = args.func(args)
        if args.json:
            import json
            text = json.dumps(payload, sort_keys=True)
        print(text)
        return code
    except (BigradedError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
