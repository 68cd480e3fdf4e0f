import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bigraded.cli import (MAX_WINDOW_CELLS, _merge_negative_values,
                          _parse_window, main, parse_input)
from bigraded.errors import BigradedError, InputError, NotBihomogeneous
from bigraded.regularity import module_betti
from conftest import SATURATION_ROUNDS_DOC

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env():
    """The environment of a child process that imports bigraded from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env

M_DOC = "ring field=32003 m=1 n=1\nideal: x0*y0; x0*y1; x1*y0; x1*y1\n"
R_DOC = "ring field=32003 m=1 n=1\nmodule: gens=(0,0)\n"
Q_DOC = ("ring field=32003 m=1 n=1\n"
         "module: gens=(0,0) rels: x0*y0*e1; x0*y1*e1; x1*y0*e1; x1*y1*e1\n")


@pytest.fixture
def doc(tmp_path):
    def write(text, name="in.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def run(capsys, argv):
    rc = main(argv)
    return rc, capsys.readouterr().out


# ------------------------------------------------------------------ parsing


def test_parse_ideal_document():
    ring, M, meta = parse_input(M_DOC)
    assert meta == {"field": 32003, "m": 1, "n": 1}
    assert M.f0.gens == ((1, 1),) * 4


def test_parse_rational_field_and_powers():
    ring, M, meta = parse_input("ring field=q m=0 n=1\n"
                                "ideal: x0^2*y0; x0^2*y1")
    assert meta["field"] == "q"
    assert M.f0.gens == ((2, 1), (2, 1))


def test_parse_module_document_with_comments_and_continuation():
    text = ("ring field=32003 m=1 n=1\n"
            "# the presentation may continue over lines\n"
            "module: gens=(0,0)\n"
            "  rels: x0*y0*e1;\n"
            "   x0*y1*e1\n")
    ring, M, meta = parse_input(text)
    assert M.f0.gens == ((0, 0),)
    assert M.relations.source.gens == ((1, 1), (1, 1))


def test_parse_signed_generator_degrees():
    ring, M, _ = parse_input("ring field=32003 m=1 n=1\n"
                             "module: gens=(-1,2),(0,0)")
    assert M.f0.gens == ((-1, 2), (0, 0))


def test_parse_errors_carry_positions():
    cases = [
        ("ring field=32003 m=1 n=1\nideal: x0*y9",
         InputError, "line 2, col 11: unknown variable 'y9'"),
        ("ring field=32003 m=1 n=1\nideal: x0+y0",
         NotBihomogeneous,
         "line 2, col 8: ideal generator is not bihomogeneous"),
        ("ring field=32003 m=1 n=1\nideal: x0*y0 - x0*y0",
         InputError, "line 2, col 8: ideal generator is zero after reduction"),
        ("ring field=32003 m=1 n=1\n"
         "module: gens=(0,0),(1,0) rels: x0*e1 + y0*e2",
         NotBihomogeneous,
         "line 2, col 32: relation terms do not share a bidegree"),
        ("ring field=32003 m=1 n=1\nmodule: gens=(0,0) rels: x0*y0*e2",
         InputError, "line 2, col 32: generator index e2 out of range 1..1"),
        ("ideal: x0", InputError, "line 1: expected a ring declaration first"),
        ("ring field=32003 m=1 n=1", InputError,
         "no 'ideal:' or 'module:' declaration"),
        ("ring field=32003 m=1\nideal: x0", InputError,
         "line 1: ring declaration is missing n"),
        ("ring field=32003 m=-2 n=1\nideal: y0", InputError,
         "line 1: m and n must be at least -1"),
        ("ring field=32003 m=1 n=-2\nideal: x0", InputError,
         "line 1: m and n must be at least -1"),
        # integers are ASCII digits; '²'.isdigit() holds but int() rejects it
        ("ring field=32003 m=1 n=1\nideal: x0^²*y0", InputError,
         "line 2, col 11: expected an integer"),
        ("ring field=32003 m=1 n=1\nideal: ²*x0*y0", InputError,
         "line 2, col 8: expected a coefficient, variable or generator factor"),
        ("ring field=32003 m=1 n=1\nmodule: gens=(²,0)", InputError,
         "line 2, col 15: expected an integer"),
        ("ring field=32003 m=1 n=1\nideal: x1^2²y1", InputError,
         "line 2, col 12: expected '+', '-', ';' or end of declaration"),
        # the ring declaration sets field, m and n once each, in ASCII
        # digits, and field=0 is not the rationals
        ("ring field=0 m=1 n=1\nideal: x0", InputError,
         "line 1: field must be 'q' or a prime"),
        ("# comment\nring field=٣ m=1 n=1\nideal: x0", InputError,
         "line 2: field must be 'q' or a prime"),
        ("ring field=rationals m=1 n=1\nideal: x0", InputError,
         "line 1: field must be 'q' or a prime"),
        ("ring field=Qq m=1 n=1\nideal: x0", InputError,
         "line 1: field must be 'q' or a prime"),
        ("ring field=32003 m=١ n=1\nideal: x0", InputError,
         "line 1: m and n must be integers"),
        ("ring field=32003 m=1 n=+1\nideal: x0", InputError,
         "line 1: m and n must be integers"),
        ("ring field=32003 m=1 n=1_0\nideal: x0", InputError,
         "line 1: m and n must be integers"),
        ("ring field=q m=1 n=1 m=2\nideal: x0", InputError,
         "line 1: ring declaration repeats m"),
        ("ring field=q m=1 n=1 foo=3\nideal: x0", InputError,
         "line 1: unknown ring key 'foo'"),
        ("ringfield=q m=1 n=1\nideal: x0", InputError,
         "line 1: expected a ring declaration first"),
    ]
    for text, exc, message in cases:
        with pytest.raises(exc) as info:
            parse_input(text)
        assert str(info.value) == message


def test_relation_terms_accumulate_in_order():
    # repeated terms merge, a sum that is zero leaves the vector, and a
    # term that comes back is appended after the terms still present
    A, B, C = (0, (1, 0, 1, 0)), (1, (0, 0, 1, 0)), (0, (0, 1, 1, 0))
    ring, M, _ = parse_input(
        "ring field=7 m=1 n=1\nmodule: gens=(0,0),(1,0)\n  rels: "
        "x0*y0*e1 + 3*y0*e2 + 2*x0*y0*e1 - 3*y0*e2 + 4*x0*y0*e1 + y0*e2"
        " + x1*y0*e1 + 6*x0*y0*e1; x0*y0*e1 - 8*x0*y0*e1; 5*y0*e2 + y0*e2\n")
    assert [list(c.items()) for c in M.relations.cols] == [
        [(B, 1), (C, 1), (A, 6)], [(B, 6)]]
    ring, M, _ = parse_input(
        "ring field=q m=1 n=1\nmodule: gens=(0,0)\n"
        "  rels: x0*y0*e1 - x1*y0*e1 - x0*y0*e1 + 2*x1*y0*e1 + x0*y0*e1\n")
    assert list(M.relations.cols[0].items()) == [(C, 1), (A, 1)]


def test_long_relation_parses_in_linear_time(tmp_path):
    # one relation of 64,000 terms (a 1.4 MB document): each term is added
    # to the relation in place, so parsing is linear in its length
    n = 64000
    path = tmp_path / "long.txt"
    path.write_text("ring field=32003 m=1 n=1\nmodule: gens=(0,0)\n  rels: "
                    + " + ".join("x0^%d*x1^%d*e1" % (a, n - 1 - a)
                                 for a in range(n)) + "\n")
    code = ("import sys; from bigraded.cli import parse_input; "
            "M = parse_input(open(sys.argv[1]).read())[1]; "
            "print(len(M.relations.cols[0]), M.relations.source.gens)")
    out = subprocess.run([sys.executable, "-c", code, str(path)],
                         env=child_env(), capture_output=True, text=True,
                         timeout=10)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "64000 ((63999, 0),)\n"


FUZZ_DOCS = [
    M_DOC, Q_DOC,
    "ring field=q m=0 n=1\nideal: x0^2*y0; -3*x0^2*y1 + x0^2*y0\n",
    "ring field=7 m=1 n=1\nmodule: gens=(-1,2),(0,0)\n"
    "  rels: x0*y0*e2; 2*x1^3*e1 - y1*e2  # two relations\n",
]
FUZZ_ALPHABET = "0123456789xyeq^*+-;:,()=# \n\tgensrlidmf\u00b2\u0663\u00e9_"


def test_parser_fuzz_raises_only_input_errors():
    # random single-character edits of valid documents: whatever the text,
    # parse_input answers or raises a BigradedError (exit 3 in the CLI)
    rng = random.Random(13)
    escapes = []
    for _ in range(3000):
        text = rng.choice(FUZZ_DOCS)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text) + 1)
            ch = rng.choice(FUZZ_ALPHABET)
            text = rng.choice([text[:i] + ch + text[i:],
                               text[:i] + ch + text[i + 1:],
                               text[:i] + text[i + 1:]])
        try:
            parse_input(text)
        except BigradedError:
            pass
        except Exception as exc:  # any other exception is a traceback
            escapes.append((text, repr(exc)))
    assert escapes == []


# -------------------------------------------------------------- subcommands


def test_betti_ascii_and_exit(doc, capsys):
    rc, out = run(capsys, ["betti", doc(M_DOC)])
    assert rc == 0
    assert out == ("level 0: (1,1)x4\n"
                   "level 1: (1,2)x2 (2,1)x2\n"
                   "level 2: (2,2)x1\n")


def test_betti_json_round_trip(doc, capsys):
    rc, out = run(capsys, ["betti", doc(M_DOC), "--json"])
    assert rc == 0
    payload = json.loads(out)
    assert payload["ring"] == {"field": 32003, "m": 1, "n": 1}
    ring, M, _ = parse_input(M_DOC)
    betti = module_betti(M)
    rebuilt = {int(d): sorted(sum([[(a, b)] * mult for a, b, mult in rows], []))
               for d, rows in payload["betti"].items()}
    assert rebuilt == {d: sorted(betti[d]) for d in betti}


def test_quotient_betti(doc, capsys):
    rc, out = run(capsys, ["betti", doc("ring field=32003 m=1 n=1\n"
                                        "module: gens=(0,0) rels: x0*y0*e1")])
    assert rc == 0
    assert out == "level 0: (0,0)x1\nlevel 1: (1,1)x1\n"


def test_frontier_output(doc, capsys):
    path = doc(M_DOC)
    rc, out = run(capsys, ["frontier", path])
    assert (rc, out) == (0, "[(1,1)]\n")
    rc, out = run(capsys, ["frontier", path, "--json"])
    assert json.loads(out)["frontier"] == [[1, 1]]


def test_reg_strong_verdicts_and_witnesses(doc, capsys):
    path = doc(M_DOC)
    rc, out = run(capsys, ["reg-strong", path, "--p", "1", "--pp", "1"])
    assert rc == 0 and out.startswith("strong regularity at (1,1): true")
    rc, out = run(capsys, ["reg-strong", path, "--p", "0", "--pp", "1"])
    assert rc == 1
    assert out == ("strong regularity at (0,1): false\n"
                   "witness: level 0 bidegree (1,1) multiplicity 4\n"
                   "witness: level 1 bidegree (1,2) multiplicity 2\n"
                   "witness: level 1 bidegree (2,1) multiplicity 2\n"
                   "witness: level 2 bidegree (2,2) multiplicity 1\n")


def test_reg_weak_verdicts(doc, capsys):
    rc, out = run(capsys, ["reg-weak", doc(R_DOC), "--p", "0", "--pp", "0"])
    assert rc == 0 and "weak regularity at (0,0): true" in out

    rc, out = run(capsys, ["reg-weak", doc(R_DOC, "u.txt"), "--p", "0",
                           "--pp", "0", "--nu-max", "2"])
    assert rc == 2
    assert "weak regularity at (0,0): undecided" in out
    assert "undecided: H^1 at (0,0)" in out

    shifted = "ring field=32003 m=1 n=1\nmodule: gens=(1,0)\n"
    rc, out = run(capsys, ["reg-weak", doc(shifted, "s.txt"),
                           "--p", "0", "--pp", "0"])
    assert rc == 1 and "witness: H^3 at (-1,-2) dim 1" in out


def test_reg_weak_edges_flag(doc, capsys):
    rc, _ = run(capsys, ["reg-weak", doc(Q_DOC), "--p", "0", "--pp", "1",
                         "--edges"])
    assert rc == 1
    rc, _ = run(capsys, ["reg-weak", doc(Q_DOC, "p.txt"),
                         "--p", "0", "--pp", "1"])
    assert rc == 0


def test_lc_grid_matches_kunneth_dictionary(doc, capsys):
    rc, out = run(capsys, ["lc", doc(R_DOC), "--ideal", "irr", "--i", "2",
                           "--window", "-2:0,-2:0", "--json"])
    assert rc == 0
    grid = json.loads(out)["grid"]
    assert grid == {"i": 2, "window": [-2, 0, -2, 0], "uncertified": [],
                    "dims": [[0, 0, 1], [0, 0, 0], [1, 0, 0]]}


def test_lc_uncertified_exit(doc, capsys):
    rc, out = run(capsys, ["lc", doc(R_DOC), "--ideal", "irr", "--i", "2",
                           "--window", "0:0,-2:-2", "--nu-max", "2"])
    assert rc == 2 and "?" in out


def test_sheaf_grid(capsys):
    rc, out = run(capsys, ["sheaf", "--m", "1", "--n", "1", "--a", "0",
                           "--b", "-2", "--i", "1", "--window", "-1:1,-1:1"])
    assert rc == 0
    assert out == ("H^1 of O(0,-2) twists over the window\n"
                   " 1 |  .  .  .\n"
                   " 0 |  .  1  2\n"
                   "-1 |  .  2  4\n"
                   "   +---------\n"
                   "     -1  0  1\n")


def test_region_picture_and_json(capsys):
    rc, out = run(capsys, ["region", "--kind", "St", "--i", "2",
                           "--p", "0", "--pp", "0", "--window", "-4:1,-4:1"])
    assert rc == 0
    assert out == "......\n......\n..#...\n...#..\n......\n......\n"
    rc, out = run(capsys, ["region", "--kind", "St", "--i", "2",
                           "--p", "0", "--pp", "0", "--window", "-4:1,-4:1",
                           "--json"])
    dims = json.loads(out)["grid"]["dims"]
    assert dims[2][3] == 1 and dims[3][2] == 1
    assert sum(sum(row) for row in dims) == 2


def test_region_requires_level_for_staircase(capsys):
    rc = main(["region", "--kind", "St", "--window", "-1:1,-1:1"])
    assert rc == 3


def test_mult_exit_codes(doc, capsys):
    path = doc(M_DOC)
    rc, out = run(capsys, ["mult", path, "--from", "1,1", "--step", "1,0"])
    assert (rc, out) == (0, "surjective: true\n")
    free2 = "ring field=32003 m=1 n=1\nmodule: gens=(0,0),(2,0)\n"
    rc, out = run(capsys, ["mult", doc(free2, "f.txt"),
                           "--from", "1,0", "--step", "1,0"])
    assert (rc, out) == (1, "surjective: false\n")
    rc = main(["mult", path, "--from", "1,1", "--step", "-1,0"])
    assert rc == 3


def test_verify_suite(doc, capsys):
    rc, out = run(capsys, ["verify", doc(M_DOC)])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines == ["resolution-composites-vanish: ok",
                     "resolution-euler-characteristic: ok",
                     "strong-at-frontier: ok",
                     "frontier-minimality: ok",
                     "weak-at-frontier: ok",
                     "mult-surjectivity: ok"]

    rc, out = run(capsys, ["verify", doc(Q_DOC, "q.txt")])
    assert rc == 0
    assert "mult-surjectivity: skipped" in out

    rc, out = run(capsys, ["verify", doc(R_DOC, "r.txt"), "--nu-max", "2"])
    assert rc == 2 and "weak-at-frontier: undecided" in out


# -------------------------------------------------------------- plumbing


def test_default_output_is_deterministic(doc, capsys):
    path = doc(M_DOC)
    outs = set()
    for _ in range(2):
        rc, out = run(capsys, ["betti", path])
        outs.add(out)
        rc, out = run(capsys, ["betti", path, "--json"])
        outs.add(out)
    assert len(outs) == 2


def test_merge_negative_values_unit():
    argv = ["region", "--kind", "St", "--window", "-4:1,-4:1",
            "--i", "-3"]
    assert _merge_negative_values(argv) == [
        "region", "--kind", "St", "--window=-4:1,-4:1", "--i", "-3"]


def test_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(M_DOC))
    rc, out = run(capsys, ["frontier", "-"])
    assert (rc, out) == (0, "[(1,1)]\n")


# argv fuzz: the options of each subcommand with the kind of value each
# takes, and the values a kind draws from, typos and out-of-range included
ARGV_OPTIONS = {
    "betti": (), "frontier": (),
    "reg-strong": (("--p", "int"), ("--pp", "int")),
    "reg-weak": (("--p", "int"), ("--pp", "int"), ("--edges", None),
                 ("--nu-max", "nu")),
    "lc": (("--ideal", "ideal"), ("--i", "int"), ("--window", "window"),
           ("--nu-max", "nu")),
    "sheaf": (("--m", "int"), ("--n", "int"), ("--a", "int"),
              ("--b", "int"), ("--i", "int"), ("--window", "window")),
    "region": (("--kind", "kind"), ("--i", "int"), ("--p", "int"),
               ("--pp", "int"), ("--window", "window")),
    "mult": (("--from", "pair"), ("--step", "pair")),
    "verify": (("--nu-max", "nu"),),
}
ARGV_JUNK = ["", "x", "1.5", "-", "--", "1,", "0:0", "a:b,0:0", "1:0,0:0",
             "٣", "--json"]


def _argv_value(rng, kind):
    if kind == "int":
        return str(rng.randint(-3, 5))
    if kind == "nu":
        return str(rng.randint(-1, 3))
    if kind == "ideal":
        return rng.choice(["irr", "sum", "x", "y", "ir", "IRR", "xy", "z"])
    if kind == "kind":
        return rng.choice(["St", "Reg", "RegPrime", "RegDoublePrime", "DReg",
                           "reg", "Reg'", "DREG"])
    if kind == "pair":
        return "%d,%d" % (rng.randint(-2, 2), rng.randint(-2, 2))
    k0, l0 = rng.randint(-3, 2), rng.randint(-3, 2)
    return "%d:%d,%d:%d" % (k0, k0 + rng.randint(-1, 2),
                            l0, l0 + rng.randint(-1, 2))


def _fuzzed_argv(rng, docs):
    cmd = rng.choice(sorted(ARGV_OPTIONS))
    opts = [[flag] + ([_argv_value(rng, kind)] if kind else [])
            for flag, kind in ARGV_OPTIONS[cmd] if kind or rng.random() < 0.5]
    for _ in range(rng.randint(0, 2)):
        if not opts:
            break
        edit = rng.choice(["drop", "repeat", "junk", "bare", "glue",
                           "shuffle"])
        k = rng.randrange(len(opts))
        if edit == "drop":
            del opts[k]
        elif edit == "repeat":
            flag, kind = ARGV_OPTIONS[cmd][rng.randrange(
                len(ARGV_OPTIONS[cmd]))]
            opts.append([flag] + ([_argv_value(rng, kind)] if kind else []))
        elif edit == "junk":
            opts[k] = opts[k][:1] + [rng.choice(ARGV_JUNK)]
        elif edit == "bare":
            opts[k] = opts[k][:1]
        elif edit == "glue":
            opts[k] = ["=".join(opts[k][:1] + [rng.choice(ARGV_JUNK)])]
        else:
            rng.shuffle(opts)
    head = [cmd]
    if cmd not in ("sheaf", "region") and rng.random() < 0.9:
        head.append(rng.choice(docs))
    argv = head + [tok for opt in opts for tok in opt]
    if rng.random() < 0.3:
        argv.append("--json")
    return argv


def test_argv_fuzz_exits_with_a_documented_code(doc, capsys):
    # seeded argv edits of every subcommand: whatever the command line,
    # main returns 0, 1, 2 or 3 (argparse leaves with SystemExit) and
    # prints no traceback
    docs = [doc(M_DOC, "m.txt"), doc(Q_DOC, "q.txt"), doc(R_DOC, "r.txt"),
            doc("ring field=7 m=1 n=1\nideal: x0*\n", "bad.txt"),
            doc(M_DOC, "m.txt") + ".missing"]
    rng = random.Random(20)
    codes, escapes = {}, []
    t0 = time.perf_counter()
    for _ in range(400):
        argv = _fuzzed_argv(rng, docs)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # any other exception is a traceback
            escapes.append((argv, repr(exc)))
            continue
        _out, err = capsys.readouterr()
        if code not in (0, 1, 2, 3) or "Traceback" in err:
            escapes.append((argv, code, err))
        codes[code] = codes.get(code, 0) + 1
    assert escapes == []
    assert time.perf_counter() - t0 < 20.0
    # the edits leave enough command lines whole to reach every answer
    assert set(codes) == {0, 1, 2, 3}


@pytest.mark.parametrize("opt", [["--window", "--"], ["--window=--"],
                                 ["--i=--"], ["--nu-max=--"]])
def test_dashes_as_a_value_exit_three(doc, capsys, opt):
    # argparse drops a '--' value and leaves an empty list in its place
    argv = ["lc", doc(M_DOC), "--ideal", "irr", "--i", "2",
            "--window", "0:0,0:0"] + opt
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 3


def test_saturation_rounds_start_from_a_reduced_basis(doc, capsys):
    # four saturation rounds; passing every quotient generator on to the
    # next round grew them to 5, 95, 360, 472 and 73 generators (about 50 s)
    t0 = time.perf_counter()
    rc, out = run(capsys, ["lc", doc(SATURATION_ROUNDS_DOC), "--ideal", "irr",
                           "--i", "0", "--window", "-1:2,-1:2", "--json"])
    assert time.perf_counter() - t0 < 10.0
    grid = json.loads(out)["grid"]
    assert rc == 0 and grid["uncertified"] == []
    assert grid["dims"] == [[0, 0, 0, 0], [0, 1, 3, 5], [0, 1, 4, 5],
                            [0, 1, 5, 5]]


def test_missing_file_is_input_error(capsys):
    assert main(["betti", "/no/such/file.txt"]) == 3


def test_bad_window_is_input_error(doc, capsys):
    assert main(["lc", doc(R_DOC), "--ideal", "irr", "--i", "2",
                 "--window", "3:1,0:0"]) == 3


ZERO_DOC = "ring field=32003 m=1 n=1\nmodule: gens=(0,0) rels: e1\n"
# 2^64 - 59 is prime; 2^63 - 25 is the largest prime below 2^63
BIG_FIELD_DOC = ("ring field=%d m=1 n=1\nideal: x0*y0+3*x1*y1; x0*y1\n"
                 % (2 ** 64 - 59))
BIG_FIELD = ("line 1: modulus must be an odd prime below 2^63, got %d"
             % (2 ** 64 - 59))
LC_CORNER = ["--ideal", "irr", "--i", "2", "--window", "-2:-2,0:0"]
SHEAF = ["sheaf", "--a", "0", "--b", "0", "--window", "0:1,0:1"]
LC_CELL = ["lc", R_DOC, "--ideal", "irr", "--i", "2", "--window", "0:0,0:0"]


@pytest.mark.parametrize("argv, message", [
    (["frontier", ZERO_DOC], "the zero module has no regularity frontier"),
    (["verify", ZERO_DOC], "the zero module has no regularity frontier"),
    (["betti", "ring field=32003 m=-2 n=1\nideal: y0\n"],
     "line 1: m and n must be at least -1"),
    (SHEAF + ["--m", "-2", "--n", "1"], "--m and --n must be at least -1"),
    (SHEAF + ["--m", "1", "--n", "-2"], "--m and --n must be at least -1"),
    (LC_CELL + ["--nu-max", "0"], "nu_max must be at least 1, got 0"),
    (LC_CELL + ["--nu-max", "-1"], "nu_max must be at least 1, got -1"),
    (["reg-weak", M_DOC, "--p", "1", "--pp", "1", "--nu-max", "0"],
     "nu_max must be at least 1, got 0"),
    (["verify", M_DOC, "--nu-max", "0"], "nu_max must be at least 1, got 0"),
    (["lc", BIG_FIELD_DOC] + LC_CORNER, BIG_FIELD),
    (["verify", BIG_FIELD_DOC], BIG_FIELD),
    (["betti", "ring field=32003 m=33 n=1\nideal: y0\n"],
     "line 1: m and n must be at most 32, got m=33, n=1"),
    (["betti", "ring field=q m=-1 n=-1\nideal: 1\n"],
     "line 1: both variable blocks empty"),
], ids=["frontier-zero", "verify-zero", "ring-m", "sheaf-m", "sheaf-n",
        "lc-nu-zero", "lc-nu-negative", "reg-weak-nu-zero", "verify-nu-zero",
        "lc-big-field", "verify-big-field", "ring-m-above-limit",
        "ring-both-blocks-empty"])
def test_bad_inputs_exit_three_with_message(doc, capsys, argv, message):
    argv = [doc(a) if a.startswith("ring") else a for a in argv]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: %s\n" % message)


def test_sheaf_accepts_empty_block(capsys):
    # P^-1 is empty, so every cohomology group on it vanishes
    rc, out = run(capsys, SHEAF + ["--m", "-1", "--n", "1", "--json"])
    assert rc == 0
    assert json.loads(out)["grid"]["dims"] == [[0, 0], [0, 0]]


def test_unknown_subcommand_exits_three(capsys):
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 3


def test_largest_field_below_two_to_the_63_runs_lc(doc, capsys):
    big = BIG_FIELD_DOC.replace(str(2 ** 64 - 59), str(2 ** 63 - 25))
    small = BIG_FIELD_DOC.replace(str(2 ** 64 - 59), "32003")
    outs = [run(capsys, ["lc", doc(text), "--json"] + LC_CORNER)
            for text in (big, small)]
    assert [rc for rc, _out in outs] == [0, 0]
    grids = [json.loads(out)["grid"] for _rc, out in outs]
    assert grids[0] == grids[1] and grids[0]["dims"] == [[3]]


def run_child(argv):
    """python -m bigraded.cli argv in a child process that must end
    within a second."""
    return subprocess.run([sys.executable, "-m", "bigraded.cli"] + argv,
                          env=child_env(), capture_output=True, text=True,
                          timeout=1)


def test_huge_ring_is_refused_at_once(doc):
    # the ring is checked before anything is built for its variables: a
    # child process must exit 3 well within a second
    path = doc("ring field=32003 m=100000000 n=1\nideal: x0*y0; x1*y1\n")
    out = run_child(["betti", path])
    assert out.returncode == 3
    assert out.stderr == ("error: line 1: m and n must be at most 32, "
                          "got m=100000000, n=1\n")


HUGE_WINDOW = ["--window", "0:100000000,0:0"]


@pytest.mark.parametrize("argv", [
    ["sheaf", "--m", "1", "--n", "1", "--a", "0", "--b", "0"] + HUGE_WINDOW,
    ["region", "--kind", "Reg", "--i", "0"] + HUGE_WINDOW,
], ids=["sheaf", "region"])
def test_huge_window_is_refused_at_once(argv):
    # the window is sized before any cell is computed or drawn
    out = run_child(argv)
    assert out.returncode == 3
    assert out.stderr == ("error: window holds more than %d bidegrees\n"
                          % MAX_WINDOW_CELLS)


def test_window_limit_counts_cells(doc):
    assert _parse_window("0:%d,5:5" % (MAX_WINDOW_CELLS - 1)) == \
        (0, MAX_WINDOW_CELLS - 1, 5, 5)
    for text in ("0:%d,5:5" % MAX_WINDOW_CELLS, "-200:200,-200:200"):
        with pytest.raises(InputError):
            _parse_window(text)
    assert main(["lc", doc(R_DOC), "--ideal", "irr", "--i", "2",
                 "--window", "0:1000,0:1000"]) == 3
