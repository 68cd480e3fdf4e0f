"""Correctness gate: compare each answer with its reference.

Every operation gets one status:

* ``ok``: the answer (and exit code) matches the reference;
* ``undecided``: the program said it could not certify (an uncertified
  cell, an undecided verdict, exit code 2) and said nothing wrong;
* ``known-defect``: a wrong answer of the known class of ROADMAP item 1,
  namely a cell the engine *certified* at ``stabilized_at`` below the
  proven power nu0(d).  A wrong verdict belongs to the class only when
  every witness in which it differs from the reference is such a cell;
* ``fail``: anything else: an exception, any other wrong answer, a wrong
  exit code, or a reference that disagrees with itself.

``failed_share`` counts ``known-defect`` and ``fail``; the gate passes
when no operation is ``fail`` and every pass gives the same digest.

No ``bigraded`` import here: the references arrive as JSON.
"""

import hashlib
import json
import re

ORDER = ("ok", "undecided", "known-defect", "fail")


def worst(statuses):
    return max(statuses, key=ORDER.index, default="ok")


def is_defect_cell(engine, ref):
    """Certified below the proven power: the item-1 class."""
    return (engine["certified"] and engine["stabilized_at"] is not None
            and engine["stabilized_at"] < ref["nu0"])


def cell_status(answer, ref, engine=None):
    """Status of one local-cohomology answer {dim, certified[,
    stabilized_at]}; engine supplies the provenance when the answer
    itself does not carry it (command-line output)."""
    if "error" in answer:
        return "fail", "raised %s" % answer["error"]
    if not ref["consistent"]:
        return "fail", "reference differs across nu0..nu0+2: %s" % ref["ext"]
    if not answer["certified"]:
        return "undecided", ""
    if answer["dim"] == ref["dim"]:
        return "ok", ""
    prov = engine if engine is not None else answer
    why = "dim %d, reference %d (stabilized_at %s, nu0 %d)" % (
        answer["dim"], ref["dim"], prov["stabilized_at"], ref["nu0"])
    if prov["dim"] == answer["dim"] and is_defect_cell(prov, ref):
        return "known-defect", why
    return "fail", why

# --------------------------------------------------------------- workloads


def check_lc(rec, refs):
    module = refs["modules"][rec["key"].split("|")[0]]
    if not module["valid"]:
        # nu0 comes from this Betti table, so the reference cannot stand
        return "fail", "Betti table fails its checks"
    return cell_status(rec["answer"], refs["cells"][rec["key"]])


def check_resolve(rec, refs):
    answer, ref = rec["answer"], refs["modules"][rec["key"]]
    if "error" in answer:
        return "fail", "raised %s" % answer["error"]
    if not ref["valid"]:
        return "fail", "Betti table fails its checks (composites %s, "\
            "Euler %s)" % (ref["composites"], ref["euler"])
    for part in ("betti", "frontier", "strong"):
        if answer[part] != ref[part]:
            return "fail", "%s %s, reference %s" % (part, answer[part],
                                                     ref[part])
    return "ok", ""


def _witness_key(w):
    return (w[0], tuple(w[1]))


def weak_status(witnesses, weak):
    """Status of a wrong weak verdict: known-defect iff every witness
    that differs from the reference is an item-1 cell whose engine value
    the verdict used."""
    cells = {(c["i"], tuple(c["d"])): c for c in weak["cells"]}
    got = {_witness_key(w): w[2] for w in witnesses}
    want = {_witness_key(w): w[2] for w in weak["witnesses"]}
    differing = [k for k in set(got) | set(want) if got.get(k) != want.get(k)]
    if not differing:
        return "ok", ""
    for key in sorted(differing):
        cell = cells.get(key)
        if cell is None or "engine" not in cell:
            return "fail", "witness %s outside the staircase" % (key,)
        eng = cell["engine"]
        if eng["dim"] != got.get(key, 0) or not is_defect_cell(eng,
                                                              cell["ref"]):
            return "fail", "witness %s: %s vs reference %s" % (
                key, got.get(key, 0), want.get(key, 0))
    return "known-defect", "differs at %s" % sorted(differing)


def _betti_text(stdout):
    out = {}
    for line in stdout.splitlines():
        m = re.match(r"level (\d+): (.*)$", line)
        if m:
            out[m.group(1)] = [[int(a), int(b), int(k)] for a, b, k in
                               re.findall(r"\((-?\d+),(-?\d+)\)x(\d+)",
                                          m.group(2))]
    return out


def _pairs_text(text):
    return [[int(a), int(b)] for a, b in re.findall(r"\((-?\d+),(-?\d+)\)",
                                                     text)]


def cli_answer(argv, stdout):
    """The answer a command-line run printed, in the reference's form."""
    cmd, js = argv[0], "--json" in argv
    data = json.loads(stdout) if js else None
    if cmd == "betti":
        return {"betti": data["betti"] if js else _betti_text(stdout)}
    if cmd == "frontier":
        return {"frontier": data["frontier"] if js else _pairs_text(stdout)}
    if cmd in ("reg-strong", "reg-weak"):
        if js:
            v = data["verdict"]
            return {"value": v["value"], "witnesses": v["witnesses"],
                    "undecided": v["undecided"]}
        lines = stdout.splitlines()
        word = lines[0].rsplit(" ", 1)[1]
        wit = [[int(d), [int(a), int(b)], int(k)] for d, a, b, k in
               re.findall(r"level (\d+) bidegree \((-?\d+),(-?\d+)\) "
                          r"multiplicity (\d+)", stdout)]
        return {"value": {"true": True, "false": False}.get(word),
                "witnesses": wit, "undecided": []}
    if cmd == "lc":
        g = data["grid"]
        return {"dims": g["dims"], "uncertified": g["uncertified"]}
    if cmd == "mult":
        return {"surjective": data["mult"]["surjective"] if js
                else stdout.strip() == "surjective: true"}
    if cmd == "verify":
        if js:
            return {"checks": {c["name"]: c["status"]
                               for c in data["verify"]["checks"]}}
        return {"checks": dict(re.findall(r"^([\w-]+): (\w+)", stdout,
                                          re.M))}
    if cmd == "sheaf":
        return {"dims": data["grid"]["dims"]}
    if cmd == "region":
        return {"rows": stdout.split()}
    return {}


def check_cli(argv, answer, exp):
    code = answer["exit"]
    if exp["exit"] == 3:
        ok = code == 3 and answer["stderr_lines"] == 1
        return ("ok", "") if ok else ("fail", "exit %d on malformed input"
                                      % code)
    if code == 3:
        return "fail", "exit 3 on a well-formed input"
    try:
        got = cli_answer(argv, answer["stdout"])
    except (ValueError, KeyError, IndexError) as exc:
        return "fail", "unreadable output (%r)" % exc
    if not exp.get("valid", True):
        return "fail", "reference Betti table fails its checks"
    if not exp.get("weak", {}).get("consistent", True):
        return "fail", "a reference cell differs across nu0..nu0+2"
    cmd = argv[0]
    if cmd == "lc":
        return _check_cli_lc(got, exp, code)
    if cmd == "reg-weak":
        if got["value"] is None:
            return ("undecided", "") if code == 2 else ("fail", "exit %d"
                                                        % code)
        status, why = weak_status(got["witnesses"], exp["weak"])
        if got["value"] != (not got["witnesses"]) or \
                code != (0 if got["value"] else 1):
            return "fail", "verdict, witnesses and exit code disagree"
        return status, why
    if cmd == "verify":
        return _check_cli_verify(got, exp, code)
    if code != exp["exit"]:
        return "fail", "exit %d, expected %d" % (code, exp["exit"])
    for key, value in got.items():
        if key != "undecided" and exp[key] != value:
            return "fail", "%s %s, reference %s" % (key, value, exp[key])
    return "ok", ""


def _check_cli_lc(got, exp, code):
    uncert = {tuple(u) for u in got["uncertified"]}
    flat = [v for row in got["dims"] for v in row]
    if len(flat) != len(exp["cells"]):
        return "fail", "grid has %d cells, expected %d" % (
            len(flat), len(exp["cells"]))
    if code != (2 if uncert else 0):
        return "fail", "exit %d with %d uncertified" % (code, len(uncert))
    found = []
    for dim, cell in zip(flat, exp["cells"]):
        d = tuple(cell["d"])
        found.append(cell_status({"dim": dim, "certified": d not in uncert},
                                 cell["ref"], cell["engine"]))
    status = worst(s for s, _w in found)
    return status, "; ".join(w for s, w in found if s == status and w)


def _check_cli_verify(got, exp, code):
    want = exp["checks"]
    if "undecided" in got["checks"].values():
        return ("undecided", "") if code == 2 else ("fail", "exit %d" % code)
    wrong = sorted(k for k in set(want) | set(got["checks"])
                   if want.get(k) != got["checks"].get(k))
    expected_code = 1 if "FAIL" in got["checks"].values() else 0
    if code != expected_code:
        return "fail", "exit %d for statuses %s" % (code, got["checks"])
    if not wrong:
        return "ok", ""
    if set(wrong) <= {"weak-at-frontier", "mult-surjectivity"} and \
            "weak-at-frontier" in wrong:
        cells = exp["weak"]["cells"]
        engine_wit = [[c["i"], c["d"], c["engine"]["dim"]] for c in cells
                      if c["engine"]["certified"] and c["engine"]["dim"]]
        status, why = weak_status(engine_wit, exp["weak"])
        if status == "known-defect":
            return status, "checks %s; %s" % (wrong, why)
    return "fail", "checks %s differ from the reference" % wrong

# ------------------------------------------------------------------ digest


def digest_answer(workload, answer):
    """The part of an answer the digest covers: never timings, and not the
    engine's stabilization power, which is provenance, not an answer."""
    if workload == "lc-grid" and "error" not in answer:
        return {"dim": answer["dim"], "certified": answer["certified"]}
    if workload == "cli":
        return {"exit": answer["exit"], "stdout": answer["stdout"]}
    return answer


def digest(workload, recs):
    h = hashlib.sha256()
    for rec in recs:
        h.update(json.dumps([rec["key"], digest_answer(workload,
                                                       rec["answer"])],
                            sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()
