"""Child process of the benchmark; run.py starts one per phase.

    worker.py refs    WORKLOAD SEED OUT           reference answers -> OUT
    worker.py setup   WORKLOAD SEED               import + build time
    worker.py timed   WORKLOAD SEED WORKDIR SECONDS TRACE
    worker.py cli-traced STATS ARGV...            traced ``bigraded.cli``

Each phase prints one JSON object as its last line of standard output
(``cli-traced`` writes it to STATS and exits with the CLI's exit code).
Timed phases build every ring and presentation afresh on each pass,
because users pay the cold cache on every call.
"""

import json
import os
import resource
import statistics
import subprocess
import sys
import time

import inputs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.abspath(__file__)
CLI_TIMEOUT_S = 120
LC_KINDS = ("x", "y", "sum", "irr")


def _opt(argv, flag, default=None):
    """Value of --flag in argv (either '--flag v' or '--flag=v')."""
    for k, tok in enumerate(argv):
        if tok == flag and k + 1 < len(argv):
            return argv[k + 1]
        if tok.startswith(flag + "="):
            return tok[len(flag) + 1:]
    return default


def _pair(text):
    a, b = text.split(",")
    return int(a), int(b)


def window_cells(text):
    ks, ls = text.split(",")
    k0, k1 = (int(t) for t in ks.split(":"))
    l0, l1 = (int(t) for t in ls.split(":"))
    return [(k, kp) for k in range(k0, k1 + 1) for kp in range(l0, l1 + 1)], \
        (k0, k1, l0, l1)


def cell_key(module, kind, i, d):
    return "%s|%s|%d|%d|%d" % (module, kind, i, d[0], d[1])


def write_cli_inputs(workdir, specs):
    """Write the generated input documents of the cli workload."""
    os.makedirs(os.path.join(workdir, "gen"), exist_ok=True)
    for path, spec in specs.items():
        if path.startswith("gen/"):
            with open(os.path.join(workdir, path), "w") as fh:
                fh.write(inputs.render(spec))
    for path, text in inputs.MALFORMED.items():
        with open(os.path.join(workdir, path), "w") as fh:
            fh.write(text)


def cli_path(workdir, path):
    return os.path.join(workdir, path) if path.startswith("gen/") else path

# -------------------------------------------------------------- references


def refs(workload, seed):
    import reference as ref
    specs, ops = inputs.workload(workload, seed)
    if workload == "lc-grid":
        mods, counts, out = {}, {}, {"modules": {}, "cells": {}}
        for name, spec in specs.items():
            mods[name] = ref.build(spec)
            out["modules"][name] = ref.resolution_reference(mods[name])
            counts[name] = out["modules"][name]["betti"]
        for module, kind, i, d in ops:
            out["cells"][cell_key(module, kind, i, d)] = ref.cell_reference(
                mods[module], counts[module], kind, i, d)
        return out
    if workload == "resolve":
        out = {"modules": {}}
        for name in ops:
            r = ref.resolution_reference(ref.build(specs[name]))
            r["strong"] = [[p, pp] + list(ref.strong_verdict(r["betti"], p,
                                                              pp))
                           for p, pp in inputs.STRONG_POINTS]
            out["modules"][name] = r
        return out
    return {"calls": [cli_expectation(ref, specs, argv, path)
                      for argv, path in ops]}


def cli_expectation(ref, specs, argv, path):
    """What a correct ``bigraded.cli`` run of argv prints and returns."""
    cmd = argv[0]
    if cmd == "sheaf":
        m, n, a, b, i = (int(_opt(argv, f)) for f in
                         ("--m", "--n", "--a", "--b", "--i"))
        _cells, win = window_cells(_opt(argv, "--window"))
        return {"exit": 0, "dims": ref.sheaf_grid(m, n, a, b, i, win)}
    if cmd == "region":
        kind, i = _opt(argv, "--kind"), int(_opt(argv, "--i", -1))
        p, pp = int(_opt(argv, "--p", 0)), int(_opt(argv, "--pp", 0))
        _cells, (k0, k1, l0, l1) = window_cells(_opt(argv, "--window"))
        rows = ["".join("#" if ref.region_member(kind, i, p, pp, k, kp)
                        else "." for k in range(k0, k1 + 1))
                for kp in range(l1, l0 - 1, -1)]
        return {"exit": 0, "rows": rows}
    if path not in specs or _opt(argv, "--ideal", "irr") not in LC_KINDS:
        return {"exit": 3}  # a malformed document or option
    spec = specs[path]
    M = ref.build(spec)
    res = ref.resolution_reference(M)
    counts = res["betti"]
    out = {"valid": res["valid"]}
    if cmd == "betti":
        out.update(exit=0, betti=counts)
    elif cmd == "frontier":
        out.update(exit=0, frontier=res["frontier"])
    elif cmd == "reg-strong":
        p, pp = int(_opt(argv, "--p")), int(_opt(argv, "--pp"))
        value, wit = ref.strong_verdict(counts, p, pp)
        out.update(exit=0 if value else 1, value=value, witnesses=wit)
    elif cmd == "reg-weak" or cmd == "verify":
        if spec["kind"] == "quotient":
            raise ValueError("weak references need a torsion-free module")
        p, pp = ((int(_opt(argv, "--p")), int(_opt(argv, "--pp")))
                 if cmd == "reg-weak" else res["frontier"][0])
        weak = ref.weak_reference(M, counts, p, pp, engine_M=ref.build(spec))
        out["weak"] = weak
        if cmd == "reg-weak":
            out.update(exit=0 if weak["value"] else 1, value=weak["value"],
                       witnesses=weak["witnesses"])
        else:
            checks = {
                "resolution-composites-vanish":
                    "ok" if res["composites"] else "FAIL",
                "resolution-euler-characteristic":
                    "ok" if res["euler"] else "FAIL",
                "strong-at-frontier": "ok",
                "frontier-minimality": "ok",
                "weak-at-frontier": "ok" if weak["value"] else "FAIL",
                # regular with vanishing edges => onto (the paper's theorem)
                "mult-surjectivity": "ok" if weak["value"] else "skipped",
            }
            out.update(exit=0 if weak["value"] and res["valid"] else 1,
                       checks=checks)
    elif cmd == "lc":
        kind, i = _opt(argv, "--ideal"), int(_opt(argv, "--i"))
        nu_max = int(_opt(argv, "--nu-max", 8))
        cells, _win = window_cells(_opt(argv, "--window"))
        engine_M = ref.build(spec)
        out["cells"] = [{"d": list(d),
                         "ref": ref.cell_reference(M, counts, kind, i, d),
                         "engine": ref.engine_cell(engine_M, kind, i, d,
                                                   nu_max)}
                        for d in cells]
        out["exit"] = 0
    elif cmd == "mult":
        key = (path, _pair(_opt(argv, "--from")), _pair(_opt(argv, "--step")))
        value = ref.PINNED_MULT[key]
        out.update(exit=0 if value else 1, surjective=value, pinned=True)
    else:
        raise ValueError("no reference for command %r" % cmd)
    return out

# ------------------------------------------------------------------ passes


def _answer_lc(v):
    return {"dim": v.dim, "stabilized_at": v.stabilized_at,
            "certified": v.certified}


def lc_pass(specs, ops):
    from bigraded import localcoh
    from reference import build
    mods, recs = {}, []
    for module, kind, i, d in ops:
        if module not in mods:
            mods[module] = build(specs[module])
        t0 = time.perf_counter()
        try:
            answer = _answer_lc(localcoh.local_cohomology_dim(
                mods[module], kind, i, d))
        except Exception as exc:  # an operation that raises is a failure
            answer = {"error": repr(exc)}
        recs.append({"key": cell_key(module, kind, i, d),
                     "latency_s": time.perf_counter() - t0,
                     "answer": answer})
    return recs


def resolve_pass(specs, ops):
    from bigraded import regularity
    from reference import betti_counts, build
    recs = []
    for name in ops:
        t0 = time.perf_counter()
        try:
            M = build(specs[name])
            counts = betti_counts(regularity.module_betti(M))
            front = [list(pt)
                     for pt in regularity.strong_regularity_frontier(M)]
            strong = []
            for p, pp in inputs.STRONG_POINTS:
                v = regularity.strong_regularity_check(M, p, pp)
                strong.append([p, pp, v.value,
                               [[q, list(deg), k] for q, deg, k
                                in v.witnesses]])
            answer = {"betti": counts, "frontier": front, "strong": strong}
        except Exception as exc:  # an operation that raises is a failure
            answer = {"error": repr(exc)}
        recs.append({"key": name, "latency_s": time.perf_counter() - t0,
                     "answer": answer})
    return recs


def cli_pass(workdir, ops, traced, stats_out):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    recs = []
    for k, (args, path) in enumerate(ops):
        argv = [cli_path(workdir, a) if a == path else a for a in args]
        if traced:
            stats = os.path.join(workdir, "stats-%d.json" % k)
            cmd = [sys.executable, WORKER, "cli-traced", stats] + argv
        else:
            cmd = [sys.executable, "-m", "bigraded.cli"] + argv
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        lat = time.perf_counter() - t0
        if traced:
            with open(stats) as fh:
                stats_out.append(json.load(fh))
            os.remove(stats)
        recs.append({"key": " ".join(args), "latency_s": lat,
                     "answer": {"exit": proc.returncode,
                                "stdout": proc.stdout,
                                "stderr_lines": len(proc.stderr.splitlines())}})
    return recs


def _cpu_seconds(workload):
    """CPU time of the process doing the work (for cli, its children)."""
    if workload != "cli":
        return time.process_time()
    use = resource.getrusage(resource.RUSAGE_CHILDREN)
    return use.ru_utime + use.ru_stime


def timed(workload, seed, workdir, seconds, trace):
    """Repeat whole passes over the workload until the next one would end
    past `seconds`; with trace, alternate untraced and traced passes."""
    specs, ops = inputs.workload(workload, seed)
    import bigraded  # noqa: F401  (import cost belongs to setup_s)
    tracer = uninstall = None
    if trace:
        import spans as tr
        tracer = tr.Tracer()
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        stats_parts = []
        if traced:
            tracer.reset()
            uninstall = tr.install(tracer)
        t0, c0 = time.perf_counter(), _cpu_seconds(workload)
        try:
            if workload == "lc-grid":
                recs = lc_pass(specs, ops)
            elif workload == "resolve":
                recs = resolve_pass(specs, ops)
            else:
                recs = cli_pass(workdir, ops, traced, stats_parts)
        finally:
            if traced:
                uninstall()
        wall = time.perf_counter() - t0
        rec = {"traced": traced, "wall_s": wall, "ops": recs,
               "cpu_s": _cpu_seconds(workload) - c0}
        if traced:
            rec["stats"] = (tr.merge(stats_parts) if workload == "cli"
                            else tracer.snapshot())
        passes.append(rec)
        elapsed = time.perf_counter() - start
        need_both = trace and len(passes) < 2
        typical = statistics.median(p["wall_s"] for p in passes)
        if not need_both and elapsed + typical > seconds:
            break
    who = resource.RUSAGE_CHILDREN if workload == "cli" else \
        resource.RUSAGE_SELF
    return {"passes": passes,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0}


def setup(workload, seed):
    """Import bigraded and build every ring and presentation once."""
    specs, _ops = inputs.workload(workload, seed)
    t0 = time.perf_counter()
    import bigraded  # noqa: F401
    from reference import build
    for spec in specs.values():
        build(spec)
    return {"setup_s": time.perf_counter() - t0}


def cli_traced(stats_path, argv):
    import spans as tr
    tracer = tr.Tracer()
    tr.install(tracer)
    import bigraded.cli
    try:
        code = bigraded.cli.main(argv)
    except SystemExit as exc:  # argument errors leave through argparse
        code = exc.code
    finally:
        with open(stats_path, "w") as fh:
            json.dump(tracer.snapshot(), fh)
    return code


def main(argv):
    phase = argv[0]
    if phase == "cli-traced":
        return cli_traced(argv[1], argv[2:])
    workload, seed = argv[1], int(argv[2])
    if phase == "refs":
        out = refs(workload, seed)
        with open(argv[3], "w") as fh:
            json.dump(out, fh, sort_keys=True)
        return 0
    if phase == "setup":
        result = setup(workload, seed)
    elif phase == "timed":
        workdir = argv[3]
        if workload == "cli":
            specs, _ops = inputs.cli(seed)
            write_cli_inputs(workdir, specs)
        result = timed(workload, seed, workdir, float(argv[4]),
                       argv[5] == "1")
    else:
        raise SystemExit("unknown phase %r" % phase)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
