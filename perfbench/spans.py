"""Spans around the public functions of ``bigraded``, installed from outside.

``install`` replaces each traced function in every ``bigraded`` module
namespace that holds it (the defining module, the modules that imported
it with ``from ... import``, and the package root), so calls between
modules are seen as well as calls from the benchmark.  A span's self time
is its duration minus the time of the spans it encloses.  ``ring``,
``fields``, ``modules``, ``regions`` and ``sheaf`` get no spans; their
cost shows in their callers' self time.

Spans are aggregated in memory as they close (self time, call count and
the counters below), which is all the per-layer metrics need.
"""

import importlib
import pkgutil
import sys
import time


def _nnz_returned(res, args, kwargs):
    return {"groebner.mult_matrix_nnz": len(res[0])}


def _rank_counts(res, args, kwargs):
    entries, nrows, ncols = args[:3]
    return {"linalg.rank_nnz": sum(1 for e in entries if e[2]),
            "linalg.rank_max_dim": max(nrows, ncols)}


def _betti_total(res, args, kwargs):
    return {"resolutions.betti_total": sum(t.rank for t in res.terms)}


def _nu_used(res, args, kwargs):
    nu = res.stabilized_at or 0
    return {"localcoh.nu_sum": nu, "localcoh.nu_max_used": nu}


# (module, function, span name, counter function or None)
TRACED = [
    ("groebner", "multiplication_matrix", "groebner.mult_matrix",
     _nnz_returned),
    ("groebner", "column_syzygies", "groebner.syz", None),
    ("groebner", "syzygies", "groebner.syz", None),
    ("groebner", "buchberger", "groebner.gb", None),
    ("groebner", "graded_piece", "groebner.graded_piece", None),
    ("groebner", "saturate", "groebner.saturate", None),
    ("linalg", "rank_entries", "linalg.rank", _rank_counts),
    ("resolutions", "minimal_free_resolution", "resolutions.mfr",
     _betti_total),
    ("resolutions", "koszul_complex", "resolutions.power_complex", None),
    ("resolutions", "irrelevant_resolution", "resolutions.power_complex",
     None),
    ("localcoh", "local_cohomology_dim", "localcoh.cell", _nu_used),
    ("localcoh", "ext_graded_dim", "localcoh.ext", None),
    ("regularity", "weak_regularity_check", "regularity.weak", None),
    ("regularity", "strong_regularity_check", "regularity.strong", None),
    ("regularity", "multiplication_surjectivity", "regularity.mult_surj",
     None),
    ("cli", "parse_input", "cli.parse", None),
]

SPAN_NAMES = sorted({span for _m, _f, span, _c in TRACED})


def _add_counters(into, values):
    """Counters add up, except maxima (names containing _max_)."""
    for key, v in values.items():
        if "_max_" in key:
            into[key] = max(into.get(key, 0), v)
        else:
            into[key] = into.get(key, 0) + v


def merge(snapshots):
    """One snapshot for several processes (the traced cli invocations)."""
    out = {"self_s": {}, "calls": {}, "counters": {}}
    for snap in snapshots:
        for sect in ("self_s", "calls"):
            for k, v in snap[sect].items():
                out[sect][k] = out[sect].get(k, 0) + v
        _add_counters(out["counters"], snap["counters"])
    return out


class Tracer:
    """Aggregated spans: self seconds, calls and counters per span name."""

    def __init__(self):
        self.stack = []
        self.reset()

    def reset(self):
        self.self_s = {name: 0.0 for name in SPAN_NAMES}
        self.calls = {name: 0 for name in SPAN_NAMES}
        self.counters = {}

    def count(self, values):
        _add_counters(self.counters, values)

    def wrap(self, fn, name, counter):
        stack = self.stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                self.self_s[name] += dt - child
                self.calls[name] += 1
                if stack:
                    stack[-1] += dt
            if counter is not None:
                self.count(counter(res, args, kwargs))
            return res

        traced.__wrapped__ = fn
        return traced

    def snapshot(self):
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counters": dict(self.counters)}


def _bigraded_modules():
    import bigraded
    for info in pkgutil.iter_modules(bigraded.__path__):
        importlib.import_module("bigraded." + info.name)
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and
            (name == "bigraded" or name.startswith("bigraded."))]


def install(tracer):
    """Wrap every traced function wherever a bigraded namespace holds it;
    returns a function that puts the originals back."""
    mods = _bigraded_modules()
    undo = []
    for modname, fname, span, counter in TRACED:
        orig = getattr(importlib.import_module("bigraded." + modname), fname)
        wrapped = tracer.wrap(orig, span, counter)
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)
                    undo.append((mod, attr, orig))

    def uninstall():
        for mod, attr, orig in reversed(undo):
            setattr(mod, attr, orig)
    return uninstall
