"""Benchmark of bigraded: three workloads, every answer checked.

    python3 perfbench/run.py --workload {lc-grid,resolve,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it summarise the run.  With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones from a traced run.
Exit code 0 when a result was printed, 2 when the run could not be made
(for instance, no ``src/bigraded`` next to this directory).  See
perfbench/README.md for the workloads and the metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import check
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
SETUP_REPEATS = 3
# every child is stopped by this time, so a run ends within 180 s
DEADLINE = time.time() + 170


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _run_child(cmd):
    """Run a child in its own process group, so that on time-out it and
    everything it started are stopped; returns (exit code, out, err)."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, DEADLINE - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("%s ran past the time limit" % " ".join(cmd[1:3]))
    return proc.returncode, out, err


def worker(*args):
    """Run one worker phase; returns its last stdout line parsed as JSON."""
    code, out, err = _run_child([sys.executable, os.path.join(HERE,
                                                               "worker.py")]
                                + [str(a) for a in args])
    if code != 0:
        raise BenchError("worker %s failed (exit %d):\n%s" % (
            args[0], code, err[-3000:]))
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def _source_hash(workload, seed):
    """Key of the stored references: the inputs, the code that computes
    the references, and the program's sources."""
    h = hashlib.sha256()
    h.update(json.dumps([workload, seed, inputs.workload(workload, seed)],
                        sort_keys=True).encode())
    files = [os.path.join(HERE, f) for f in ("reference.py", "worker.py",
                                             "inputs.py")]
    pkg = os.path.join(SRC, "bigraded")
    files += sorted(os.path.join(pkg, f) for f in os.listdir(pkg)
                    if f.endswith(".py"))
    for path in files:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def references(workload, seed):
    """References for this seed, computed once and stored in the work
    directory; never inside a timed region."""
    path = os.path.join(WORK, "refs", "%s-%d-%s.json" % (
        workload, seed, _source_hash(workload, seed)))
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp%d" % os.getpid()
        worker("refs", workload, seed, tmp)
        os.replace(tmp, path)
    with open(path) as fh:
        return json.load(fh)


def setup_seconds(workload, seed):
    """Median set-up time over several fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        if workload == "cli":
            t0 = time.perf_counter()
            code, _out, err = _run_child([sys.executable, "-c",
                                          "import bigraded.cli"])
            times.append(time.perf_counter() - t0)
            if code != 0:
                raise BenchError("import bigraded.cli failed:\n" + err)
        else:
            times.append(worker("setup", workload, seed)["setup_s"])
    return statistics.median(times)

# ----------------------------------------------------------------- metrics


def tail(latencies, per_pass):
    """(value, percentile): the latency at percentile 1 - 10/per_pass of
    the pooled operations, so that at least ten operations of every pass
    lie beyond it; interpolated, and the same percentile however many
    passes fit in the run."""
    xs = sorted(latencies)
    q = max(0.0, 1.0 - 10.0 / per_pass)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), 100.0 * q


def evaluate(workload, seed, refs, passes):
    """Statuses of every operation of every pass, and the digests."""
    _specs, ops = inputs.workload(workload, seed)
    results, digests = [], []
    for p in passes:
        digests.append(check.digest(workload, p["ops"]))
        for k, rec in enumerate(p["ops"]):
            if workload == "lc-grid":
                status, why = check.check_lc(rec, refs)
            elif workload == "resolve":
                status, why = check.check_resolve(rec, refs)
            else:
                status, why = check.check_cli(ops[k][0], rec["answer"],
                                              refs["calls"][k])
            results.append((p["traced"], rec, status, why))
    return results, digests


# per-layer metric -> (section of a span snapshot, span or counter name)
LAYER_METRICS = [
    ("groebner.mult_matrix_s", "self_s", "groebner.mult_matrix"),
    ("groebner.mult_matrix_calls", "calls", "groebner.mult_matrix"),
    ("groebner.mult_matrix_nnz", "counters", "groebner.mult_matrix_nnz"),
    ("groebner.syz_s", "self_s", "groebner.syz"),
    ("groebner.syz_calls", "calls", "groebner.syz"),
    ("groebner.gb_s", "self_s", "groebner.gb"),
    ("groebner.gb_calls", "calls", "groebner.gb"),
    ("groebner.graded_piece_s", "self_s", "groebner.graded_piece"),
    ("groebner.graded_piece_calls", "calls", "groebner.graded_piece"),
    ("groebner.saturate_s", "self_s", "groebner.saturate"),
    ("groebner.saturate_calls", "calls", "groebner.saturate"),
    ("linalg.rank_s", "self_s", "linalg.rank"),
    ("linalg.rank_calls", "calls", "linalg.rank"),
    ("linalg.rank_nnz", "counters", "linalg.rank_nnz"),
    ("linalg.rank_max_dim", "counters", "linalg.rank_max_dim"),
    ("resolutions.mfr_s", "self_s", "resolutions.mfr"),
    ("resolutions.mfr_calls", "calls", "resolutions.mfr"),
    ("resolutions.betti_total", "counters", "resolutions.betti_total"),
    ("resolutions.power_complex_s", "self_s", "resolutions.power_complex"),
    ("resolutions.power_complex_calls", "calls",
     "resolutions.power_complex"),
    ("localcoh.cells", "calls", "localcoh.cell"),
    ("localcoh.cell_s", "self_s", "localcoh.cell"),
    ("localcoh.ext_calls", "calls", "localcoh.ext"),
    ("localcoh.ext_s", "self_s", "localcoh.ext"),
    ("localcoh.nu_sum", "counters", "localcoh.nu_sum"),
    ("localcoh.nu_max_used", "counters", "localcoh.nu_max_used"),
    ("regularity.weak_s", "self_s", "regularity.weak"),
    ("regularity.weak_calls", "calls", "regularity.weak"),
    ("regularity.strong_s", "self_s", "regularity.strong"),
    ("regularity.mult_surj_s", "self_s", "regularity.mult_surj"),
    ("regularity.mult_surj_calls", "calls", "regularity.mult_surj"),
    ("cli.parse_s", "self_s", "cli.parse"),
    ("cli.parse_calls", "calls", "cli.parse"),
]


def layer_metrics(passes, untraced_wall):
    """Per-layer metrics: medians over the traced passes of per-pass
    self times, call counts and counters."""
    traced = [p for p in passes if p["traced"]]

    def med(get):
        return statistics.median(get(p) for p in traced)

    out = {}
    for metric, section, key in LAYER_METRICS:
        out[metric] = (med(lambda p: p["stats"][section].get(key, 0)),
                       "s" if section == "self_s" else "count")
    traced_wall = med(lambda p: p["wall_s"])
    out["trace.overhead_share"] = (traced_wall / untraced_wall - 1.0,
                                   "ratio")
    out["trace.span_coverage"] = (
        med(lambda p: sum(p["stats"]["self_s"].values()) / p["wall_s"]),
        "ratio")
    return out


def run(args):
    if not os.path.isdir(os.path.join(SRC, "bigraded")):
        raise BenchError("no bigraded sources under %s" % SRC)
    t0 = time.perf_counter()
    refs = references(args.workload, args.seed)
    t1 = time.perf_counter()
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    t2 = time.perf_counter()
    workdir = os.path.join(WORK, "%s-%d-%d" % (args.workload, args.seed,
                                               os.getpid()))
    try:
        os.makedirs(workdir)
        timed = worker("timed", args.workload, args.seed, workdir,
                       args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    phases = (t1 - t0, t2 - t1, time.perf_counter() - t2)
    passes = timed["passes"]
    results, digests = evaluate(args.workload, args.seed, refs, passes)

    counts = {s: 0 for s in check.ORDER}
    for _traced, _rec, status, _why in results:
        counts[status] += 1
    attempted = len(results)
    same_digest = len(set(digests)) == 1
    correct = counts["fail"] == 0 and same_digest

    plain = [p for p in passes if not p["traced"]]
    lat = [rec["latency_s"] for p in plain for rec in p["ops"]]
    tail_s, tail_pct = tail(lat, len(plain[0]["ops"]))
    wall = statistics.median(p["wall_s"] for p in plain)
    n_plain = len(lat)
    plain_res = [r for r in results if not r[0]]
    failed_plain = sum(1 for r in plain_res
                       if r[2] in ("known-defect", "fail"))
    undecided_plain = sum(1 for r in plain_res if r[2] == "undecided")

    print("workload %s seed %d: %d passes (%d traced), %d operations per pass"
          % (args.workload, args.seed, len(passes),
             sum(p["traced"] for p in passes), len(passes[0]["ops"])))
    print("phases: references %.1f s, set-up %.1f s, timed %.1f s"
          % phases)
    print("answer digest %s (%s across passes)" % (
        digests[0], "identical" if same_digest else "DIFFERENT"))
    print("statuses: " + ", ".join("%s %d" % kv for kv in counts.items()))
    print("failed_share %.4f (known-defect and fail over attempted), "
          "undecided_share %.4f" % (failed_plain / n_plain,
                                    undecided_plain / n_plain))
    print("op_tail_ms is the p%.1f latency of %d operations" % (tail_pct,
                                                               n_plain))
    if args.workload == "cli":
        print("mult answers are pinned, not verified")
    shown = set()
    for _traced, rec, status, why in results:
        if status in ("known-defect", "fail") and rec["key"] not in shown:
            shown.add(rec["key"])
            print("%s %s: %s" % (status, rec["key"], why))

    if args.trace:
        metrics = layer_metrics(passes, wall)
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "cpu_s": (statistics.median(p["cpu_s"] for p in plain), "s"),
            "op_p50_ms": (statistics.median(lat) * 1000.0, "ms"),
            "op_tail_ms": (tail_s * 1000.0, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
            "ok_share": (1.0 - failed_plain / n_plain, "ratio"),
            "decided_share": (1.0 - undecided_plain / n_plain, "ratio"),
        }
    result = {"correct": correct, "attempted": attempted,
              "failed": counts["fail"],
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result, sort_keys=True))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        return run(args)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
