"""Tests of the benchmark itself: reference routes, the correctness gate,
the tracing wrappers and the answer digest.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import check  # noqa: E402
import inputs  # noqa: E402
import reference as ref  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

REPRODUCER = inputs._spec("reproducer", 1, 1, inputs.PRIME, "quotient",
                          [{(2, 0, 0, 0): 1}, {(0, 0, 2, 1): 1}])


def _minors():
    return inputs.minors_spec(inputs._rng(20260816, "minors"))


def _cell(spec, kind, i, d):
    M = ref.build(spec)
    counts = ref.resolution_reference(M)["betti"]
    return ref.cell_reference(M, counts, kind, i, d)


def test_reference_route_on_known_defect_cells():
    repro = _cell(REPRODUCER, "y", 1, (0, -3))
    assert repro["dim"] == 3 and repro["consistent"]
    minors = _cell(_minors(), "irr", 2, (-2, 0))
    assert minors["dim"] == 7 and minors["consistent"]
    assert minors["nu0"] == 4


def test_gate_fails_corrupted_answers_but_not_known_defects():
    spec = _minors()
    r = _cell(spec, "irr", 2, (-2, 0))
    engine = ref.engine_cell(ref.build(spec), "irr", 2, (-2, 0))
    # at this commit the engine certifies 0 at nu=1 < nu0: the known class
    assert check.cell_status(engine, r)[0] in ("known-defect", "ok")
    if engine["dim"] != r["dim"]:
        assert check.cell_status(engine, r)[0] == "known-defect"
    right = dict(engine, dim=r["dim"], stabilized_at=r["nu0"])
    assert check.cell_status(right, r)[0] == "ok"
    wrong_late = dict(right, dim=r["dim"] + 1)
    assert check.cell_status(wrong_late, r)[0] == "fail"
    assert check.cell_status({"error": "boom"}, r)[0] == "fail"

    specs, names = inputs.resolve(3)
    name = names[0]
    refs = {"modules": {name: ref.resolution_reference(ref.build(
        specs[name]))}}
    refs["modules"][name]["strong"] = [
        [p, pp] + list(ref.strong_verdict(refs["modules"][name]["betti"],
                                          p, pp))
        for p, pp in inputs.STRONG_POINTS]
    rec = worker.resolve_pass(specs, [name])[0]
    assert check.check_resolve(rec, refs)[0] == "ok"
    bad = json.loads(json.dumps(rec))
    bad["answer"]["frontier"][0][0] += 1
    assert check.check_resolve(bad, refs)[0] == "fail"
    bad = json.loads(json.dumps(rec))
    bad["answer"]["strong"][0][2] = not bad["answer"]["strong"][0][2]
    assert check.check_resolve(bad, refs)[0] == "fail"


def test_gate_on_command_line_verdicts():
    specs, _calls = inputs.cli(5)
    argv = ["reg-weak", "gen/minors.txt", "--p", "-1", "--pp", "1", "--json"]
    exp = worker.cli_expectation(ref, specs, argv, "gen/minors.txt")
    wit = [[i, d, dim] for i, d, dim in exp["witnesses"]]
    right = {"ring": {}, "verdict": {"value": not wit, "witnesses": wit,
                                     "undecided": [], "method": "",
                                     "certified": True}}
    answer = {"exit": 0 if not wit else 1, "stdout": json.dumps(right),
              "stderr_lines": 0}
    assert check.check_cli(argv, answer, exp)[0] == "ok"
    # the engine's own verdict at this commit: true, missing H^2 at (-2,0)
    engine = {"ring": {}, "verdict": {"value": True, "witnesses": [],
                                      "undecided": [], "method": "",
                                      "certified": True}}
    answer = {"exit": 0, "stdout": json.dumps(engine), "stderr_lines": 0}
    assert check.check_cli(argv, answer, exp)[0] == "known-defect"
    # a witness the reference does not have is outside the class
    forged = json.loads(json.dumps(right))
    forged["verdict"]["witnesses"].append([1, [-1, 1], 5])
    answer = {"exit": 1, "stdout": json.dumps(forged), "stderr_lines": 0}
    assert check.check_cli(argv, answer, exp)[0] == "fail"
    # a wrong exit code fails even with the right answer
    answer = {"exit": 0, "stdout": json.dumps(right), "stderr_lines": 0}
    assert check.check_cli(argv, answer, exp)[0] == "fail"


def test_wrappers_leave_answers_unchanged():
    specs, cells = inputs.lc_grid(2)
    cells = [c for c in cells if c[0] in ("torsion", "free")][:12]
    names = inputs.resolve(2)[1][:6]
    rspecs = inputs.resolve(2)[0]
    plain = (worker.lc_pass(specs, cells), worker.resolve_pass(rspecs, names))
    tracer = spans.Tracer()
    import bigraded.localcoh as localcoh
    orig = localcoh.local_cohomology_dim
    uninstall = spans.install(tracer)
    try:
        assert localcoh.local_cohomology_dim is not orig
        traced = (worker.lc_pass(specs, cells),
                  worker.resolve_pass(rspecs, names))
    finally:
        uninstall()
    assert localcoh.local_cohomology_dim is orig
    assert tracer.calls["localcoh.cell"] == len(cells)
    assert tracer.calls["resolutions.mfr"] == len(names)
    for a, b, wl in zip(plain, traced, ("lc-grid", "resolve")):
        assert [r["answer"] for r in a] == [r["answer"] for r in b]
        assert check.digest(wl, a) == check.digest(wl, b)


def test_digest_does_not_depend_on_hash_seed():
    code = ("import sys; sys.path[:0] = [%r, %r]\n"
            "import check, inputs, worker\n"
            "specs, names = inputs.resolve(4)\n"
            "print(check.digest('resolve', worker.resolve_pass(specs, "
            "names[:8])))\n" % (HERE, os.path.join(ROOT, "src")))
    out = set()
    for hash_seed in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        out.add(proc.stdout.strip())
    assert len(out) == 1


def test_inputs_are_a_function_of_the_seed():
    for wl in inputs.WORKLOADS:
        assert inputs.workload(wl, 9) == inputs.workload(wl, 9)
        assert inputs.workload(wl, 9) != inputs.workload(wl, 10)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "resolve", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_metric_names_match_benchmark_json():
    import run
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    layers = [m for m, _section, _key in run.LAYER_METRICS]
    layers += ["trace.overhead_share", "trace.span_coverage"]
    assert [m["name"] for m in spec["per_layer"]] == layers
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
