"""What importing the package and running one subcommand loads.

Each case runs in a fresh interpreter and reads the ``bigraded`` entries
of ``sys.modules``: the package root and the command line load only the
parse layer, and each subcommand adds the layers it runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bigraded

ROOT = Path(__file__).resolve().parents[1]
PRODUCTS = str(ROOT / "demos" / "inputs" / "products_ideal.txt")

PARSE_LAYER = {"cli", "errors", "fields", "modules", "ring"}
RESOLUTION_LAYER = PARSE_LAYER | {"groebner", "linalg", "regions",
                                  "regularity", "resolutions"}

PROBE = """
import json, sys
import bigraded.cli
argv = json.loads(sys.argv[1])
code = None
if argv is not None:
    try:
        code = bigraded.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(m[len("bigraded."):] for m in sys.modules
                               if m.startswith("bigraded."))]))
"""


def loaded_after(argv):
    """(exit code, bigraded submodules loaded) after ``import bigraded.cli``
    and, unless argv is None, ``main(argv)``, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)],
                         env=env, capture_output=True, text=True, timeout=60,
                         cwd=str(ROOT))
    assert out.returncode == 0, out.stderr
    code, mods = json.loads(out.stdout.splitlines()[-1])
    return code, set(mods)


WINDOW = ["--window", "0:1,0:1"]


@pytest.mark.parametrize("argv, code, want", [
    (None, None, PARSE_LAYER),
    (["region", "--kind", "Reg", "--i", "0"] + WINDOW, 0,
     PARSE_LAYER | {"regions"}),
    (["sheaf", "--m", "1", "--n", "1", "--a", "0", "--b", "0"] + WINDOW, 0,
     PARSE_LAYER | {"regions", "sheaf"}),
    (["betti", PRODUCTS], 0, RESOLUTION_LAYER),
    (["frontier", PRODUCTS], 0, RESOLUTION_LAYER),
    (["reg-strong", PRODUCTS, "--p", "1", "--pp", "1"], 0, RESOLUTION_LAYER),
    (["mult", PRODUCTS, "--from", "1,1", "--step", "1,0"], 0,
     RESOLUTION_LAYER),
    (["lc", PRODUCTS, "--ideal", "irr", "--i", "2"] + WINDOW, 0,
     RESOLUTION_LAYER - {"regularity"} | {"localcoh", "sheaf"}),
    (["reg-weak", PRODUCTS, "--p", "1", "--pp", "1"], 0,
     RESOLUTION_LAYER | {"localcoh", "sheaf"}),
    (["verify", PRODUCTS], 0, RESOLUTION_LAYER | {"localcoh", "sheaf"}),
], ids=["import", "region", "sheaf", "betti", "frontier", "reg-strong",
        "mult", "lc", "reg-weak", "verify"])
def test_each_subcommand_loads_only_its_layers(argv, code, want):
    assert loaded_after(argv) == (code, want)


def test_malformed_document_stops_at_the_parse_layer(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("ring field=32003 m=1 n=1\nideal: x0*y0; x0*\n")
    assert loaded_after(["betti", str(path)]) == (3, PARSE_LAYER)


def test_package_root_imports_nothing_until_a_name_is_used():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = ("import sys, bigraded; "
            "print(sorted(m for m in sys.modules if m.startswith('bigraded')))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "['bigraded']", out.stderr


def test_star_import_binds_every_exported_name():
    ns = {}
    exec("from bigraded import *", ns)
    assert set(bigraded.__all__) <= set(ns)
    for name in bigraded.__all__:
        assert ns[name] is getattr(bigraded, name)
    assert set(bigraded.__all__) <= set(dir(bigraded))
    from bigraded.localcoh import lc_table
    assert bigraded.lc_table is lc_table
    with pytest.raises(AttributeError):
        bigraded.no_such_name


# PROBE reads its argv with json, so this probe reports without it
JSON_PROBE = """
import sys
import bigraded.cli
code = bigraded.cli.main(sys.argv[1:])
print(code, "json" in sys.modules)
"""


@pytest.mark.parametrize("flags, loaded", [([], False), (["--json"], True)])
def test_json_is_imported_only_under_the_json_flag(flags, loaded):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", JSON_PROBE, "betti", PRODUCTS] + flags,
        env=env, capture_output=True, text=True, timeout=60, cwd=str(ROOT))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "0 %s" % loaded


def test_every_error_class_is_exported_from_the_package_root():
    from bigraded import errors
    classes = [cls for cls in vars(errors).values() if isinstance(cls, type)
               and issubclass(cls, errors.BigradedError)]
    assert len(classes) > 1
    for cls in classes:
        assert getattr(bigraded, cls.__name__) is cls
        assert cls.__name__ in bigraded.__all__
