import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

IMPORT_PROBE = """
import sys
import bigraded, bigraded.cli
assert "numpy" not in sys.modules, "importing bigraded loaded numpy"
from bigraded.fields import PrimeField
from bigraded.linalg import rank_entries
F = PrimeField(32003)
# [[1, 2], [2, 4]] has rank 1 mod p; a third row e_1 makes it 2
assert rank_entries([(0, 0, 1), (0, 1, 2), (1, 0, 2), (1, 1, 4)], 2, 2, F) == 1
assert rank_entries([(0, 0, 1), (0, 1, 2), (1, 0, 2), (1, 1, 4),
                     (2, 1, 1)], 3, 2, F) == 2
assert "numpy" in sys.modules
print("ok")
"""


def test_import_leaves_numpy_unloaded_until_a_modp_rank():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
