import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bigraded.fields import QQ, PrimeField
from bigraded.linalg import rank_entries
from helpers import min_scan_rank

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

GF7, GF32003 = PrimeField(7), PrimeField(32003)
FIELDS = [GF7, GF32003, QQ]

IMPORT_PROBE = """
import sys
import bigraded, bigraded.cli
assert "numpy" not in sys.modules, "importing bigraded loaded numpy"
from bigraded.fields import QQ, PrimeField
from bigraded.linalg import rank_entries
F = PrimeField(32003)
# [[1, 2], [2, 4]] has rank 1 mod p; a third row e_1 makes it 2
assert rank_entries([(0, 0, 1), (0, 1, 2), (1, 0, 2), (1, 1, 4)], 2, 2, F) == 1
assert rank_entries([(0, 0, 1), (0, 1, 2), (1, 0, 2), (1, 1, 4),
                     (2, 1, 1)], 3, 2, F) == 2
assert rank_entries([(0, 0, QQ.of(1)), (1, 0, QQ.of(1) / 2),
                     (1, 1, QQ.of(3))], 2, 2, QQ) == 2
assert bigraded.cli.main(["lc", sys.argv[1], "--ideal", "irr", "--i", "2",
                          "--window", "-2:0,-2:0"]) == 0
assert "numpy" not in sys.modules, "a rank or an lc run loaded numpy"
print("ok")
"""


def test_numpy_stays_unloaded_through_ranks_and_lc():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    doc = ROOT / "demos" / "inputs" / "products_ideal.txt"
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(doc)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().endswith("ok")

# ------------------------------------------------- dense elimination oracle


def dense_rank(entries, nrows, ncols, p):
    """Rank by textbook dense Gaussian elimination, over Fraction when p
    is 0 and over ints mod p otherwise."""
    if p:
        A = [[0] * ncols for _ in range(nrows)]
        for i, j, c in entries:
            A[i][j] = (A[i][j] + c) % p
    else:
        A = [[Fraction(0)] * ncols for _ in range(nrows)]
        for i, j, c in entries:
            A[i][j] += c
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = pow(A[r][c], -1, p) if p else 1 / A[r][c]
        for i in range(r + 1, nrows):
            f = A[i][c] * inv
            if f != 0:
                A[i] = [a - f * b for a, b in zip(A[i], A[r])]
                if p:
                    A[i] = [a % p for a in A[i]]
        r += 1
    return r


def _coeff(rng, field):
    if field.char:
        return rng.randrange(1, field.char)
    return Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5))


def random_entries(rng, field, nrows, ncols, density):
    return [(i, j, _coeff(rng, field)) for i in range(nrows)
            for j in range(ncols) if rng.random() < density]


def check(entries, nrows, ncols, field, expect=None):
    got = rank_entries(entries, nrows, ncols, field)
    assert got == dense_rank(entries, nrows, ncols, field.char)
    if expect is not None:
        assert got == expect
    return got


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_random_sparse_against_dense_oracle(field):
    rng = random.Random(7 + field.char)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 14), rng.randint(1, 14)
        entries = random_entries(rng, field, nrows, ncols,
                                 rng.choice([0.1, 0.25, 0.5]))
        rng.shuffle(entries)
        check(entries, nrows, ncols, field)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_repeated_triples_and_stored_zeros(field):
    rng = random.Random(11 + field.char)
    for _ in range(30):
        nrows, ncols = rng.randint(2, 10), rng.randint(2, 10)
        entries = random_entries(rng, field, nrows, ncols, 0.3)
        # split some entries into two summands, cancel others to zero,
        # and store explicit zeros
        noisy = []
        for i, j, c in entries:
            roll = rng.random()
            if roll < 0.3:
                a = _coeff(rng, field)
                noisy += [(i, j, a), (i, j, field.sub(c, a))]
            elif roll < 0.5:
                noisy += [(i, j, c), (i, j, field.neg(c))]
            else:
                noisy.append((i, j, c))
        noisy += [(rng.randrange(nrows), rng.randrange(ncols), field.zero)
                  for _ in range(3)]
        rng.shuffle(noisy)
        check(noisy, nrows, ncols, field)
    # a row whose triples all cancel is a zero row
    c = _coeff(rng, field)
    check([(0, 0, c), (0, 0, field.neg(c)), (0, 1, field.zero)], 1, 2, field,
          expect=0)
    check([(0, 0, c), (1, 0, c), (1, 0, field.neg(c))], 2, 1, field,
          expect=1)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_empty_and_zero_rows(field):
    check([], 0, 0, field, expect=0)
    check([], 5, 3, field, expect=0)
    check([(2, 1, field.zero)], 4, 4, field, expect=0)
    one = field.one
    # rows 1 and 3 are all zero
    check([(0, 0, one), (2, 0, one), (2, 2, one), (4, 1, one)], 5, 3, field,
          expect=3)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_block_diagonal(field):
    rng = random.Random(13 + field.char)
    for _ in range(10):
        entries, r0, c0, total = [], 0, 0, 0
        for _b in range(rng.randint(2, 5)):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            block = random_entries(rng, field, nr, nc, 0.5)
            total += dense_rank(block, nr, nc, field.char)
            entries += [(r0 + i, c0 + j, c) for i, j, c in block]
            r0, c0 = r0 + nr, c0 + nc
        # interleave the blocks' rows and columns
        rperm = list(range(r0))
        cperm = list(range(c0))
        rng.shuffle(rperm)
        rng.shuffle(cperm)
        entries = [(rperm[i], cperm[j], c) for i, j, c in entries]
        check(entries, r0, c0, field, expect=total)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_low_rank_products(field):
    rng = random.Random(17 + field.char)
    for _ in range(12):
        k = rng.randint(1, 4)
        nrows, ncols = rng.randint(k, 12), rng.randint(k, 12)
        # A is nrows x k and B is k x ncols, each holding a k x k identity
        # block, so A*B has rank exactly k
        ra = rng.sample(range(nrows), k)
        cb = rng.sample(range(ncols), k)
        A = [[field.zero] * k for _ in range(nrows)]
        B = [[field.zero] * ncols for _ in range(k)]
        for t in range(k):
            A[ra[t]][t] = field.one
            B[t][cb[t]] = field.one
        for i in range(nrows):
            for t in range(k):
                if i not in ra and rng.random() < 0.6:
                    A[i][t] = _coeff(rng, field)
        for t in range(k):
            for j in range(ncols):
                if j not in cb and rng.random() < 0.6:
                    B[t][j] = _coeff(rng, field)
        entries = []
        for i in range(nrows):
            for j in range(ncols):
                v = field.zero
                for t in range(k):
                    v = field.add(v, field.mul(A[i][t], B[t][j]))
                if v != 0:
                    entries.append((i, j, v))
        check(entries, nrows, ncols, field, expect=k)


def test_against_sympy_over_rationals():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(19)
    for _ in range(15):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        entries = random_entries(rng, QQ, nrows, ncols, 0.4)
        M = sympy.zeros(nrows, ncols)
        for i, j, c in entries:
            M[i, j] += sympy.Rational(c.numerator, c.denominator)
        assert rank_entries(entries, nrows, ncols, QQ) == M.rank()

# ------------------------------------- unreduced representatives over GF(p)
# The kernel takes any int representative of a GF(p) element (block_matrix
# passes unreduced products) and reduces a value only where it reads a
# pivot entry, so these matrices exercise values outside [0, p) and sums
# that are zero only modulo p.

PRIMES = [GF7, GF32003]


def _representative(rng, c, p):
    """Another int representative of c mod p: negative, at least p, or a
    product of two reduced elements as block_matrix emits."""
    roll = rng.randrange(3)
    if roll == 0:
        return c - p * rng.randint(1, 3)
    if roll == 1:
        return c + p * rng.randint(1, 10 ** 6)
    a = rng.randrange(1, p)
    return a * (c * pow(a, -1, p) % p)


def _relabel(rng, entries, nrows, ncols):
    rperm, cperm = list(range(nrows)), list(range(ncols))
    rng.shuffle(rperm)
    rng.shuffle(cperm)
    return [(rperm[i], cperm[j], c) for i, j, c in entries]


@pytest.mark.parametrize("field", PRIMES, ids=repr)
def test_unreduced_representatives(field):
    rng = random.Random(23 + field.char)
    p = field.char
    for _ in range(40):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        entries = random_entries(rng, field, nrows, ncols,
                                 rng.choice([0.2, 0.4, 0.7]))
        rank = dense_rank(entries, nrows, ncols, p)
        raw = [(i, j, _representative(rng, c, p)) for i, j, c in entries]
        check(raw, nrows, ncols, field, expect=rank)


@pytest.mark.parametrize("field", PRIMES, ids=repr)
def test_triples_summing_to_a_multiple_of_p(field):
    p = field.char
    # a lone column whose triples sum to p is a zero column
    check([(0, 0, 3), (0, 0, p - 3)], 1, 1, field, expect=0)
    check([(0, 0, 2 * p + 1), (0, 0, -1), (1, 0, -p)], 2, 1, field,
          expect=0)
    # the cancelled entry is the pivot candidate of its row
    check([(0, 0, p - 1), (0, 0, 1), (0, 1, 5), (1, 1, 5 * p + 2)], 2, 2,
          field, expect=1)
    rng = random.Random(29 + p)
    for _ in range(30):
        nrows, ncols = rng.randint(1, 10), rng.randint(1, 10)
        entries = random_entries(rng, field, nrows, ncols, 0.4)
        rank = dense_rank(entries, nrows, ncols, p)
        noisy = list(entries)
        for _k in range(rng.randint(1, 6)):
            # two or three summands adding up to a nonzero multiple of p
            i, j = rng.randrange(nrows), rng.randrange(ncols)
            parts = [rng.randint(-3 * p, 3 * p)
                     for _t in range(rng.randint(1, 2))]
            total = p * rng.choice([-2, -1, 1, 3])
            noisy += [(i, j, c) for c in parts] + [(i, j, total - sum(parts))]
        rng.shuffle(noisy)
        check(noisy, nrows, ncols, field, expect=rank)


@pytest.mark.parametrize("field", PRIMES, ids=repr)
def test_rank_is_invariant_under_relabeling(field):
    rng = random.Random(31 + field.char)
    p = field.char
    for _ in range(20):
        nrows, ncols = rng.randint(2, 12), rng.randint(2, 12)
        entries = random_entries(rng, field, nrows, ncols, 0.3)
        entries += [(i, j, p * rng.randint(1, 4)) for i, j, _c in entries[:3]]
        raw = [(i, j, _representative(rng, c, p)) for i, j, c in entries]
        rank = check(raw, nrows, ncols, field)
        for _k in range(3):
            check(_relabel(rng, raw, nrows, ncols), nrows, ncols, field,
                  expect=rank)


def test_rationals_accept_int_representatives():
    rng = random.Random(37)
    for _ in range(15):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        entries = [(i, j, rng.randint(-9, 9)) for i in range(nrows)
                   for j in range(ncols) if rng.random() < 0.5]
        check(entries, nrows, ncols, QQ)
        check([(i, j, Fraction(c)) for i, j, c in entries], nrows, ncols, QQ)


# The heap-ordered pivot search against the min-scan kernel it replaced.
# A product of two sparse factors, one triple per summand, gives low rank,
# fill-in and repeated (row, col) pairs; on top go stored zeros, entries
# that are nonzero multiples of p, and rows and columns left empty.


def _low_rank_entries(rng, field, nrows, ncols):
    k = rng.randint(1, max(1, min(nrows, ncols)))
    rows = rng.sample(range(nrows), rng.randint(0, nrows))
    cols = rng.sample(range(ncols), rng.randint(0, ncols))
    left = [[_coeff(rng, field) if rng.random() < 0.4 else 0
             for _ in range(k)] for _ in rows]
    right = [[_coeff(rng, field) if rng.random() < 0.4 else 0
              for _ in cols] for _ in range(k)]
    entries = [(i, j, a[t] * right[t][jj])
               for a, i in zip(left, rows) for jj, j in enumerate(cols)
               for t in range(k) if a[t] and right[t][jj]]
    for _ in range(rng.randint(0, 4)):
        if rows and cols:
            i, j = rng.choice(rows), rng.choice(cols)
            entries.append((i, j, field.zero))
            entries.append((i, j, field.char * rng.randint(1, 5)))
    rng.shuffle(entries)
    return entries


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_heap_rank_matches_min_scan_oracle(field):
    rng = random.Random(41 + field.char)
    for _ in range(120):
        nrows, ncols = rng.randint(1, 25), rng.randint(1, 25)
        entries = _low_rank_entries(rng, field, nrows, ncols)
        entries += random_entries(rng, field, nrows, ncols,
                                  rng.choice([0.0, 0.02, 0.08]))
        want = min_scan_rank(entries, nrows, ncols, field)
        assert rank_entries(entries, nrows, ncols, field) == want
    assert rank_entries([], 3, 4, field) == min_scan_rank([], 3, 4, field) == 0
