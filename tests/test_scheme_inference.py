"""Scheme inference: totality on inputs with large entries, planted spectra,
and a corpus of results recorded from the divisor-enumeration implementation
that the lifted modular roots replaced."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import constructions
from fuchsmc import cli, schlesinger
from fuchsmc.errors import SchemeUnavailableError
from fuchsmc.generate import rigid_family_realization
from fuchsmc.linalg import ExactMatrix, inverse
from fuchsmc.okubo import onf_from_scf
from fuchsmc.scalars import gr
from fuchsmc.serialization import save_system
from fuchsmc.schlesinger import SchlesingerTuple, infer_scheme, verify_scheme
from fuchsmc.spectral import canonical_column

E = ExactMatrix.from_rows
SRC = str(Path(schlesinger.__file__).resolve().parents[1])


def jordan_sum(blocks):
    """The block-diagonal sum of Jordan blocks J_size(label)."""
    n = sum(size for _, size in blocks)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for label, size in blocks:
        for i in range(size):
            rows[at + i][at + i] = label
            if i + 1 < size:
                rows[at + i][at + i + 1] = 1
        at += size
    return E(rows)


def weyr_column(blocks):
    """The canonical column of a Jordan sum: over a label lam, the nullity of
    (m - lam)^k rises by the number of its blocks of size >= k."""
    entries = []
    for label in {label for label, _ in blocks}:
        sizes = [size for other, size in blocks if other == label]
        entries += [(label, sum(s >= k for s in sizes)) for k in range(1, max(sizes) + 1)]
    return canonical_column(entries)


def unimodular(rng, n, spread=1):
    """A unit lower times a unit upper triangular integer matrix."""
    lower = [[rng.randint(-spread, spread) if j < i else int(i == j) for j in range(n)] for i in range(n)]
    upper = [[rng.randint(-spread, spread) if j > i else int(i == j) for j in range(n)] for i in range(n)]
    return E(lower) * E(upper)


def planted(rng, blocks, spread=1):
    g = unimodular(rng, sum(size for _, size in blocks), spread)
    return g * jordan_sum(blocks) * inverse(g)


def corpus_residue(rng):
    """A residue of order <= 5: a conjugated Jordan sum with Gaussian-rational
    labels of denominator <= 3, or a Gaussian matrix over a denominator <= 3."""
    n = rng.randint(1, 5)
    if rng.random() < 0.6:
        labels = [corpus_label(rng) for _ in range(rng.randint(1, n))]
        blocks, left = [], n
        while left:
            size = rng.randint(1, left)
            blocks.append((rng.choice(labels), size))
            left -= size
        return planted(rng, blocks)
    q = rng.randint(1, 3)
    return E([[corpus_entry(rng, q) for _ in range(n)] for _ in range(n)])


def corpus_entry(rng, q):
    return gr(Fraction(rng.randint(-3, 3), q), Fraction(rng.choice([0, rng.randint(-3, 3)]), q))


def corpus_label(rng):
    re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return gr(re, Fraction(rng.choice([0, 0, rng.randint(-3, 3)]), rng.randint(1, 3)))


def inferred(t):
    """infer_scheme(t)'s repr, or its error; an inferred scheme must pass the
    check that inference no longer runs, `verify_scheme`."""
    try:
        scheme = infer_scheme(t)
    except SchemeUnavailableError:
        return "SchemeUnavailableError"
    assert verify_scheme(t, scheme)
    return repr(scheme)


# -- totality: each input in a child process, under a one-second bound --------------


P1, P2 = 1_000_000_007, 1_000_000_009  # ten-digit primes
Q1, Q2 = 9_999_999_967, 1_000_000_021  # ten-digit primes
LIMIT = 1.0  # seconds per input

INFER_CHILD = """
import json, sys, time
from fuchsmc.errors import SchemeUnavailableError
from fuchsmc.linalg import ExactMatrix
from fuchsmc.scalars import gr
from fuchsmc.serialization import save_system
from fuchsmc.schlesinger import SchlesingerTuple, infer_scheme

seconds, results = [], []
for rows in json.load(sys.stdin):
    m = ExactMatrix.from_rows([[gr(x) for x in r] for r in rows])
    start = time.perf_counter()
    try:
        results.append(repr(infer_scheme(SchlesingerTuple([0], [m]))))
    except SchemeUnavailableError:
        results.append("SchemeUnavailableError")
    seconds.append(time.perf_counter() - start)
print(json.dumps({"seconds": seconds, "results": results}))
"""

REDUCE_CHILD = """
import contextlib, io, json, sys, time
from fuchsmc import cli

seconds, stdout = [], []
for path in json.load(sys.stdin):
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["reduce", "--input", path, "--mode", "katz"])
    seconds.append(time.perf_counter() - start)
    stdout.append([code, buf.getvalue()])
print(json.dumps({"seconds": seconds, "results": stdout}))
"""


def run_child(code, inputs):
    """Run `code` in a child process on the JSON `inputs` and return its
    results.  Each input is timed in the child and must take under LIMIT
    seconds; the child is killed after 30 s, so a hang fails the test
    instead of stalling the suite."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    try:
        out = subprocess.run(
            [sys.executable, "-c", code],
            input=json.dumps(inputs), env=env, capture_output=True, text=True, timeout=30,
        )
    except subprocess.TimeoutExpired:
        pytest.fail("the child process did not finish within 30 s")
    assert out.returncode == 0, out.stderr
    data = json.loads(out.stdout)
    assert max(data["seconds"]) < LIMIT, data["seconds"]
    return data["results"]


def infer_in_child(residues):
    rows = [[[str(m[i, j]) for j in range(m.ncols)] for i in range(m.nrows)] for m in residues]
    return run_child(INFER_CHILD, rows)


@pytest.mark.parametrize(
    "rows,want",
    [
        ([[P1]], [(P1, 1)]),
        ([[P1 * P2]], [(P1 * P2, 1)]),
        ([[0, -P1 * P2], [1, P1 + P2]], [(P1, 1), (P2, 1)]),  # eigenvalues P1 and P2
    ],
)
def test_large_integer_eigenvalues(rows, want):
    (got,) = infer_in_child([E(rows)])
    scheme = infer_scheme(SchlesingerTuple([0], [E(rows)]))
    assert got == repr(scheme)
    assert scheme.column_at(1) == canonical_column([(gr(x), k) for x, k in want])


def test_eigenvalues_with_ten_digit_denominators():
    blocks = [
        (gr(Fraction(3, Q1), Fraction(-5, Q1)), 2),
        (gr(Fraction(3, Q1), Fraction(-5, Q1)), 1),
        (gr(Fraction(-7, Q2), Fraction(1, 2)), 1),
    ]
    m = planted(random.Random(3), blocks)
    (got,) = infer_in_child([m])
    scheme = infer_scheme(SchlesingerTuple([0], [m]))
    assert got == repr(scheme)
    assert scheme.column_at(1) == weyr_column(blocks)


def test_three_by_three_entries_up_to_ten_thousand():
    rng = random.Random(11)
    plants = []
    for _ in range(5):
        labels = [gr(rng.randint(-3000, 3000)) for _ in range(2)]
        plants.append([(labels[0], rng.randint(1, 2)), (rng.choice(labels), 1)])
    residues = [planted(rng, blocks) for blocks in plants]
    unplanted = [E([[rng.randint(-(10**4), 10**4) for _ in range(3)] for _ in range(3)]) for _ in range(5)]
    assert all(abs(x.re) <= 10**4 for m in residues + unplanted for r in m.rows for x in r)
    got = infer_in_child(residues + unplanted)
    assert got[5:] == ["SchemeUnavailableError"] * 5
    for result, m, blocks in zip(got, residues, plants):
        scheme = infer_scheme(SchlesingerTuple([0], [m]))
        assert result == repr(scheme)
        assert scheme.column_at(1) == weyr_column(blocks)


def test_katz_reduction_without_a_scheme(tmp_path):
    t = rigid_family_realization(10)
    declared, bare = tmp_path / "declared.json", tmp_path / "bare.json"
    save_system(str(declared), t)
    save_system(str(bare), t.with_scheme(None))
    with_scheme, inferred_run = run_child(REDUCE_CHILD, [str(declared), str(bare)])
    assert with_scheme[0] == 0 and "reached rank 1" in with_scheme[1]
    assert inferred_run == with_scheme


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_yokoyama_reduction_without_a_scheme(tmp_path, capsys, n):
    t = rigid_family_realization(n)
    systems = [t, t.with_scheme(None), onf_from_scf(t).with_scheme(None)]
    outputs = []
    for k, system in enumerate(systems):
        path = str(tmp_path / f"{k}.json")
        save_system(path, system)
        assert cli.main(["reduce", "--input", path, "--mode", "yokoyama"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0].endswith("reached rank 1\n")
    assert outputs[1:] == outputs[:1] * 2


# -- the failing point is named ------------------------------------------------------


def test_cli_names_the_point_on_stderr_only(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"poles": ["0", "1/2"], "matrices": [[["1", "0"], ["0", "2"]], [["0", "1"], ["2", "0"]]]}))
    assert cli.main(["scheme", "--input", str(path), "--infer"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "residue at t_2 = 1/2" in err


# -- oracles: planted spectra and results recorded from the divisor enumerator --------


fractional_labels = st.builds(
    # an odd numerator over an even denominator: never an integer, so the
    # conjugated residue has a stored denominator > 1
    lambda a, b, d: gr(Fraction(2 * a + 1, 2 * d), Fraction(b, d)),
    st.integers(-6, 6),
    st.integers(-6, 6),
    st.integers(1, 9),
)


@st.composite
def jordan_sums(draw):
    pool = draw(st.lists(fractional_labels, min_size=1, max_size=3, unique=True))
    return draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 3)), min_size=1, max_size=3))


@given(jordan_sums(), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_planted_spectrum_is_inferred(blocks, seed):
    m = planted(random.Random(seed), blocks, spread=2)
    assert m.den > 1
    t = SchlesingerTuple([0], [m])
    scheme = infer_scheme(t)
    assert scheme.column_at(1) == weyr_column(blocks)
    assert scheme.column_at_infinity() == weyr_column([(-label, size) for label, size in blocks])
    assert verify_scheme(t, scheme)


# infer_scheme on SchlesingerTuple([0], [corpus_residue(rng)]), rng seeded
# with RECORDED_SEED, as the divisor enumerator returned it
RECORDED_SEED = 20261018
RECORDED = [
    'RiemannScheme(inf=[-1:2], 0=[1:2])',
    'SchemeUnavailableError',
    'SchemeUnavailableError',
    'RiemannScheme(inf=[-1/3:1 -1/3:1], 0=[1/3:1 1/3:1])',
    'RiemannScheme(inf=[1/3-2/3i:1 1/3-2/3i:1], 0=[-1/3+2/3i:1 -1/3+2/3i:1])',
    'RiemannScheme(inf=[-3+1/3i:1 -3+1/3i:1 -3+1/3i:1], 0=[3-1/3i:1 3-1/3i:1 3-1/3i:1])',
    'RiemannScheme(inf=[2:2 2:2 2:1], 0=[-2:2 -2:2 -2:1])',
    'SchemeUnavailableError',
    'RiemannScheme(inf=[-2i:3], 0=[2i:3])',
    'RiemannScheme(inf=[-1+3i:2 -1+3i:1 -1+3i:1], 0=[1-3i:2 1-3i:1 1-3i:1])',
    'RiemannScheme(inf=[-2-i:2 -2-i:1], 0=[2+i:2 2+i:1])',
    'SchemeUnavailableError',
    'SchemeUnavailableError',
    'RiemannScheme(inf=[3:2 3:2 3:1], 0=[-3:2 -3:2 -3:1])',
    'RiemannScheme(inf=[-1/3i:4 -1/3i:1], 0=[1/3i:4 1/3i:1])',
    'RiemannScheme(inf=[1:2 1:1], 0=[-1:2 -1:1])',
    'SchemeUnavailableError',
    'RiemannScheme(inf=[-1/3:1 3/2:1 3/2:1 3/2:1], 0=[-3/2:1 -3/2:1 -3/2:1 1/3:1])',
    'RiemannScheme(inf=[-2:1], 0=[2:1])',
    'SchemeUnavailableError',
    'RiemannScheme(inf=[1+2i:2], 0=[-1-2i:2])',
    'RiemannScheme(inf=[3:1], 0=[-3:1])',
    'SchemeUnavailableError',
    'RiemannScheme(inf=[-3/2:2 -3/2:1 -3/2:1 -3/2:1], 0=[3/2:2 3/2:1 3/2:1 3/2:1])',
    'RiemannScheme(inf=[2/3:1 1+3i:1], 0=[-1-3i:1 -2/3:1])',
    'RiemannScheme(inf=[-2/3:1 1-3/2i:1 1-3/2i:1 1-3/2i:1], 0=[-1+3/2i:1 -1+3/2i:1 -1+3/2i:1 2/3:1])',
    'SchemeUnavailableError',
    'RiemannScheme(inf=[-1:1 -1:1 -1:1 -1:1 -1:1], 0=[1:1 1:1 1:1 1:1 1:1])',
    'RiemannScheme(inf=[-4+3/2i:1], 0=[4-3/2i:1])',
    'RiemannScheme(inf=[-2-i:1 -2-i:1 -2-i:1 2/3:1], 0=[-2/3:1 2+i:1 2+i:1 2+i:1])',
    'RiemannScheme(inf=[4:1], 0=[-4:1])',
    'RiemannScheme(inf=[-4/3:2 -4/3:1 -4/3:1 3/2:1], 0=[4/3:2 -3/2:1 4/3:1 4/3:1])',
    'RiemannScheme(inf=[1+2/3i:1], 0=[-1-2/3i:1])',
    'RiemannScheme(inf=[-2+i:3 -2+i:1 -2+i:1], 0=[2-i:3 2-i:1 2-i:1])',
    'RiemannScheme(inf=[-1/3:1 -1/3:1 -1/3:1 -1/3:1 -1/3:1], 0=[1/3:1 1/3:1 1/3:1 1/3:1 1/3:1])',
    'RiemannScheme(inf=[1/3+1/3i:1], 0=[-1/3-1/3i:1])',
    'RiemannScheme(inf=[0:1], 0=[0:1])',
    'RiemannScheme(inf=[-3/2:2 -3/2:2 1:1], 0=[3/2:2 3/2:2 -1:1])',
    'RiemannScheme(inf=[-4:2 -1:1], 0=[4:2 1:1])',
    'RiemannScheme(inf=[0:3 3/2:1], 0=[0:3 -3/2:1])',
    'RiemannScheme(inf=[1+3/2i:2 1+3/2i:2 1+3/2i:1], 0=[-1-3/2i:2 -1-3/2i:2 -1-3/2i:1])',
    'SchemeUnavailableError',
    'RiemannScheme(inf=[1:1 1:1 1:1], 0=[-1:1 -1:1 -1:1])',
    'RiemannScheme(inf=[2/3:1 2/3:1], 0=[-2/3:1 -2/3:1])',
    'RiemannScheme(inf=[1:1], 0=[-1:1])',
    'SchemeUnavailableError',
    'RiemannScheme(inf=[4/3:1 4/3:1], 0=[-4/3:1 -4/3:1])',
    'RiemannScheme(inf=[0:3 0:1 1-3/2i:1], 0=[0:3 -1+3/2i:1 0:1])',
    'SchemeUnavailableError',
    'RiemannScheme(inf=[1:2 1:1], 0=[-1:2 -1:1])',
    'RiemannScheme(inf=[-1:2 -1:1 1:1], 0=[1:2 -1:1 1:1])',
    'RiemannScheme(inf=[2/3:1 2/3:1 2/3:1 1:1], 0=[-1:1 -2/3:1 -2/3:1 -2/3:1])',
    'RiemannScheme(inf=[-3/2:1], 0=[3/2:1])',
    'SchemeUnavailableError',
    'SchemeUnavailableError',
    'SchemeUnavailableError',
    'RiemannScheme(inf=[2-1/3i:1], 0=[-2+1/3i:1])',
    'SchemeUnavailableError',
    'SchemeUnavailableError',
    'RiemannScheme(inf=[0:2], 0=[0:2])',
    'RiemannScheme(inf=[0:1 0:1 4-i:1 4-i:1 4-i:1], 0=[-4+i:1 -4+i:1 -4+i:1 0:1 0:1])',
    'RiemannScheme(inf=[-2:3 -2:1], 0=[2:3 2:1])',
    'RiemannScheme(inf=[4/3+1/2i:2 4/3+1/2i:1], 0=[-4/3-1/2i:2 -4/3-1/2i:1])',
    'SchemeUnavailableError',
    'RiemannScheme(inf=[2/3:1 2/3:1], 0=[-2/3:1 -2/3:1])',
    'RiemannScheme(inf=[0:1 0:1], 0=[0:1 0:1])',
    'SchemeUnavailableError',
    'SchemeUnavailableError',
    'SchemeUnavailableError',
    'SchemeUnavailableError',
    'SchemeUnavailableError',
    'RiemannScheme(inf=[2:2 2:1], 0=[-2:2 -2:1])',
    'RiemannScheme(inf=[3-i:1], 0=[-3+i:1])',
    'SchemeUnavailableError',
    'RiemannScheme(inf=[-3-2i:1], 0=[3+2i:1])',
    'RiemannScheme(inf=[4/3:2 4/3:1], 0=[-4/3:2 -4/3:1])',
    'SchemeUnavailableError',
    'RiemannScheme(inf=[-1/3-1/3i:1], 0=[1/3+1/3i:1])',
    'RiemannScheme(inf=[-4/3-3i:2 -4/3-3i:1], 0=[4/3+3i:2 4/3+3i:1])',
    'RiemannScheme(inf=[-1+2i:1 -1+2i:1 -1+2i:1], 0=[1-2i:1 1-2i:1 1-2i:1])',
    'RiemannScheme(inf=[-1:1 -1:1 -1:1], 0=[1:1 1:1 1:1])',
    'RiemannScheme(inf=[2/3+3i:2 2/3+3i:1 2/3+3i:1 2/3+3i:1], 0=[-2/3-3i:2 -2/3-3i:1 -2/3-3i:1 -2/3-3i:1])',
    'RiemannScheme(inf=[1:1 1:1], 0=[-1:1 -1:1])',
    'RiemannScheme(inf=[-2:3 -2:1], 0=[2:3 2:1])',
    'RiemannScheme(inf=[2/3-1/3i:2 2/3-1/3i:1 2/3-1/3i:1], 0=[-2/3+1/3i:2 -2/3+1/3i:1 -2/3+1/3i:1])',
    'RiemannScheme(inf=[0:1 1-3i:1 1-3i:1 1-3i:1], 0=[-1+3i:1 -1+3i:1 -1+3i:1 0:1])',
    'SchemeUnavailableError',
    'RiemannScheme(inf=[-1/2-3/2i:1], 0=[1/2+3/2i:1])',
    'RiemannScheme(inf=[2-i:1 2-i:1], 0=[-2+i:1 -2+i:1])',
    'RiemannScheme(inf=[-2i:1], 0=[2i:1])',
    'RiemannScheme(inf=[1:1 1:1 1:1 1:1 3+i:1], 0=[-3-i:1 -1:1 -1:1 -1:1 -1:1])',
    'RiemannScheme(inf=[3/2:1 3/2:1 3/2:1 3/2:1], 0=[-3/2:1 -3/2:1 -3/2:1 -3/2:1])',
    'RiemannScheme(inf=[0:1 0:1 0:1], 0=[0:1 0:1 0:1])',
    'RiemannScheme(inf=[1/3:1], 0=[-1/3:1])',
    'RiemannScheme(inf=[-3:1 -3:1 -4/3:1 -4/3:1 -4/3:1], 0=[4/3:1 4/3:1 4/3:1 3:1 3:1])',
    'RiemannScheme(inf=[1:1 1:1 1:1 1:1], 0=[-1:1 -1:1 -1:1 -1:1])',
    'RiemannScheme(inf=[-3:1], 0=[3:1])',
    'RiemannScheme(inf=[-1:1], 0=[1:1])',
    'RiemannScheme(inf=[-2:2 -2:1], 0=[2:2 2:1])',
    'RiemannScheme(inf=[0:2 0:1 0:1], 0=[0:2 0:1 0:1])',
    'RiemannScheme(inf=[2/3:3 2/3:1], 0=[-2/3:3 -2/3:1])',
    'SchemeUnavailableError',
    'RiemannScheme(inf=[1/2:1 1/2:1 1/2:1 1/2:1 1/2:1], 0=[-1/2:1 -1/2:1 -1/2:1 -1/2:1 -1/2:1])',
    'SchemeUnavailableError',
    'SchemeUnavailableError',
    'RiemannScheme(inf=[-3/2-i:1], 0=[3/2+i:1])',
    'SchemeUnavailableError',
    'RiemannScheme(inf=[-1:1], 0=[1:1])',
    'RiemannScheme(inf=[1/3+1/3i:1], 0=[-1/3-1/3i:1])',
    'RiemannScheme(inf=[3:1], 0=[-3:1])',
    'SchemeUnavailableError',
    'RiemannScheme(inf=[-2:2 -2:2 -1/2:1], 0=[2:2 2:2 1/2:1])',
    'RiemannScheme(inf=[-2:1 -2:1 -2:1 -2:1 -2:1], 0=[2:1 2:1 2:1 2:1 2:1])',
    'SchemeUnavailableError',
    'RiemannScheme(inf=[1:1 1:1], 0=[-1:1 -1:1])',
    'RiemannScheme(inf=[-3/2+3/2i:2], 0=[3/2-3/2i:2])',
    'RiemannScheme(inf=[3/2:2], 0=[-3/2:2])',
    'RiemannScheme(inf=[-1-1/3i:1], 0=[1+1/3i:1])',
    'SchemeUnavailableError',
    'RiemannScheme(inf=[-3:3 -3:1 -2:1], 0=[3:3 2:1 3:1])',
    'SchemeUnavailableError',
    'RiemannScheme(inf=[-1-i:1], 0=[1+i:1])',
    'RiemannScheme(inf=[-1:1], 0=[1:1])',
    'RiemannScheme(inf=[-3+2i:1], 0=[3-2i:1])',
    'RiemannScheme(inf=[1:1], 0=[-1:1])',
    'RiemannScheme(inf=[4:1 4:1], 0=[-4:1 -4:1])',
    'SchemeUnavailableError',
    'RiemannScheme(inf=[2+1/3i:1 2+1/3i:1 2+1/3i:1 3:1 3:1], 0=[-3:1 -3:1 -2-1/3i:1 -2-1/3i:1 -2-1/3i:1])',
    'RiemannScheme(inf=[1/3+1/3i:1], 0=[-1/3-1/3i:1])',
    'SchemeUnavailableError',
    'RiemannScheme(inf=[1:1 1:1 1:1], 0=[-1:1 -1:1 -1:1])',
    'RiemannScheme(inf=[1/3+i:1 1/3+i:1 1/3+i:1 1/3+i:1], 0=[-1/3-i:1 -1/3-i:1 -1/3-i:1 -1/3-i:1])',
    'SchemeUnavailableError',
    'RiemannScheme(inf=[-3/2:1 -3/2:1 -3/2:1 -3/2:1], 0=[3/2:1 3/2:1 3/2:1 3/2:1])',
    'SchemeUnavailableError',
    'RiemannScheme(inf=[1/3:1], 0=[-1/3:1])',
    'SchemeUnavailableError',
    'RiemannScheme(inf=[-1:1 -1:1], 0=[1:1 1:1])',
    'RiemannScheme(inf=[-1:1 2:1], 0=[-2:1 1:1])',
    'SchemeUnavailableError',
    'SchemeUnavailableError',
    'SchemeUnavailableError',
    'RiemannScheme(inf=[1:2 3:1 3:1 3:1], 0=[-1:2 -3:1 -3:1 -3:1])',
    'SchemeUnavailableError',
    'RiemannScheme(inf=[1/3:2 1/3:2], 0=[-1/3:2 -1/3:2])',
    'RiemannScheme(inf=[1/3i:3 1/3i:1], 0=[-1/3i:3 -1/3i:1])',
    'SchemeUnavailableError',
    'RiemannScheme(inf=[1:2 1:1], 0=[-1:2 -1:1])',
    'RiemannScheme(inf=[0:2 0:1 0:1], 0=[0:2 0:1 0:1])',
    'RiemannScheme(inf=[1/2+3/2i:1 1/2+3/2i:1], 0=[-1/2-3/2i:1 -1/2-3/2i:1])',
    'SchemeUnavailableError',
    'RiemannScheme(inf=[-3/2i:1 -3/2i:1 -3/2i:1 -3/2i:1], 0=[3/2i:1 3/2i:1 3/2i:1 3/2i:1])',
    'RiemannScheme(inf=[2:3 2:1], 0=[-2:3 -2:1])',
    'RiemannScheme(inf=[4:1], 0=[-4:1])',
    'RiemannScheme(inf=[-4-i:1 -4-i:1 -4-i:1], 0=[4+i:1 4+i:1 4+i:1])',
    'RiemannScheme(inf=[1+i:1 1+i:1], 0=[-1-i:1 -1-i:1])',
    'SchemeUnavailableError',
    'SchemeUnavailableError',
    'RiemannScheme(inf=[2-i:1 2-i:1 2-i:1], 0=[-2+i:1 -2+i:1 -2+i:1])',
    'RiemannScheme(inf=[-1:2], 0=[1:2])',
]

# the inference result of each tuple find_basic_2x2_tuple's search visits
RECORDED_BASIC = ['SchemeUnavailableError', 'RiemannScheme(inf=[2:1 3:1], 0=[-2:1 0:1], 1=[-2:1 0:1], 2=[-1:1 0:1])']


def test_recorded_corpus():
    rng = random.Random(RECORDED_SEED)
    assert [inferred(SchlesingerTuple([0], [corpus_residue(rng)])) for _ in RECORDED] == RECORDED


def test_recorded_basic_search(monkeypatch):
    visited = []

    def recording(t):
        visited.append(t)
        return infer_scheme(t)

    monkeypatch.setattr(constructions, "infer_scheme", recording)
    found = constructions.find_basic_2x2_tuple()
    assert [inferred(t) for t in visited] == RECORDED_BASIC
    assert repr(found.scheme) == RECORDED_BASIC[-1]


@pytest.mark.parametrize("n", range(2, 9))
def test_rigid_family_without_its_scheme(n):
    # recorded: the divisor enumerator inferred each declared scheme
    t = rigid_family_realization(n)
    assert infer_scheme(t.with_scheme(None)) == t.scheme
