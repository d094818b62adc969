import hashlib
import json
import math
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from constructions import big_matrices, build_L, complete_to_basis
from fuchsmc import linalg
from fuchsmc.errors import NonSquareError, PreconditionFailError, SizeMismatchError
from fuchsmc.generate import random_schlesinger
from fuchsmc.katz import convolution, middle_convolution
from fuchsmc.linalg import (
    ExactMatrix,
    _commutant_dim_sylvester,
    block_matrix,
    char_poly,
    commutant_dim,
    generated_algebra_dim,
    image_basis,
    independent_columns,
    inverse,
    kernel_basis,
    rank,
    rref,
    solve,
    solve_sylvester_space,
)
from fuchsmc.modular import PRIMES
from fuchsmc.okubo import onf_from_scf
from fuchsmc.scalars import ONE, ZERO, GaussianRational, format_scalar, gr
from fuchsmc.schlesinger import SchlesingerTuple, matches_conjugacy_class
from fuchsmc.serialization import system_to_json
from fuchsmc.spectral import canonical_column

E = ExactMatrix.from_rows


def random_mat(rng, n, m=None, lo=-3, hi=3):
    m = n if m is None else m
    return ExactMatrix(n, m, [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)])


small_mats = st.builds(
    lambda seed, n: random_mat(random.Random(seed), n),
    st.integers(0, 10_000),
    st.integers(1, 4),
)


class TestRref:
    def test_identity(self):
        r, piv = rref(ExactMatrix.identity(3))
        assert r == ExactMatrix.identity(3)
        assert piv == [0, 1, 2]

    def test_dependent_rows(self):
        r, piv = rref(E([[1, 2], [2, 4]]))
        assert r == E([[1, 2], [0, 0]])
        assert piv == [0]

    def test_zero(self):
        r, piv = rref(ExactMatrix.zeros(2))
        assert r == ExactMatrix.zeros(2)
        assert piv == []

    @given(small_mats)
    @settings(max_examples=50)
    def test_idempotent(self, m):
        r, piv = rref(m)
        r2, piv2 = rref(r)
        assert r2 == r and piv2 == piv

    @given(small_mats)
    @settings(max_examples=50)
    def test_pivots_strictly_increase(self, m):
        _, piv = rref(m)
        assert all(a < b for a, b in zip(piv, piv[1:]))


class TestRankKernelImage:
    def test_rank_examples(self):
        assert rank(ExactMatrix.identity(4)) == 4
        assert rank(E([[1, gr(0, 1)], [gr(0, 1), -1]])) == 1
        assert rank(ExactMatrix.zeros(3)) == 0

    def test_kernel_examples(self):
        assert kernel_basis(ExactMatrix.identity(3)) == []
        z = kernel_basis(ExactMatrix.zeros(2))
        assert z == [(gr(1), gr(0)), (gr(0), gr(1))]
        assert kernel_basis(E([[1, 2]])) == [(gr(-2), gr(1))]

    def test_image_examples(self):
        assert image_basis(ExactMatrix.identity(2)) == [
            (gr(1), gr(0)),
            (gr(0), gr(1)),
        ]
        assert image_basis(ExactMatrix.zeros(2)) == []
        assert image_basis(E([[1, 1], [1, 1]])) == [(gr(1), gr(1))]

    @given(small_mats)
    @settings(max_examples=60)
    def test_rank_nullity(self, m):
        assert m.ncols == rank(m) + len(kernel_basis(m))

    @given(small_mats)
    @settings(max_examples=60)
    def test_rank_equals_transpose_rank(self, m):
        assert rank(m) == rank(m.transpose())

    @given(small_mats)
    @settings(max_examples=40)
    def test_kernel_vectors_annihilate(self, m):
        for v in kernel_basis(m):
            assert all(x.is_zero() for x in m.apply(v))


class TestCommutant:
    def test_scalar_matrix(self):
        assert commutant_dim(ExactMatrix.diagonal([7, 7, 7])) == 9

    def test_distinct_diagonal(self):
        assert commutant_dim(ExactMatrix.diagonal([1, 2, 3])) == 3

    def test_normalized_class_representative(self):
        # two equal eigenvalues in square blocks plus two simple ones
        m = E([[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 2, 1], [0, 0, 0, 3]])
        assert commutant_dim(m) == 2 * 2 + 1 + 1

    def test_nilpotent_block(self):
        for n in (2, 3, 4):
            j = ExactMatrix(
                n, n, [[1 if k == i + 1 else 0 for k in range(n)] for i in range(n)]
            )
            assert commutant_dim(j) == n

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareError):
            commutant_dim(ExactMatrix.zeros(2, 3))

    @given(small_mats, st.integers(0, 1000))
    @settings(max_examples=25)
    def test_conjugation_invariance(self, m, seed):
        rng = random.Random(seed)
        n = m.nrows
        while True:
            g = random_mat(rng, n)
            if rank(g) == n:
                break
        assert commutant_dim(g * m * inverse(g)) == commutant_dim(m)


class TestGeneratedAlgebra:
    def test_empty_generators(self):
        assert generated_algebra_dim([], size=3) == 1

    def test_single_diagonal(self):
        assert generated_algebra_dim([ExactMatrix.diagonal([1, 2])]) == 2

    def test_two_nilpotents_generate_everything(self):
        e12 = E([[0, 1], [0, 0]])
        e21 = E([[0, 0], [1, 0]])
        assert generated_algebra_dim([e12, e21]) == 4

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            generated_algebra_dim([ExactMatrix.zeros(2), ExactMatrix.zeros(3)])

    @given(st.integers(0, 1000))
    @settings(max_examples=20)
    def test_conjugation_invariance(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        mats = [random_mat(rng, n) for _ in range(2)]
        while True:
            g = random_mat(rng, n)
            if rank(g) == n:
                break
        gi = inverse(g)
        conj = [g * m * gi for m in mats]
        assert generated_algebra_dim(conj) == generated_algebra_dim(mats)


class TestSylvester:
    def test_identity_constraint(self):
        basis = solve_sylvester_space([ExactMatrix.identity(2)], [ExactMatrix.identity(2)])
        assert len(basis) == 4

    def test_swapped_diagonals(self):
        basis = solve_sylvester_space(
            [ExactMatrix.diagonal([1, 2])], [ExactMatrix.diagonal([2, 1])]
        )
        assert len(basis) == 2
        for g in basis:
            assert g[0, 0].is_zero() and g[1, 1].is_zero()

    def test_disjoint_spectra(self):
        basis = solve_sylvester_space(
            [ExactMatrix.diagonal([1, 2])], [ExactMatrix.diagonal([3, 4])]
        )
        assert basis == []

    @given(st.integers(0, 500))
    @settings(max_examples=20)
    def test_solutions_intertwine(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        a = [random_mat(rng, n) for _ in range(2)]
        b = [random_mat(rng, n) for _ in range(2)]
        for g in solve_sylvester_space(a, b):
            for aj, bj in zip(a, b):
                assert (g * aj - bj * g).is_zero()


class TestSolveInverse:
    def test_solve_round_trip(self):
        a = E([[2, 1], [1, 1]])
        x = E([[3], [5]])
        assert solve(a, a * x) == x

    def test_inconsistent(self):
        with pytest.raises(SizeMismatchError):
            solve(E([[1], [1]]), E([[1], [2]]))

    def test_inverse(self):
        a = E([[1, 2], [3, 5]])
        assert a * inverse(a) == ExactMatrix.identity(2)

    def test_complete_to_basis(self):
        span = ExactMatrix.from_columns([(gr(1), gr(1), gr(0))], nrows=3)
        indep, comp = complete_to_basis(span)
        assert indep == [0]
        # first standard vectors that stay independent: e0 then e2
        assert comp == [0, 2]


class TestCharPoly:
    def test_triangular(self):
        cp = char_poly(E([[1, 1], [0, 2]]))
        assert [str(c) for c in cp] == ["2", "-3", "1"]

    @given(small_mats)
    @settings(max_examples=30)
    def test_cayley_hamilton(self, m):
        cp = char_poly(m)
        acc = ExactMatrix.zeros(m.nrows)
        power = ExactMatrix.identity(m.nrows)
        for c in cp:
            acc = acc + power.scale(c)
            power = power * m
        assert acc.is_zero()


def oracle_char_poly(m):
    """Faddeev-LeVerrier: c_(n-k) = -tr(m M_k) / k, M_(k+1) = m M_k + c_(n-k)."""
    n = m.nrows
    coeffs = [ZERO] * n + [ONE]
    mk = ExactMatrix.identity(n)
    for k in range(1, n + 1):
        mk = m * mk
        c = -(mk.trace() / k)
        coeffs[n - k] = c
        mk = mk.shift(c)
    return coeffs


# -- oracle: textbook Gauss-Jordan on pairs of Fractions ---------------------------
#
# The library eliminates over the Gaussian integers and divides once at the
# end.  The oracle below is the plain rational algorithm, one field operation
# at a time, written against Fraction pairs so that it shares no arithmetic
# with the code under test.


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def oracle_rref(m):
    """(rows, pivots) of the reduced row echelon form of m."""
    rows = [[(x.re, x.im) for x in r] for r in m.rows]
    pivots = []
    r = 0
    for c in range(m.ncols):
        piv = next((i for i in range(r, m.nrows) if rows[i][c] != (0, 0)), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        a, b = rows[r][c]
        norm = a * a + b * b
        inv = (a / norm, -b / norm)
        rows[r] = [_cmul(inv, x) for x in rows[r]]
        for i in range(m.nrows):
            f = rows[i][c]
            if i != r and f != (0, 0):
                rows[i] = [
                    (x[0] - fx[0], x[1] - fx[1])
                    for x, fx in zip(rows[i], (_cmul(f, y) for y in rows[r]))
                ]
        pivots.append(c)
        r += 1
    return [[gr(x, y) for x, y in row] for row in rows], pivots


def oracle_kernel(m):
    rows, pivots = oracle_rref(m)
    basis = []
    for f in range(m.ncols):
        if f in pivots:
            continue
        v = [gr(0)] * m.ncols
        v[f] = gr(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(tuple(v))
    return basis


def oracle_solve(a, b):
    """a X = b with free coordinates zero; None when inconsistent."""
    rows, pivots = oracle_rref(a.hstack(b))
    if any(c >= a.ncols for c in pivots):
        return None
    out = [[gr(0)] * b.ncols for _ in range(a.ncols)]
    for r, c in enumerate(pivots):
        out[c] = rows[r][a.ncols :]
    return ExactMatrix(a.ncols, b.ncols, out)


def oracle_inverse(m):
    """The inverse of a square m; None when m is singular."""
    n = m.nrows
    if len(oracle_rref(m)[1]) < n:
        return None
    return oracle_solve(m, ExactMatrix.identity(n))


def oracle_commutant_dim(a):
    """n^2 minus the rank of the Kronecker system I(x)A - A^T(x)I on vec(X)."""
    n = a.nrows
    rows = []
    for i in range(n):
        for j in range(n):
            row = [gr(0)] * (n * n)  # X[k][l] sits at column l*n + k
            for k in range(n):
                row[j * n + k] = row[j * n + k] + a[i, k]
                row[k * n + i] = row[k * n + i] - a[k, j]
            rows.append(row)
    return n * n - len(oracle_rref(ExactMatrix(n * n, n * n, rows))[1])


def oracle_algebra_dim(mats, n):
    """The span closure of the identity under left multiplication."""
    span = [ExactMatrix.identity(n)]
    frontier = list(span)

    def dim(ms):
        return len(oracle_rref(ExactMatrix.from_rows([[x for r in m.rows for x in r] for m in ms]))[1])

    while frontier:
        new = []
        for g in mats:
            for b in frontier:
                prod = g * b
                if dim(span + [prod]) > len(span):
                    span.append(prod)
                    new.append(prod)
        frontier = new
    return len(span)


def oracle_intertwiners(a_list, b_list):
    """One constraint at a time, each kernel by the oracle."""
    na, nb = a_list[0].nrows, b_list[0].nrows

    def unflatten(v):
        return ExactMatrix(nb, na, [v[i * na : (i + 1) * na] for i in range(nb)])

    a0, b0 = a_list[0], b_list[0]
    rows = []
    for i in range(nb):
        for j in range(na):
            row = [gr(0)] * (nb * na)
            for c in range(na):
                row[i * na + c] = row[i * na + c] + a0[c, j]
            for r in range(nb):
                row[r * na + j] = row[r * na + j] - b0[i, r]
            rows.append(row)
    gens = [unflatten(v) for v in oracle_kernel(ExactMatrix(nb * na, nb * na, rows))]
    for a, b in zip(a_list[1:], b_list[1:]):
        if not gens:
            return []
        cols = [tuple(x for r in (g * a - b * g).rows for x in r) for g in gens]
        combos = []
        for coeffs in oracle_kernel(ExactMatrix.from_columns(cols, nrows=nb * na)):
            out = ExactMatrix.zeros(nb, na)
            for g, c in zip(gens, coeffs):
                out = out + g.scale(c)
            combos.append(out)
        gens = combos
    return gens


# Gaussian rationals with non-unit denominators; zero is drawn often, so
# that sparse rows and columns occur
gaussians = st.one_of(
    st.just(ZERO),
    st.builds(
        lambda a, b, c, d: gr(Fraction(a, b), Fraction(c, d)),
        st.integers(-4, 4), st.integers(1, 4), st.integers(-4, 4), st.integers(1, 4),
    ),
)
rationals = st.builds(lambda a, b: gr(Fraction(a, b)), st.integers(-4, 4), st.integers(1, 4))


def matrices(nrows, ncols, entries=gaussians):
    return st.lists(
        st.lists(entries, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows
    ).map(lambda rows: ExactMatrix(nrows, ncols, rows))


@st.composite
def gaussian_matrices(draw, max_size=5, square=False):
    """Any shape up to max_size; half are products through a narrower inner
    dimension, hence rank-deficient (the zero matrix when it is 0)."""
    nrows = draw(st.integers(1, max_size))
    ncols = nrows if square else draw(st.integers(1, max_size))
    if draw(st.booleans()):
        inner = draw(st.integers(0, min(nrows, ncols) - 1))
        if inner == 0:
            return ExactMatrix.zeros(nrows, ncols)
        return draw(matrices(nrows, inner)) * draw(matrices(inner, ncols))
    return draw(matrices(nrows, ncols))


G = gr
ORACLE_EXAMPLES = [
    ExactMatrix.zeros(3, 2),
    E([[G("1/2-3i")]]),
    E([[G("1/3+i"), G("2"), G("-i"), G("1/2"), G(0)], [G("2/3+2i"), G("4"), G("-2i"), G(1), G(0)]]),
    E([[G("i"), G("1/2")], [G(1), G("-1/2i")], [G("2i"), G(1)], [G(0), G(0)], [G("1/3"), G("-1/6i")]]),
]


def _with_examples(test):
    for m in ORACLE_EXAMPLES:
        test = example(m)(test)
    return test


class TestAgainstOracle:
    @_with_examples
    @given(gaussian_matrices())
    @settings(max_examples=150, deadline=None)
    def test_elimination(self, m):
        rows, pivots = oracle_rref(m)
        assert rank(m) == len(pivots)
        assert independent_columns(m) == pivots
        r, piv = rref(m)
        assert piv == pivots
        assert r == ExactMatrix(m.nrows, m.ncols, rows)
        assert kernel_basis(m) == oracle_kernel(m)
        assert image_basis(m) == [m.column(c) for c in pivots]

    @given(gaussian_matrices(), st.integers(1, 3), st.booleans(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_solve(self, a, k, consistent, data):
        if consistent:
            b = a * data.draw(matrices(a.ncols, k))
        else:
            b = data.draw(matrices(a.nrows, k))
        want = oracle_solve(a, b)
        if want is None:
            with pytest.raises(SizeMismatchError):
                solve(a, b)
        else:
            assert solve(a, b) == want

    @example(ExactMatrix.zeros(3))
    @example(E([[G("1/2-3i")]]))
    @given(gaussian_matrices(max_size=4, square=True))
    @settings(max_examples=60, deadline=None)
    def test_inverse(self, m):
        want = oracle_inverse(m)
        if want is None:
            with pytest.raises(SizeMismatchError):
                inverse(m)
        else:
            assert inverse(m) == want


def jordan_sum(blocks):
    """Direct sum of Jordan blocks J_k(lam) for (k, lam) in blocks."""
    n = sum(k for k, _ in blocks)
    rows = [[gr(0)] * n for _ in range(n)]
    at = 0
    for k, lam in blocks:
        for i in range(k):
            rows[at + i][at + i] = gr(lam)
            if i + 1 < k:
                rows[at + i][at + i + 1] = gr(1)
        at += k
    return ExactMatrix(n, n, rows)


def jordan_commutant_dim(blocks):
    """Frobenius: the sum over eigenvalues of min(k_i, k_j) over block pairs."""
    return sum(min(k, l) for k, lam in blocks for l, mu in blocks if lam == mu)


def compositions(n, largest=3):
    """Ordered block sizes summing to n, none above `largest`."""
    if n == 0:
        return [()]
    return [(k,) + rest for k in range(1, min(n, largest) + 1) for rest in compositions(n - k, largest)]


def jordan_blocks(n):
    """(size, eigenvalue) blocks of total size n; eigenvalues repeat often."""
    return st.sampled_from(compositions(n)).flatmap(
        lambda sizes: st.tuples(*[st.sampled_from(["2", "-1/2", "1+i"]) for _ in sizes]).map(
            lambda lams: list(zip(sizes, lams))
        )
    )


def conjugated(m, g):
    gi = oracle_inverse(g)
    return m if gi is None else g * m * gi


class TestCommutantAgainstOracle:
    @given(st.integers(1, 5).flatmap(jordan_blocks), st.data())
    @settings(max_examples=40, deadline=None)
    def test_repeated_jordan_blocks(self, blocks, data):
        j = jordan_sum(blocks)
        m = conjugated(j, data.draw(matrices(j.nrows, j.nrows)))
        want = jordan_commutant_dim(blocks)
        assert oracle_commutant_dim(m) == want
        assert commutant_dim(m) == want

    @given(
        st.lists(
            st.tuples(st.sampled_from(["0", "3", "-1/2", "2i", "1-i"]), st.integers(1, 3)),
            min_size=1, max_size=4,
        ).filter(lambda parts: sum(k for _, k in parts) <= 5),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_build_L_outputs(self, parts, data):
        m = build_L([(gr(lam), k) for lam, k in parts])
        assert commutant_dim(m) == oracle_commutant_dim(m)
        g = data.draw(matrices(m.nrows, m.nrows))
        conj = conjugated(m, g)
        assert commutant_dim(conj) == oracle_commutant_dim(m)


class TestAlgebraAgainstOracle:
    @given(st.integers(1, 3), st.integers(1, 3), st.booleans(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_span_closure(self, n, count, gaussian, data):
        entries = gaussians if gaussian else rationals
        mats = [data.draw(matrices(n, n, entries)) for _ in range(count)]
        assert generated_algebra_dim(mats) == oracle_algebra_dim(mats, n)

    @given(st.integers(2, 3), st.integers(1, 3), st.booleans(), st.data())
    @settings(max_examples=30, deadline=None)
    def test_reducible_generators(self, n, count, gaussian, data):
        # a common invariant subspace: the first k coordinates, then hidden
        # by one conjugation
        entries = gaussians if gaussian else rationals
        k = data.draw(st.integers(1, n - 1))
        mats = []
        for _ in range(count):
            m = data.draw(matrices(n, n, entries))
            mats.append(ExactMatrix(n, n, [
                [ZERO if i >= k and j < k else m[i, j] for j in range(n)] for i in range(n)
            ]))
        g = data.draw(matrices(n, n, entries))
        gi = oracle_inverse(g)
        if gi is not None:
            mats = [g * m * gi for m in mats]
        dim = generated_algebra_dim(mats)
        assert dim == oracle_algebra_dim(mats, n)
        assert dim < n * n


class TestIntertwinersAgainstOracle:
    @given(st.integers(1, 3), st.integers(1, 3), st.booleans(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_basis(self, n, count, conjugate, data):
        # derogatory constraints give intertwiner spaces of dimension > 1
        a_list = [
            data.draw(st.one_of(matrices(n, n), jordan_blocks(n).map(jordan_sum)))
            for _ in range(count)
        ]
        if conjugate:
            g = data.draw(matrices(n, n))
            b_list = [conjugated(a, g) for a in a_list]
        else:
            b_list = [data.draw(matrices(n, n)) for _ in range(count)]
        assert solve_sylvester_space(a_list, b_list) == oracle_intertwiners(a_list, b_list)


# -- block rows: the live block against the dense computations -----------------------
#
# A residue of a convolution or of an Okubo form is zero outside a few rows; the
# characteristic polynomial and the commutant read only the block D on the other
# rows and columns, and a product skips the zero rows.

SQRT2_BLOCKS = [
    [[0, 2], [1, 0]],  # +-sqrt(2)
    [[0, 2, 1, 0], [1, 0, 0, 1], [0, 0, 0, 2], [0, 0, 1, 0]],  # one 2-block each
    [[0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2], [0, 0, 1, 0]],  # two 1-blocks each
]


@st.composite
def block_rows(draw):
    """(m, r): [[D, E], [0, 0]] with r live rows, under one permutation of
    the coordinates; D is drawn invertible, singular, with repeated
    eigenvalues (nilpotent parts included) or with +-sqrt(2) repeated."""
    kind = draw(st.sampled_from(["random", "jordan", "sqrt2"]))
    if kind == "sqrt2":
        d = E(draw(st.sampled_from(SQRT2_BLOCKS)))
    elif kind == "jordan":
        sizes = draw(st.sampled_from(compositions(draw(st.integers(1, 4)))))
        d = jordan_sum([(k, draw(st.sampled_from(["0", "2", "-1/2", "1+i"]))) for k in sizes])
    else:
        d = draw(matrices(*[draw(st.integers(1, 4))] * 2))
    r, dead = d.nrows, draw(st.integers(1, 3))
    if kind != "random":
        d = conjugated(d, draw(matrices(r, r)))
    e = draw(matrices(r, dead))
    rows = [list(x) + list(y) for x, y in zip(d.rows, e.rows)] + [[ZERO] * (r + dead)] * dead
    perm = draw(st.permutations(range(r + dead)))
    return E([[rows[i][j] for j in perm] for i in perm]), r


def dense_apply(m, v):
    """m v on Gaussian integer pairs, one product per entry."""
    (mre, mim), (vre, vim) = m, v
    return (
        [sum(a * x - b * y for a, b, x, y in zip(r, s, vre, vim)) for r, s in zip(mre, mim)],
        [sum(a * y + b * x for a, b, x, y in zip(r, s, vre, vim)) for r, s in zip(mre, mim)],
    )


class TestLiveBlock:
    @example((E([[1, 0, 2, 0], [0, 0, 0, 0], [3, 0, 1, 0], [0, 0, 0, 0]]), 2))
    @given(block_rows())
    @settings(max_examples=80, deadline=None)
    def test_commutant(self, case):
        m, r = case
        sizes = []
        berkowitz = linalg.modular.berkowitz

        def recording(re, im=None, p=0):
            sizes.append(len(re))
            return berkowitz(re, im, p)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg.modular, "berkowitz", recording)
            got = commutant_dim(m)
        assert got == _commutant_dim_sylvester(m)
        assert max(sizes) <= r

    @given(st.integers(0, 6), st.sampled_from(PRIMES[:2]), st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_berkowitz_mod_p_is_the_exact_one_reduced(self, n, p, real, data):
        ints = st.integers(-(10**6), 10**6)
        re = data.draw(st.lists(st.lists(ints, min_size=n, max_size=n), min_size=n, max_size=n))
        im = [[0] * n for _ in range(n)] if real else data.draw(
            st.lists(st.lists(ints, min_size=n, max_size=n), min_size=n, max_size=n)
        )
        iota = linalg.modular.sqrt_minus_one(p)
        cre, cim = linalg.modular.berkowitz(re, im)
        reduced = [[(x + iota * y) % p for x, y in zip(r, s)] for r, s in zip(re, im)]
        assert linalg.modular.berkowitz(reduced, p=p)[0] == [(x + iota * y) % p for x, y in zip(cre, cim)]

    @given(st.integers(1, 5), st.integers(0, 4), st.sampled_from(["real", "imaginary", "complex", "zero"]), st.data())
    @settings(max_examples=80, deadline=None)
    def test_apply_is_the_dense_product(self, n, dead, kind, data):
        ints = st.integers(-50, 50)
        row = st.lists(ints, min_size=n, max_size=n)
        zero = [0] * n
        re = data.draw(st.lists(row, min_size=n, max_size=n))
        im = data.draw(st.lists(st.one_of(row, st.just(zero)), min_size=n, max_size=n))
        for i in data.draw(st.lists(st.integers(0, n - 1), max_size=dead)):
            re[i], im[i] = zero, zero
        vre = zero if kind in ("imaginary", "zero") else data.draw(row)
        vim = zero if kind in ("real", "zero") else data.draw(row)
        m, v = (re, im), (vre, vim)
        assert linalg._gaussian_apply(m, v) == dense_apply(m, v)
        assert linalg._gaussian_apply((re, [zero] * n), v) == dense_apply((re, [zero] * n), v)


# -- certificates against the closures they replace -------------------------------
#
# char_poly is division-free, and commutant_dim reads the commutant off the
# characteristic polynomial; the Sylvester solve stays as the fallback and is
# the oracle here.

P = PRIMES[0]


def equal_multiplicities(data):
    """Jordan blocks of two or three distinct eigenvalues in Q(i) of one
    multiplicity a >= 2, each split into blocks its own way."""
    pool = st.sampled_from(["0", "2", "-1", "i", "1+i", "-1/3+i"])
    labels = data.draw(st.lists(pool, min_size=2, max_size=3, unique=True))
    a = data.draw(st.integers(2, 3 if len(labels) == 2 else 2))
    blocks = [(k, lam) for lam in labels for k in data.draw(st.sampled_from(compositions(a)))]
    return data.draw(st.permutations(blocks))


def counting_sylvester(m, monkeypatch):
    """commutant_dim(m) and the matrices it hands to the Sylvester solve."""
    calls = []

    def counting(x):
        calls.append(x)
        return _commutant_dim_sylvester(x)

    monkeypatch.setattr(linalg, "_commutant_dim_sylvester", counting)
    return commutant_dim(m), calls


class TestCertificatesAgainstOracle:
    @example(E([[G(1), G(Fraction(1, P))], [G(0), G(Fraction(1, P), 1)]]))
    @example(E([[G("1/2-3i")]]))
    @given(st.one_of(gaussian_matrices(max_size=5, square=True), block_rows().map(lambda case: case[0])))
    @settings(max_examples=80, deadline=None)
    def test_char_poly_is_faddeev_leverrier(self, m):
        assert char_poly(m) == oracle_char_poly(m)

    @given(st.integers(1, 5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_commutant_gaussian_entries(self, n, data):
        m = data.draw(matrices(n, n))
        assert commutant_dim(m) == _commutant_dim_sylvester(m)

    @given(st.integers(1, 5).flatmap(jordan_blocks), st.data())
    @settings(max_examples=40, deadline=None)
    def test_commutant_nilpotent_and_repeated_blocks(self, blocks, data):
        j = jordan_sum([(k, "0" if data.draw(st.booleans()) else lam) for k, lam in blocks])
        m = conjugated(j, data.draw(matrices(j.nrows, j.nrows)))
        assert commutant_dim(m) == _commutant_dim_sylvester(m)

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_commutant_of_equal_multiplicities(self, data):
        # every repeated eigenvalue lies in Q(i), so none reaches the solve
        blocks = equal_multiplicities(data)
        j = jordan_sum(blocks)
        m = conjugated(j, data.draw(matrices(j.nrows, j.nrows)))
        with pytest.MonkeyPatch.context() as mp:
            got, calls = counting_sylvester(m, mp)
        assert calls == []
        assert got == jordan_commutant_dim(blocks) == _commutant_dim_sylvester(m)

    def test_commutant_solves_for_repeated_eigenvalues_outside_q_i(self, monkeypatch):
        # [[C, I], [0, C]] with C = [[0, 2], [1, 0]]: +-sqrt(2), each one 2-block
        c = [[0, 2], [1, 0]]
        j = E([c[0] + [1, 0], c[1] + [0, 1], [0, 0] + c[0], [0, 0] + c[1]])
        g = E([[1, 2, 0, 1], [0, 1, G("i"), 0], [1, 0, 1, 3], [2, 0, 0, 1]])
        m = conjugated(j, g)
        assert m != j
        got, calls = counting_sylvester(m, monkeypatch)
        assert calls == [m]
        assert got == 4 == _commutant_dim_sylvester(m)

    @pytest.mark.parametrize("den", [P, P * PRIMES[1], P * P])
    def test_commutant_with_the_prime_as_denominator(self, den):
        # the square-free test runs on the integer multiple, so no denominator
        # can spoil it
        q = G(Fraction(1, den))
        for m in [
            E([[q, G(0)], [G(0), q]]),
            E([[q, G(1)], [G(0), q]]),
            E([[q, G(2), G(0)], [G(0), q, G(0)], [G(0), G(0), G(3)]]),
            E([[q, q], [q, G(1)]]),
            E([[q, G(0), G(1)], [G(0), q, G(0)], [G(0), G(0), G(1) + q]]),
        ]:
            assert commutant_dim(m) == _commutant_dim_sylvester(m)


class TestCommutantOfSingularMatrices:
    """Singular matrices, where chi = x^z chi': the split of the x^z factor
    against the Sylvester oracle, on either side of its square-free test."""

    @given(st.integers(0, 10_000), st.sampled_from(["1/2", "-1/3+i", "2i"]))
    @settings(max_examples=12, deadline=None)
    def test_convolution_residues(self, seed, lam):
        t = random_schlesinger(random.Random(seed), 2, 3)
        for m in big_matrices(convolution(t, gr(lam))):
            assert m.nrows - rank(m) >= 2  # eigenvalue 0 repeats
            assert commutant_dim(m) == _commutant_dim_sylvester(m)
        try:
            mc = middle_convolution(t, gr(lam))
        except PreconditionFailError:
            return
        for m in mc.matrices:
            assert commutant_dim(m) == _commutant_dim_sylvester(m)

    @given(
        st.lists(st.integers(1, 2), min_size=1, max_size=2),
        st.lists(st.integers(1, 2), min_size=2, max_size=2),
        st.sampled_from(["3", "-1/2+i"]),
        st.data(),
    )
    @settings(max_examples=15, deadline=None)
    def test_singular_with_a_repeated_nonzero_eigenvalue(self, zero_sizes, lam_sizes, lam, data):
        blocks = [(k, "0") for k in zero_sizes] + [(k, lam) for k in lam_sizes]
        j = jordan_sum(data.draw(st.permutations(blocks)))
        m = conjugated(j, data.draw(matrices(j.nrows, j.nrows)))
        assert commutant_dim(m) == _commutant_dim_sylvester(m) == jordan_commutant_dim(blocks)

    def test_square_free_cofactor_skips_the_decomposition(self, monkeypatch):
        # chi = x^3 (x - 2)(x + 1/2 - i): 0 is the only repeated eigenvalue
        blocks = [(2, "0"), (1, "0"), (1, "2"), (1, "-1/2+i")]
        g = E([[1, 2, 0, 0, 1], [0, 1, G("i"), 0, 0], [1, 0, 1, 3, 0], [0, 0, 0, 1, 2], [2, 0, 0, 0, 1]])
        m = conjugated(jordan_sum(blocks), g)
        assert m != jordan_sum(blocks)

        def refuse(re, im):
            raise AssertionError("repeated-root search reached")

        monkeypatch.setattr(linalg.modular, "gcd_with_derivative", refuse)
        assert commutant_dim(m) == jordan_commutant_dim(blocks) == _commutant_dim_sylvester(m)


# -- the nullity chain against explicit products ------------------------------------
#
# nullity_chain never forms (m - c_1)...(m - c_k); the oracle forms every prefix
# product with ExactMatrix arithmetic and ranks it by the Fraction-pair rref.


def oracle_nullities(m, shifts):
    n = m.nrows
    prod = ExactMatrix.identity(n)
    out = []
    for c in shifts:
        prod = prod * m.shift(-c)
        out.append(n - len(oracle_rref(prod)[1]))
    return out


def oracle_matches_class(m, parts):
    """Class membership from the explicit prefix products of the column."""
    entries = canonical_column([(gr(l), k) for l, k in parts])
    totals = [sum(k for _, k in entries[: i + 1]) for i in range(len(entries))]
    return oracle_nullities(m, [l for l, _ in entries]) == totals


@st.composite
def derogatory_with_shifts(draw):
    """(m, shifts): a conjugate of a Jordan sum whose eigenvalues repeat
    (nilpotent blocks at 0 included), real or Gaussian, scaled so that
    den > 1 is common, and shifts that mix its eigenvalues, repeated, with
    near misses (an eigenvalue plus i) and arbitrary Gaussian rationals;
    long enough, often, for the chain to reach nullity n and go on."""
    n = draw(st.integers(1, 5))
    real = draw(st.booleans())
    sizes = draw(st.sampled_from(compositions(n)))
    labels = ["0", "2", "-1/2"] + ([] if real else ["1+i"])
    blocks = [(k, draw(st.sampled_from(labels))) for k in sizes]
    scale = draw(st.sampled_from([gr(1), gr(Fraction(1, 3))] + ([] if real else [gr("1/2+i")])))
    j = jordan_sum(blocks).scale(scale)
    m = conjugated(j, draw(matrices(n, n, rationals if real else gaussians)))
    eigen = st.sampled_from([gr(lam) * scale for k, lam in blocks for _ in range(k)])
    shift = st.one_of(eigen, eigen.map(lambda c: c + gr("i")), gaussians)
    return m, draw(st.lists(shift, max_size=2 * n + 2))


class TestRowSpinAgainstOracle:
    @given(derogatory_with_shifts(), st.integers(1, 3), st.data())
    @settings(max_examples=80, deadline=None)
    def test_observability_rank(self, case, nrows, data):
        a = case[0]
        n = a.nrows
        c = data.draw(matrices(nrows, n))
        blocks, power = [], c
        for _ in range(n):
            blocks.append(power)
            power = power * a
        observability = reduce(ExactMatrix.vstack, blocks)
        got = linalg.row_spin_dim(c, a)
        assert got == len(oracle_rref(observability)[1])
        # its kernel is the largest a-invariant subspace inside ker c
        assert n - got == len(linalg.largest_invariant_subspace(a, kernel_basis(c)))

    def test_shape_mismatch(self):
        with pytest.raises(SizeMismatchError):
            linalg.row_spin_dim(ExactMatrix.zeros(1, 3), ExactMatrix.identity(2))


class TestNullityChainAgainstOracle:
    @example((jordan_sum([(3, "0")]), [gr(0)] * 5))
    @example((jordan_sum([(2, "1+i"), (1, "1+i")]).scale(gr(Fraction(1, 6))), [gr("1/6+1/6i")] * 4))
    @example((E([[G("1/2"), G(1)], [G(0), G("1/2")]]), [gr(3), gr("1/2+i"), gr("1/2"), gr("1/2")]))
    @example((ExactMatrix.zeros(3), [gr(0), gr(1)]))
    @example((E([[-1, 1, 0], [-1, 1, 0], [0, 0, 0]]), [gr("i"), gr(0)]))  # real m, Gaussian rows
    @example((  # Gaussian rows of a proper subspace, times a Gaussian shift
        conjugated(jordan_sum([(2, "i"), (1, "2")]), E([[1, G("i"), 0], [0, 1, 2], [G("1+i"), 0, 1]])),
        [gr(2), gr("i"), gr("i")],
    ))
    @given(derogatory_with_shifts())
    @settings(max_examples=150, deadline=None)
    def test_prefix_nullities(self, case):
        m, shifts = case
        assert list(linalg.nullity_chain(m, shifts)) == oracle_nullities(m, shifts)

    @given(st.integers(1, 5).flatmap(jordan_blocks), st.integers(0, 3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_empty_basis_tail(self, blocks, extra, data):
        # every eigenvalue at its full multiplicity kills the product; the
        # nullity then stays n whatever comes after
        j = jordan_sum(blocks)
        m = conjugated(j, data.draw(matrices(j.nrows, j.nrows)))
        eigen = data.draw(st.permutations([gr(lam) for k, lam in blocks for _ in range(k)]))
        shifts = eigen + data.draw(st.lists(gaussians, min_size=extra, max_size=extra))
        got = list(linalg.nullity_chain(m, shifts))
        assert got == oracle_nullities(m, shifts)
        assert got[len(eigen) - 1 :] == [m.nrows] * (extra + 1)

    def test_lazy(self):
        # a generator: shifts are read one step at a time, and a consumer that
        # stops early leaves the rest unread
        read = []

        def shifts():
            for c in (gr(0), gr(1), gr(2)):
                read.append(c)
                yield c

        chain = linalg.nullity_chain(jordan_sum([(2, "0"), (1, "1")]), shifts())
        assert next(chain) == 1 and read == [gr(0)]
        assert next(chain) == 2 and read == [gr(0), gr(1)]

    def test_non_square_rejected(self):
        with pytest.raises(NonSquareError):
            next(linalg.nullity_chain(ExactMatrix.zeros(2, 3), [gr(0)]))

    @given(
        st.lists(
            st.tuples(st.sampled_from(["0", "3", "-1/2", "2i", "1-i"]), st.integers(1, 3)),
            min_size=1, max_size=4,
        ).filter(lambda parts: sum(k for _, k in parts) <= 6),
        st.sampled_from(["same", "merged", "split", "relabelled"]),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_class_membership(self, parts, variant, data):
        # conjugates of build_L against their own part list and against
        # altered lists of the same size, true and false alike
        parts = [(gr(lam), k) for lam, k in parts]
        n = sum(k for _, k in parts)
        m = conjugated(build_L(parts), data.draw(matrices(n, n)))
        if variant == "merged" and len(parts) > 1:
            (l0, k0), (l1, k1), *rest = parts
            parts = [(l0, k0 + k1)] + rest
        elif variant == "split" and any(k > 1 for _, k in parts):
            i = next(i for i, (_, k) in enumerate(parts) if k > 1)
            l, k = parts[i]
            parts = parts[:i] + [(l, k - 1), (l, 1)] + parts[i + 1 :]
        elif variant == "relabelled":
            l, k = parts[0]
            parts = [(l + data.draw(st.sampled_from([gr(1), gr("i"), gr("-1/2")])), k)] + parts[1:]
        want = oracle_matches_class(m, parts)
        if variant == "same":
            assert want
        assert matches_conjugacy_class(m, parts) == want


# -- the stored form ---------------------------------------------------------------
#
# A matrix is stored as ints: (re + i im)/den, reduced.  Each result is read
# back as Fraction pairs and compared with the same operation done on the
# Fraction pairs of its inputs, with `_cmul` above as the only product.


def _cadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def pair_rows(rows):
    return [[(gr(x).re, gr(x).im) for x in r] for r in rows]


def pair_matmul(a, b):
    return [
        [reduce(_cadd, (_cmul(x, b[k][j]) for k, x in enumerate(r)), (0, 0)) for j in range(len(b[0]))]
        for r in a
    ]


def stored_pairs(m):
    """The entries of m as Fraction pairs, computed from the stored ints."""
    assert len(m.re) == len(m.im) == m.nrows
    assert all(len(r) == len(s) == m.ncols for r, s in zip(m.re, m.im))
    return [[(Fraction(x, m.den), Fraction(y, m.den)) for x, y in zip(r, s)] for r, s in zip(m.re, m.im)]


def assert_reduced(m):
    numerators = [x for part in (m.re, m.im) for r in part for x in r]
    assert type(m.den) is int and m.den > 0
    assert all(type(x) is int for x in numerators)
    assert math.gcd(m.den, *numerators) == 1
    if not any(numerators):
        assert m.den == 1


def row_lists(nrows, ncols):
    return st.lists(st.lists(gaussians, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows)


nonzero_gaussians = gaussians.filter(bool)


class TestStoredForm:
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3), gaussians, st.data())
    @settings(max_examples=80, deadline=None)
    def test_results_match_fraction_pairs(self, nrows, ncols, k, c, data):
        ra, rb = data.draw(row_lists(nrows, ncols)), data.draw(row_lists(nrows, ncols))
        rm = data.draw(row_lists(ncols, k))
        a, b, m = ExactMatrix(nrows, ncols, ra), ExactMatrix(nrows, ncols, rb), ExactMatrix(ncols, k, rm)
        A, B, M = pair_rows(ra), pair_rows(rb), pair_rows(rm)
        C = (c.re, c.im)
        ri = data.draw(st.lists(st.integers(0, nrows - 1), max_size=3))
        ci = data.draw(st.lists(st.integers(0, ncols - 1), max_size=3))
        results = {
            "constructor": (a, A),
            "from_rows": (E(ra), A),
            "from_columns": (ExactMatrix.from_columns([tuple(r[j] for r in ra) for j in range(ncols)]), A),
            "sum": (a + b, [[_cadd(x, y) for x, y in zip(r, s)] for r, s in zip(A, B)]),
            "difference": (a - b, [[_cadd(x, (-y[0], -y[1])) for x, y in zip(r, s)] for r, s in zip(A, B)]),
            "negation": (-a, [[(-x[0], -x[1]) for x in r] for r in A]),
            "scale": (a.scale(c), [[_cmul(C, x) for x in r] for r in A]),
            "left scalar product": (c * a, [[_cmul(C, x) for x in r] for r in A]),
            "product": (a * m, pair_matmul(A, M)),
            "transpose": (a.transpose(), [list(col) for col in zip(*A)]),
            "submatrix": (a.submatrix(ri, ci), [[A[i][j] for j in ci] for i in ri]),
            "hstack": (a.hstack(b), [r + s for r, s in zip(A, B)]),
            "vstack": (a.vstack(b), A + B),
            "block_matrix": (
                block_matrix([[a, b], [b, a]]),
                [r + s for r, s in zip(A, B)] + [s + r for r, s in zip(A, B)],
            ),
            "zeros": (ExactMatrix.zeros(nrows, ncols), [[(0, 0)] * ncols] * nrows),
            "identity": (ExactMatrix.identity(nrows), [[(int(i == j), 0) for j in range(nrows)] for i in range(nrows)]),
            "diagonal": (
                ExactMatrix.diagonal(ra[0]),
                [[A[0][i] if i == j else (0, 0) for j in range(ncols)] for i in range(ncols)],
            ),
        }
        if nrows == ncols:
            results["shift"] = (a.shift(c), [[_cadd(x, C) if i == j else x for j, x in enumerate(r)] for i, r in enumerate(A)])
        for name, (got, want) in results.items():
            assert_reduced(got)
            assert stored_pairs(got) == want, name
        # the scalar edge reads the same entries
        assert [[(x.re, x.im) for x in r] for r in a.rows] == A
        assert [[(a[i, j].re, a[i, j].im) for j in range(ncols)] for i in range(nrows)] == A
        assert [[(x.re, x.im) for x in a.column(j)] for j in range(ncols)] == [list(col) for col in zip(*A)]
        v = data.draw(st.lists(gaussians, min_size=ncols, max_size=ncols))
        assert [(x.re, x.im) for x in a.apply(v)] == [r[0] for r in pair_matmul(A, pair_rows([[x] for x in v]))]
        if nrows == ncols:
            t = a.trace()
            assert (t.re, t.im) == reduce(_cadd, (A[i][i] for i in range(nrows)))

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3), nonzero_gaussians, st.data())
    @settings(max_examples=60, deadline=None)
    def test_one_stored_form_per_value(self, nrows, ncols, k, c, data):
        rows = data.draw(row_lists(nrows, ncols))
        m = E(rows)
        b = data.draw(matrices(ncols, k))
        product = ExactMatrix(nrows, k, [[gr(x, y) for x, y in r] for r in pair_matmul(pair_rows(rows), pair_rows(b.rows))])
        same = [
            (m, ExactMatrix.from_columns([tuple(r[j] for r in rows) for j in range(ncols)])),
            (m, ExactMatrix.identity(nrows) * m),
            (m, m * ExactMatrix.identity(ncols)),
            (m, m.scale(c).scale(c.inverse())),
            (m, (m + m).scale(gr("1/2"))),
            (m, m.transpose().transpose()),
            (m, ExactMatrix.from_rows(m.rows)),
            (product, m * b),
            (ExactMatrix.zeros(nrows, ncols), m - m),
            (ExactMatrix.zeros(nrows, ncols), m.scale(0)),
        ]
        for want, got in same:
            assert_reduced(got)
            assert (got.den, got.re, got.im) == (want.den, want.re, want.im)
            assert got == want and hash(got) == hash(want)
        assert (m - m).den == 1

    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_system_json_formats_the_fraction_pairs(self, n, p, data):
        rows = [data.draw(row_lists(n, n)) for _ in range(p)]
        t = SchlesingerTuple(list(range(p)), [ExactMatrix(n, n, r) for r in rows])
        want = [[[format_scalar(GaussianRational(x, y)) for x, y in r] for r in pair_rows(m)] for m in rows]
        assert system_to_json(t)["matrices"] == want

    def test_system_json_is_unchanged(self):
        # sha256 of the sorted-key JSON, recorded before matrices were stored as ints
        t = random_schlesinger(random.Random(3), 3, 3)
        mc = middle_convolution(t, gr("1/3+2i"))
        digests = [
            hashlib.sha256(json.dumps(system_to_json(s), sort_keys=True).encode()).hexdigest()
            for s in (mc, onf_from_scf(mc))
        ]
        assert digests == [
            "987ed7f3491bdd2827a4daadbfe083befd46fb9e561307782d38194dc0ff962c",
            "f2e781d1473b77ce3a3b081d513df3cf0296118a90008b233303b84937b4d302",
        ]
