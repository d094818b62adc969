import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constructions import build_L, find_basic_2x2_tuple
from fuchsmc import linalg, modular, schlesinger
from fuchsmc.errors import (
    DuplicatePoleError,
    PartitionSizeMismatchError,
    PointMismatchError,
    SchemeUnavailableError,
    SizeMismatchError,
)
from fuchsmc.generate import random_scheme_tuple, random_schlesinger, rigid_family_realization
from fuchsmc.linalg import ExactMatrix, block_matrix, commutant_dim, inverse, rank
from fuchsmc.okubo import onf_from_scf, scf_from_onf
from fuchsmc.scalars import gr
from fuchsmc.schlesinger import (
    SchlesingerTuple,
    _attach_scheme,
    _equivalent_by_sylvester,
    _is_irreducible_by_closure,
    check_star_conditions,
    index_of_rigidity,
    infer_scheme,
    is_equivalent,
    is_irreducible,
    matches_conjugacy_class,
    matrix_tuples_equivalent,
    residue_at_infinity,
    verify_scheme,
)
from fuchsmc.spectral import RiemannScheme, canonical_column

E = ExactMatrix.from_rows


@pytest.fixture
def rank1_pair():
    return SchlesingerTuple([0, 1], [E([[2]]), E([[3]])])


class TestResidueAtInfinity:
    def test_single(self):
        assert residue_at_infinity(SchlesingerTuple([0], [E([[2]])])) == E([[-2]])

    def test_projectors(self):
        t = SchlesingerTuple([0, 1], [E([[1, 0], [0, 0]]), E([[0, 0], [0, 1]])])
        assert residue_at_infinity(t) == -ExactMatrix.identity(2)

    def test_random_triple_summation(self):
        rng = random.Random(5)
        mats = [
            E([[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)])
            for _ in range(3)
        ]
        t = SchlesingerTuple([0, 1, 2], mats)
        assert residue_at_infinity(t) == -(mats[0] + mats[1] + mats[2])

    def test_duplicate_poles_rejected(self):
        with pytest.raises(DuplicatePoleError):
            SchlesingerTuple([1, 1], [E([[1]]), E([[2]])])


class TestStarConditions:
    def test_single_point_vacuous(self):
        star, starstar = check_star_conditions(SchlesingerTuple([0], [E([[5]])]))
        assert star == (True,) and starstar == (True,)

    def test_shared_kernel_vector_breaks_it(self):
        e11 = E([[1, 0], [0, 0]])
        star, _ = check_star_conditions(SchlesingerTuple([0, 1], [e11, e11]))
        assert star[0] is False and star[1] is False

    def test_irreducible_tuples_pass(self):
        rng = random.Random(11)
        checked = 0
        while checked < 6:
            mats = [
                E([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
                for _ in range(2)
            ]
            t = SchlesingerTuple([0, 1], mats)
            if not is_irreducible(t):
                continue
            star, starstar = check_star_conditions(t)
            assert all(star) and all(starstar)
            checked += 1


class TestIrreducibility:
    def test_rank_one_always(self):
        assert is_irreducible(SchlesingerTuple([0, 1], [E([[0]]), E([[7]])]))

    def test_diagonal_pair_never(self):
        t = SchlesingerTuple(
            [0, 1], [ExactMatrix.diagonal([1, 2]), ExactMatrix.diagonal([3, 4])]
        )
        assert not is_irreducible(t)

    def test_nilpotent_pair(self):
        t = SchlesingerTuple([0, 1], [E([[0, 1], [0, 0]]), E([[0, 0], [1, 0]])])
        assert is_irreducible(t)


class TestEquivalence:
    def test_reflexive(self, rank1_pair):
        assert is_equivalent(rank1_pair, rank1_pair)

    def test_conjugated_pair(self):
        a1, a2 = E([[0, 1], [0, 0]]), E([[1, 0], [1, 0]])
        t = SchlesingerTuple([0, 1], [a1, a2])
        g = E([[1, 2], [1, 3]])
        gi = inverse(g)
        u = SchlesingerTuple([0, 1], [g * a1 * gi, g * a2 * gi])
        assert is_equivalent(t, u)
        assert is_equivalent(u, t)

    def test_rank_profile_distinguishes(self):
        t = SchlesingerTuple([0, 1], [E([[1, 0], [0, 0]]), E([[0, 1], [0, 0]])])
        u = SchlesingerTuple([0, 1], [ExactMatrix.identity(2), E([[0, 1], [0, 0]])])
        assert not is_equivalent(t, u)

    def test_poles_must_match(self, rank1_pair):
        moved = SchlesingerTuple([0, 2], rank1_pair.matrices)
        assert not is_equivalent(rank1_pair, moved)
        assert is_equivalent(SchlesingerTuple([0, 1], moved.matrices), rank1_pair)

    def test_jordan_vs_semisimple(self):
        jordan = SchlesingerTuple([0], [E([[1, 1], [0, 1]])])
        diag = SchlesingerTuple([0], [ExactMatrix.identity(2)])
        assert not is_equivalent(jordan, diag)

    def test_invertible_intertwiner_only_as_a_combination(self):
        # the intertwiners are spanned by E12 and E21, both singular
        a, b = E([[1, 0], [0, 2]]), E([[2, 0], [0, 1]])
        assert matrix_tuples_equivalent([a], [b])

    @pytest.mark.parametrize(
        "a_sizes,b_sizes", [((2, 2), (3, 1)), ((2, 2, 2), (3, 2, 1))]
    )
    def test_nilpotent_jordan_types_rejected_quickly(self, a_sizes, b_sizes):
        # same rank, characteristic polynomial and intertwiner dimension
        # pattern; only the ranks of the squares tell them apart
        def nilpotent(sizes):
            n = sum(sizes)
            rows = [[0] * n for _ in range(n)]
            start = 0
            for size in sizes:
                for i in range(start, start + size - 1):
                    rows[i][i + 1] = 1
                start += size
            return E(rows)

        a, b = nilpotent(a_sizes), nilpotent(b_sizes)
        zero = ExactMatrix.zeros(a.nrows)
        t0 = time.perf_counter()
        assert not matrix_tuples_equivalent([a, zero], [b, zero])
        assert time.perf_counter() - t0 < 5


class TestIndexOfRigidity:
    def test_rank_one_two_points(self, rank1_pair):
        assert index_of_rigidity(rank1_pair) == 2

    def test_hypergeometric_is_two(self):
        # rank 2, two finite points, all residues with distinct eigenvalues
        a1 = E([[0, 1], [0, 1]])
        a2 = E([[0, 0], [1, 1]])
        t = SchlesingerTuple([0, 1], [a1, a2])
        assert rank(a1) == 1 and rank(a2) == 1
        assert index_of_rigidity(t) == 2

    def test_four_point_rank_two_is_zero(self):
        # residues of a basic tuple: three rank-one pieces with simple spectra
        t = find_basic_2x2_tuple()
        assert index_of_rigidity(t) == 0


class TestConjugacyClasses:
    def test_build_L_scalar(self):
        assert build_L([(gr(4), 3)]) == ExactMatrix.diagonal([4, 4, 4])

    def test_build_L_explicit_4x4(self):
        got = build_L([(gr(1), 2), (gr(2), 1), (gr(3), 1)])
        assert got == E(
            [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 2, 1], [0, 0, 0, 3]]
        )

    def test_build_L_sorts_by_multiplicity(self):
        got = build_L([(gr(0), 1), (gr(5), 2)])
        assert got == E([[5, 0, 1], [0, 5, 0], [0, 0, 0]])

    def test_membership_scalar(self):
        assert matches_conjugacy_class(ExactMatrix.diagonal([3, 3]), [(gr(3), 2)])

    def test_membership_of_representative(self):
        parts = [(gr(1), 2), (gr(2), 1), (gr(3), 1)]
        assert matches_conjugacy_class(build_L(parts), parts)

    def test_jordan_block_vs_split_parts(self):
        jordan_parts = [(gr(5), 1), (gr(5), 1)]
        assert matches_conjugacy_class(build_L(jordan_parts), jordan_parts)
        assert not matches_conjugacy_class(ExactMatrix.diagonal([5, 5]), jordan_parts)

    def test_conjugation_invariance(self):
        parts = [(gr(2), 2), (gr(-1), 1)]
        m = build_L(parts)
        g = E([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert matches_conjugacy_class(g * m * inverse(g), parts)

    def test_size_mismatch(self):
        with pytest.raises(PartitionSizeMismatchError):
            matches_conjugacy_class(ExactMatrix.identity(2), [(gr(1), 3)])


class TestVerifyScheme:
    def test_rank_one(self):
        t = SchlesingerTuple([1], [E([[3]])])
        good = RiemannScheme([1], [[(gr(-3), 1)], [(gr(3), 1)]])
        bad = RiemannScheme([1], [[(gr(2), 1)], [(gr(3), 1)]])
        assert verify_scheme(t, good)
        assert not verify_scheme(t, bad)

    def test_point_mismatch(self):
        t = SchlesingerTuple([1], [E([[3]])])
        s = RiemannScheme([2], [[(gr(-3), 1)], [(gr(3), 1)]])
        with pytest.raises(PointMismatchError):
            verify_scheme(t, s)

    def test_trace_balance_of_verified_schemes(self):
        rng = random.Random(3)
        from fuchsmc.generate import random_scheme_tuple

        t = random_scheme_tuple(rng, 2, steps=1)
        s = t.scheme
        total = gr(0)
        for col in s.columns:
            for label, mult in col:
                total = total + label * gr(mult)
        assert total.is_zero()

    def test_rigid_normal_form_forms_no_product_and_no_rank(self, monkeypatch):
        # every prefix of every column is checked by the nullity chain, on the
        # stored ints: no ExactMatrix product and no rank call
        o = onf_from_scf(rigid_family_realization(5))
        t, s = scf_from_onf(o), o.scheme
        chains, products, ranks = [], [], []
        chain, rank_of = linalg.nullity_chain, linalg.rank

        def counting_chain(m, shifts):
            chains.append(m)
            return chain(m, shifts)

        def counting_rank(m):
            ranks.append(m)
            return rank_of(m)

        def refused_product(a, b):
            products.append((a, b))
            raise AssertionError("ExactMatrix product formed")

        monkeypatch.setattr(linalg, "nullity_chain", counting_chain)
        monkeypatch.setattr(linalg, "rank", counting_rank)
        monkeypatch.setattr(ExactMatrix, "__mul__", refused_product)
        # the same type, labels at infinity and at the first point moved apart
        wrong = RiemannScheme(
            s.poles,
            [[(l + 1, k) for l, k in s.column_at_infinity()], [(l - 1, k) for l, k in s.column_at(1)]]
            + list(s.columns[2:])
        )
        assert verify_scheme(t, s)
        assert not verify_scheme(t, wrong)
        assert products == [] and ranks == []
        assert len(chains) >= t.num_points + 1


class TestInferScheme:
    def test_rational_spectrum(self):
        t = SchlesingerTuple([0, 1], [E([[1, 1], [0, 2]]), ExactMatrix.zeros(2)])
        s = infer_scheme(t)
        assert verify_scheme(t, s)

    def test_gaussian_spectrum(self):
        t = SchlesingerTuple([0], [E([[gr(0, 1), 0], [0, gr(0, -1)]])])
        s = infer_scheme(t)
        assert verify_scheme(t, s)

    def test_jordan_structure_detected(self):
        t = SchlesingerTuple([0], [E([[2, 1], [0, 2]])])
        s = infer_scheme(t)
        assert list(s.column_at(1)) == [(gr(2), 1), (gr(2), 1)]

    def test_irrational_rejected(self):
        with pytest.raises(SchemeUnavailableError, match="residue at infinity has eigenvalues outside"):
            infer_scheme(SchlesingerTuple([0], [E([[0, 1], [2, 0]])]))
        # the residue at infinity, -[[1, 1], [2, 2]], has eigenvalues 0 and -3
        t = SchlesingerTuple([0, Fraction(1, 2)], [E([[1, 0], [0, 2]]), E([[0, 1], [2, 0]])])
        with pytest.raises(SchemeUnavailableError, match="residue at t_2 = 1/2 has eigenvalues outside"):
            infer_scheme(t)

    def test_declared_scheme_checked_at_construction(self):
        from fuchsmc.errors import InvariantError

        with pytest.raises(InvariantError):
            SchlesingerTuple(
                [0], [E([[3]])], RiemannScheme([0], [[(gr(1), 1)], [(gr(3), 1)]])
            )


def test_commutant_dim_of_class_representative_formula():
    parts = [(gr(1), 2), (gr(2), 1), (gr(3), 1)]
    assert commutant_dim(build_L(parts)) == 4 + 1 + 1


# -- certificates against the closures they replace ---------------------------------
#
# is_irreducible tries Norton's test mod p before the Burnside closure, and
# matrix_tuples_equivalent the spin basis of e_1 before the full intertwiner
# space; the closures stay as the fallbacks and are the oracles here.

P = modular.PRIMES[0]
seeds = st.integers(0, 10_000)


def random_matrix(rng, n, den=1, gaussian=True):
    """Entries in [-3, 3] (+ [-3, 3] i) over den, zero about a third of the time."""
    def entry():
        if rng.random() < 0.3:
            return gr(0)
        im = Fraction(rng.randint(-3, 3), den) if gaussian and rng.random() < 0.5 else 0
        return gr(Fraction(rng.randint(-3, 3), den), im)

    return ExactMatrix(n, n, [[entry() for _ in range(n)] for _ in range(n)])


def random_invertible(rng, n):
    while True:
        g = random_matrix(rng, n)
        if rank(g) == n:
            return g


def conjugate_all(mats, g):
    gi = inverse(g)
    return [g * m * gi for m in mats]


def block_triangular(rng, n, k, count, den=1):
    """Residues with the common invariant subspace spanned by e_1..e_k and a
    nonzero corner in the first one: reducible, usually indecomposable."""
    mats = []
    for i in range(count):
        m = random_matrix(rng, n, den)
        rows = [[gr(0) if r >= k and c < k else m[r, c] for c in range(n)] for r in range(n)]
        if i == 0:
            rows[0][k] = gr(1)
        mats.append(ExactMatrix(n, n, rows))
    return mats


def counted(monkeypatch, name):
    """Calls of the fallback schlesinger.<name> while the test runs."""
    original = getattr(schlesinger, name)
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(schlesinger, name, counting)
    return calls


def nilpotent(sizes):
    n = sum(sizes)
    rows = [[0] * n for _ in range(n)]
    start = 0
    for size in sizes:
        for i in range(start, start + size - 1):
            rows[i][i + 1] = 1
        start += size
    return E(rows)


class TestIrreducibilityCertificate:
    @given(seeds, st.integers(2, 4), st.integers(1, 3), st.sampled_from([1, 2, P]))
    @settings(max_examples=60, deadline=None)
    def test_random_tuples(self, seed, n, count, den):
        rng = random.Random(seed)
        mats = [random_matrix(rng, n, den) for _ in range(count)]
        t = SchlesingerTuple(range(count), mats)
        assert is_irreducible(t) == _is_irreducible_by_closure(mats)

    @given(seeds, st.integers(2, 4), st.integers(1, 3), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_reducible_indecomposable(self, seed, n, count, conjugate):
        rng = random.Random(seed)
        mats = block_triangular(rng, n, rng.randint(1, n - 1), count)
        if conjugate:
            mats = conjugate_all(mats, random_invertible(rng, n))
        assert not _is_irreducible_by_closure(mats)
        assert not is_irreducible(SchlesingerTuple(range(count), mats))

    def test_prime_denominator_moves_to_the_next_prime(self):
        q = gr(Fraction(1, P))
        mats = [E([[0, q], [0, 0]]), E([[0, 0], [q, 0]])]
        assert modular.reduce_matrices(mats, P) is None
        assert modular.full_matrix_algebra(mats)
        assert is_irreducible(SchlesingerTuple([0, 1], mats))

    def test_no_usable_prime_falls_back(self, monkeypatch):
        den = 1
        for p in modular.PRIMES:
            den *= p
        q = gr(Fraction(1, den))
        mats = [E([[0, q], [0, 0]]), E([[0, 0], [q, 0]])]
        assert not modular.full_matrix_algebra(mats)
        calls = counted(monkeypatch, "_is_irreducible_by_closure")
        assert is_irreducible(SchlesingerTuple([0, 1], mats))
        assert len(calls) == 1

    @pytest.mark.parametrize("sizes", [(2, 2), (3, 1), (2, 2, 2), (3, 2, 1)])
    def test_nilpotent_probes(self, sizes):
        a = nilpotent(sizes)
        zero = ExactMatrix.zeros(a.nrows)
        for mats in ([a, a.transpose()], [a, zero], [a, a.transpose(), a * a]):
            t = SchlesingerTuple(range(len(mats)), mats)
            assert is_irreducible(t) == _is_irreducible_by_closure(mats)


def seeded_only(t):
    """full_matrix_algebra on t's scheme hints alone: the random path finds
    no roots, so True comes from a hint."""
    with mock.patch.object(modular, "roots", lambda f, p: []):
        return modular.full_matrix_algebra(t.matrices, schlesinger._norton_hints(t))


def direct_sum(a: SchlesingerTuple, b: SchlesingerTuple) -> SchlesingerTuple:
    zero_ab, zero_ba = ExactMatrix.zeros(a.rank, b.rank), ExactMatrix.zeros(b.rank, a.rank)
    mats = [block_matrix([[x, zero_ab], [zero_ba, y]]) for x, y in zip(a.matrices, b.matrices)]
    cols = [ca + cb for ca, cb in zip(a.scheme.columns, b.scheme.columns)]
    return SchlesingerTuple(a.poles, mats, RiemannScheme(a.poles, cols))


def scalar_tuple(values) -> SchlesingerTuple:
    """The rank-one tuple of the given scalars, with its scheme."""
    values = [gr(v) for v in values]
    poles = list(range(len(values)))
    cols = [[(-sum(values, gr(0)), 1)]] + [[(v, 1)] for v in values]
    return SchlesingerTuple(poles, [E([[v]]) for v in values], RiemannScheme(poles, cols))


class TestSchemeSeededNorton:
    """is_irreducible seeded by a simple scheme label, against the closure."""

    @given(seeds, st.integers(2, 3), st.integers(1, 2))
    @settings(max_examples=25, deadline=None)
    def test_random_scheme_tuples(self, seed, p, steps):
        t = random_scheme_tuple(random.Random(seed), p, steps=steps)
        closure = _is_irreducible_by_closure(t.matrices)
        assert is_irreducible(t) == closure
        assert not seeded_only(t) or closure

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_rigid_family_needs_no_roots(self, n):
        t = rigid_family_realization(n)
        assert list(schlesinger._norton_hints(t))
        assert seeded_only(t) and _is_irreducible_by_closure(t.matrices)
        o = onf_from_scf(t)
        assert seeded_only(scf_from_onf(o))

    @given(seeds, st.integers(2, 3))
    @settings(max_examples=15, deadline=None)
    def test_reducible_direct_sum_stays_reducible(self, seed, p):
        # the labels 1000 + j cannot collide with the small labels of the
        # first summand, so every finite column has a simple label whose
        # kernel vector spins to a proper subspace
        a = random_scheme_tuple(random.Random(seed), p)
        t = direct_sum(a, scalar_tuple([1000 + j for j in range(p)]))
        verdicts = []
        norton = modular._norton
        with mock.patch.object(modular, "_norton", lambda *args: verdicts.append(norton(*args)) or verdicts[-1]):
            assert not is_irreducible(t)
        assert False in verdicts
        assert not _is_irreducible_by_closure(t.matrices)

    def test_label_no_listed_prime_can_reduce_is_skipped(self):
        # the scheme only proposes a label: one with a denominator every
        # listed prime divides is passed over, and the random path decides
        den = 1
        for q in modular.PRIMES:
            den *= q
        t = rigid_family_realization(3)
        lam = gr(Fraction(1, den))
        col = canonical_column([(lam, 1), (lam + 1, t.rank - 1)])
        t = _attach_scheme(t, RiemannScheme(t.poles, [col] * 3))
        assert [h[1] for h in schlesinger._norton_hints(t)] == [lam] * 3
        for p in modular.PRIMES:
            assert modular.reduce_scalar(lam, p) is None
        roots = []
        original = modular.roots
        with mock.patch.object(modular, "roots", lambda *a: roots.append(a) or original(*a)):
            assert is_irreducible(t)
        assert roots

    def test_wrong_label_is_checked_not_trusted(self):
        # a label that is no eigenvalue has nullity 0 mod p: passed over
        t = rigid_family_realization(3)
        cols = [canonical_column([(gr(10**6), 1), (gr(10**6 + 1), t.rank - 1)])]
        t = _attach_scheme(t, RiemannScheme(t.poles, cols + [canonical_column([(gr(10**6 + 2), t.rank)])] * 2))
        assert list(schlesinger._norton_hints(t))
        assert not seeded_only(t)
        assert is_irreducible(t)

    def test_nullity_is_checked_not_trusted(self):
        # a conjugated direct sum of two rank-one tuples: A_1 - 1 vanishes,
        # so any kernel vector mixes both summands and spins to everything;
        # only the nullity check keeps the wrongly declared simple label 1
        # from proving a reducible tuple irreducible
        g = E([[1, 2], [1, 3]])
        mats = conjugate_all([ExactMatrix.diagonal([1, 1]), ExactMatrix.diagonal([2, 3])], g)
        cols = [[(gr(0), 2)], [(gr(1), 1), (gr(7), 1)], [(gr(9), 2)]]
        t = _attach_scheme(SchlesingerTuple([0, 1], mats), RiemannScheme([0, 1], cols))
        assert [h[1] for h in schlesinger._norton_hints(t)] == [gr(1)]
        assert not seeded_only(t)
        assert not is_irreducible(t)


class TestEquivalenceCertificate:
    @given(seeds, st.integers(1, 4), st.integers(1, 3), st.sampled_from([1, P]))
    @settings(max_examples=50, deadline=None)
    def test_conjugates(self, seed, n, count, den):
        rng = random.Random(seed)
        a = [random_matrix(rng, n, den) for _ in range(count)]
        b = conjugate_all(a, random_invertible(rng, n))
        assert matrix_tuples_equivalent(a, b) == _equivalent_by_sylvester(a, b)

    @given(seeds, st.integers(2, 4), st.integers(2, 3))
    @settings(max_examples=50, deadline=None)
    def test_each_matrix_conjugated_on_its_own(self, seed, n, count):
        # every cheap invariant agrees; the tuples are usually not conjugate
        rng = random.Random(seed)
        a = [random_matrix(rng, n) for _ in range(count)]
        b = [conjugate_all([m], random_invertible(rng, n))[0] for m in a]
        assert matrix_tuples_equivalent(a, b) == _equivalent_by_sylvester(a, b)

    @given(seeds, st.integers(2, 4), st.integers(1, 3), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_reducible_indecomposable_against_its_split(self, seed, n, count, same):
        rng = random.Random(seed)
        k = rng.randint(1, n - 1)
        a = block_triangular(rng, n, k, count)
        # the same diagonal blocks without the corner
        split = [
            ExactMatrix(n, n, [[m[r, c] if (r < k) == (c < k) else gr(0) for c in range(n)] for r in range(n)])
            for m in a
        ]
        g = random_invertible(rng, n)
        a = conjugate_all(a, g)
        b = conjugate_all(a if same else split, random_invertible(rng, n))
        assert matrix_tuples_equivalent(a, b) == _equivalent_by_sylvester(a, b)

    @given(seeds, st.integers(1, 2), st.integers(1, 2))
    @settings(max_examples=20, deadline=None)
    def test_direct_sum_falls_back(self, seed, n, count):
        # Hom(a + a, a + a) has dimension 4: the spin basis does not decide
        rng = random.Random(seed)
        base = [random_matrix(rng, n) for _ in range(count)]
        zero = ExactMatrix.zeros(n)
        a = [block_matrix([[m, zero], [zero, m]]) for m in base]
        a = conjugate_all(a, random_invertible(rng, 2 * n))
        b = conjugate_all(a, random_invertible(rng, 2 * n))
        assert linalg.spin_conjugacy(a, b) is None
        assert matrix_tuples_equivalent(a, b)

    @given(seeds, st.integers(2, 4), st.integers(1, 3), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_e1_not_cyclic_falls_back(self, seed, n, count, conjugate):
        # e_1 spans an invariant line of every a_j
        rng = random.Random(seed)
        a = block_triangular(rng, n, 1, count)
        b = conjugate_all(a, random_invertible(rng, n)) if conjugate else [
            conjugate_all([m], random_invertible(rng, n))[0] for m in a
        ]
        assert linalg.spin_conjugacy(a, b) is None
        assert matrix_tuples_equivalent(a, b) == _equivalent_by_sylvester(a, b)

    @pytest.mark.parametrize(
        "a_sizes,b_sizes", [((2, 2), (3, 1)), ((2, 2, 2), (3, 2, 1)), ((2, 1), (2, 1))]
    )
    def test_nilpotent_probes(self, a_sizes, b_sizes):
        a, b = nilpotent(a_sizes), nilpotent(b_sizes)
        zero = ExactMatrix.zeros(a.nrows)
        g = E([[1 if i <= j else 0 for j in range(a.nrows)] for i in range(a.nrows)])
        for first, second in ([a, a.transpose()], [b, b.transpose()]), ([a, zero], [b, zero]):
            other = conjugate_all(second, g)
            assert matrix_tuples_equivalent(first, other) == _equivalent_by_sylvester(first, other)

    @given(seeds, st.integers(1, 4), st.integers(1, 3), st.integers(1, 3), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_characteristic_polynomials_differ(self, seed, n, count, shift, cyclic):
        # a conjugate with one residue shifted by a scalar; with e_1 spanning
        # an invariant line the spin does not decide, and the invariants do
        rng = random.Random(seed)
        if cyclic or n == 1:
            a = [random_matrix(rng, n) for _ in range(count)]
        else:
            a = block_triangular(rng, n, 1, count)
        b = conjugate_all(a, random_invertible(rng, n))
        j = rng.randrange(count)
        b[j] = b[j].shift(shift)
        assert linalg.char_poly(a[j]) != linalg.char_poly(b[j])
        if not cyclic and n > 1:
            assert linalg.spin_conjugacy(a, b) is None
        assert not _equivalent_by_sylvester(a, b)
        assert not matrix_tuples_equivalent(a, b)

    def test_shapes_are_checked_before_spinning(self, monkeypatch):
        def no_spin(*args):
            raise AssertionError("spun a malformed pair")

        monkeypatch.setattr(linalg, "spin_conjugacy", no_spin)
        a2, a3, wide = E([[1, 2], [3, 4]]), ExactMatrix.identity(3), E([[1, 2]])
        malformed = [([], []), ([], [a2]), ([a2], []), ([a2, a3], [a2, a3]), ([a2], [a2, a3])]
        malformed.append(([wide], [wide]))
        for a, b in malformed:
            with pytest.raises(SizeMismatchError):
                matrix_tuples_equivalent(a, b)
        assert not matrix_tuples_equivalent([a2], [a3])
        assert not matrix_tuples_equivalent([a2], [a2, a2])
        assert not matrix_tuples_equivalent([a2, a2], [a2])

    @given(seeds, st.integers(2, 4), st.integers(2, 3))
    @settings(max_examples=20, deadline=None)
    def test_irreducible_conjugates_form_no_characteristic_polynomial(self, seed, n, p):
        # e_1 is cyclic for an irreducible tuple and its intertwiners form a
        # space of dimension <= 1 (Schur), so the spin always decides
        rng = random.Random(seed)
        t = random_schlesinger(rng, n, p)
        other = SchlesingerTuple(t.poles, conjugate_all(t.matrices, random_invertible(rng, n)))
        with mock.patch.object(linalg, "char_poly", wraps=linalg.char_poly) as char_poly:
            with mock.patch.object(modular, "berkowitz", wraps=modular.berkowitz) as berkowitz:
                assert is_equivalent(t, other)
        assert char_poly.call_count == berkowitz.call_count == 0


def test_certificates_decide_generic_tuples():
    rng = random.Random(0)
    for n, p in [(2, 2), (3, 2), (3, 3), (4, 3)]:
        t = random_schlesinger(rng, n, p)
        assert modular.full_matrix_algebra(t.matrices)
        conj = conjugate_all(t.matrices, random_invertible(rng, n))
        assert linalg.spin_conjugacy(t.matrices, conj) is True
        apart = [conjugate_all([m], random_invertible(rng, n))[0] for m in t.matrices]
        assert _equivalent_by_sylvester(t.matrices, apart) is False
        assert linalg.spin_conjugacy(t.matrices, apart) is False


# -- a Gaussian prime of large norm ----------------------------------------------


TWO_SQUARE_B = 2**60 + 50  # 1 + b^2 is prime, so 1 + b i is a Gaussian prime


def test_two_square_split_is_exact():
    # inference on the 1x1 residue 1 + b i, whose norm exceeds 10^36; it runs
    # in a child process with a time limit, so that a root search that
    # factors the norm (by trial division, about 10^18 steps) fails this
    # test instead of hanging the suite
    z = f"gr(1, {TWO_SQUARE_B})"
    src = str(Path(schlesinger.__file__).resolve().parents[1])
    code = (
        "import time\n"
        "from fuchsmc.linalg import ExactMatrix\n"
        "from fuchsmc.scalars import gr\n"
        "from fuchsmc.schlesinger import SchlesingerTuple, infer_scheme\n"
        f"t = SchlesingerTuple([0], [ExactMatrix.from_rows([[{z}]])])\n"
        "start = time.perf_counter()\n"
        "scheme = infer_scheme(t)\n"
        "print(time.perf_counter() - start)\n"
        "print(scheme)\n"
    )
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    try:
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=20
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"no scheme for the residue {z} within 20 s")
    assert out.returncode == 0, out.stderr
    elapsed, scheme = out.stdout.strip().split("\n")
    assert float(elapsed) < 1.0
    assert scheme == f"RiemannScheme(inf=[-1-{TWO_SQUARE_B}i:1], 0=[1+{TWO_SQUARE_B}i:1])"
