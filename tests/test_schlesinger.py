import random
import time

import pytest

from fuchsmc.errors import (
    DuplicatePoleError,
    PartitionSizeMismatchError,
    PointMismatchError,
    SchemeUnavailableError,
)
from fuchsmc.linalg import ExactMatrix, commutant_dim, inverse, rank
from fuchsmc.scalars import gr
from fuchsmc.schlesinger import (
    SchlesingerTuple,
    build_L,
    check_star_conditions,
    index_of_rigidity,
    infer_scheme,
    is_equivalent,
    is_irreducible,
    matches_conjugacy_class,
    matrix_tuples_equivalent,
    residue_at_infinity,
    verify_scheme,
    with_poles,
)
from fuchsmc.spectral import RiemannScheme

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
        moved = with_poles(rank1_pair, [0, 2])
        assert not is_equivalent(rank1_pair, moved)
        assert is_equivalent(with_poles(moved, [0, 1]), rank1_pair)

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
        from fuchsmc.generate import find_basic_2x2_tuple

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
        with pytest.raises(SchemeUnavailableError):
            infer_scheme(SchlesingerTuple([0], [E([[0, 1], [2, 0]])]))

    def test_declared_scheme_checked_at_construction(self):
        from fuchsmc.errors import InvariantError

        with pytest.raises(InvariantError):
            SchlesingerTuple(
                [0], [E([[3]])], RiemannScheme([0], [[(gr(1), 1)], [(gr(3), 1)]])
            )


def test_commutant_dim_of_class_representative_formula():
    parts = [(gr(1), 2), (gr(2), 1), (gr(3), 1)]
    assert commutant_dim(build_L(parts)) == 4 + 1 + 1
