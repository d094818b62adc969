import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuchsmc.errors import (
    ConditionsFailError,
    EigenvalueCollisionError,
    NotOkuboConvertibleError,
    PreconditionFailError,
)
from fuchsmc import linalg
from fuchsmc.generate import random_composition, random_okubo, random_scheme_tuple
from fuchsmc.katz import middle_convolution
from fuchsmc.linalg import ExactMatrix, kernel_basis, largest_invariant_subspace, rank
from fuchsmc.okubo import (
    OkuboSystem,
    check_onf_conditions,
    euler_transform,
    mc_via_images,
    onf_from_scf,
    pick_generic,
    scf_from_onf,
)
from fuchsmc.scalars import gr
from fuchsmc.schlesinger import (
    SchlesingerTuple,
    check_star_conditions,
    is_equivalent,
)
from fuchsmc.spectral import RiemannScheme

E = ExactMatrix.from_rows


@pytest.fixture
def rank1_onf():
    scheme = RiemannScheme([0], [[(gr(-3), 1)], [(gr(3), 1)]])
    return OkuboSystem([1], [0], E([[3]]), scheme)


class TestShapeDictionary:
    def test_single_block(self):
        o = OkuboSystem([1], [0], E([[7]]))
        assert scf_from_onf(o).matrices == (E([[7]]),)

    def test_two_blocks_of_one(self):
        o = OkuboSystem([1, 1], [0, 1], E([[1, 2], [3, 4]]))
        t = scf_from_onf(o)
        assert t.matrices[0] == E([[1, 2], [0, 0]])
        assert t.matrices[1] == E([[0, 0], [3, 4]])

    def test_block_rows_partition_the_matrix(self):
        rng = random.Random(1)
        o = random_okubo(rng, 3)
        t = scf_from_onf(o)
        total = t.matrices[0]
        for m in t.matrices[1:]:
            total = total + m
        assert total == o.a

    def test_residue_tuple_is_built_once(self, rank1_onf):
        o = OkuboSystem([1, 1], [0, 1], E([[1, 2], [3, 4]]))
        assert scf_from_onf(o).matrices is scf_from_onf(o).matrices
        # with a scheme, each call attaches it to the one kept tuple
        t = scf_from_onf(rank1_onf)
        assert t.scheme is rank1_onf.scheme
        assert scf_from_onf(rank1_onf.with_scheme(None)).matrices == t.matrices
        assert scf_from_onf(rank1_onf).matrices is t.matrices

    def test_onf_from_scf_round_trip(self):
        o = OkuboSystem([1, 1], [0, 1], E([[1, 2], [3, 4]]))
        t = scf_from_onf(o)
        o2 = onf_from_scf(t)
        assert o2.block_sizes == (1, 1)
        assert is_equivalent(scf_from_onf(o2), t)

    def test_image_basis_conjugator(self):
        # images span{(1,1)} and span{(0,1)} force the lower-triangular change
        a1 = E([[1, 0], [1, 0]])
        a2 = E([[0, 0], [0, 1]])
        t = SchlesingerTuple([0, 1], [a1, a2])
        o = onf_from_scf(t)
        assert o.block_sizes == (1, 1)
        assert is_equivalent(scf_from_onf(o), t)

    def test_rank_sum_deficit_rejected(self):
        t = SchlesingerTuple([0, 1], [E([[1, 0], [0, 0]]), ExactMatrix.zeros(2)])
        with pytest.raises(NotOkuboConvertibleError):
            onf_from_scf(t)


class TestConditions:
    def test_rank_one_with_nonzero_coefficient(self, rank1_onf):
        assert check_onf_conditions(rank1_onf)

    def test_singular_coefficient_fails(self):
        o = OkuboSystem([1, 1], [0, 1], E([[1, 1], [1, 1]]))
        assert not check_onf_conditions(o)

    def test_agreement_with_tuple_conditions(self):
        rng = random.Random(7)
        from fuchsmc.generate import random_composition, random_matrix

        for _ in range(40):
            n = rng.randint(2, 4)
            blocks = random_composition(rng, n, min_parts=2)
            o = OkuboSystem(blocks, list(range(len(blocks))), random_matrix(rng, n))
            star, starstar = check_star_conditions(scf_from_onf(o))
            assert check_onf_conditions(o) == (all(star) and all(starstar))


# -- genericity as an observability rank, against the invariant-subspace fixpoint


def fixpoint_flags(mats):
    """Per i, whether the largest A_i-invariant subspace of the common kernel
    of the other matrices is zero, by `largest_invariant_subspace`."""
    flags = []
    for i, a in enumerate(mats):
        others = [m for k, m in enumerate(mats) if k != i]
        if not others:
            flags.append(True)
            continue
        stacked = functools.reduce(ExactMatrix.vstack, others)
        flags.append(not largest_invariant_subspace(a, kernel_basis(stacked)))
    return tuple(flags)


def onf_conditions_by_fixpoint(o):
    n = o.rank
    if rank(o.a) != n:
        return False
    for i in range(1, o.num_points + 1):
        rng = o.block_range(i)
        others = [r for r in range(n) if r not in rng]
        aii = o.a.submatrix(rng, rng)
        for a, strip in (
            (aii, o.a.submatrix(others, rng)),
            (aii.transpose(), o.a.submatrix(rng, others).transpose()),
        ):
            if strip.nrows and largest_invariant_subspace(a, kernel_basis(strip)):
                return False
    return True


def sparse_rows(rng, n, zeros):
    def entry():
        if rng.random() < zeros:
            return gr(0)
        return gr(rng.randint(-3, 3), rng.randint(-2, 2) if rng.random() < 0.3 else 0)

    return [[entry() for _ in range(n)] for _ in range(n)]


def invertible(rng, n):
    while True:
        g = ExactMatrix(n, n, sparse_rows(rng, n, 0.3))
        if rank(g) == n:
            return g


def planted_onf(rng, n, plant):
    """A normal-form system with sparse entries, conjugated by a random
    block-diagonal matrix (which keeps the shape and the conditions).  With
    `plant`, the first coordinate of a random block is an eigenvector of
    its diagonal block that the rest of its column strip kills (or the same
    for the row strip), so the conditions fail."""
    blocks = random_composition(rng, n, min_parts=2)
    rows = sparse_rows(rng, n, rng.choice([0.2, 0.5]))
    if plant:
        k = sum(blocks[: rng.randrange(len(blocks))])
        rows[k][k] = gr(rng.randint(1, 3))
        by_column = rng.random() < 0.5
        for r in range(n):
            if r != k:
                if by_column:
                    rows[r][k] = gr(0)
                else:
                    rows[k][r] = gr(0)
    g = linalg.block_matrix(
        [
            [invertible(rng, b) if i == j else ExactMatrix.zeros(b, c) for j, c in enumerate(blocks)]
            for i, b in enumerate(blocks)
        ]
    )
    return OkuboSystem(blocks, list(range(len(blocks))), linalg.inverse(g) * ExactMatrix(n, n, rows) * g)


class TestGenericityAgainstFixpoint:
    @given(st.integers(0, 10_000), st.integers(2, 5), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_onf_conditions(self, seed, n, plant):
        o = planted_onf(random.Random(seed), n, plant)
        want = onf_conditions_by_fixpoint(o)
        assert check_onf_conditions(o) == want
        assert not (plant and want)

    @given(st.integers(0, 10_000), st.integers(2, 5), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_star_conditions(self, seed, n, plant):
        rng = random.Random(seed)
        if rng.random() < 0.5:
            mats = list(scf_from_onf(planted_onf(rng, n, plant)).matrices)
        else:
            # any tuple; with `plant`, e_1 is an eigenvector of one residue
            # killed by all the others, then everything is conjugated
            mats = [sparse_rows(rng, n, 0.4) for _ in range(rng.randint(1, 3))]
            if plant:
                i = rng.randrange(len(mats))
                for k, rows in enumerate(mats):
                    for r in range(n):
                        rows[r][0] = gr(rng.randint(1, 3)) if (k, r) == (i, 0) else gr(0)
            g = invertible(rng, n)
            mats = [linalg.inverse(g) * ExactMatrix(n, n, rows) * g for rows in mats]
        t = SchlesingerTuple(range(len(mats)), mats)
        star, starstar = check_star_conditions(t)
        assert star == fixpoint_flags(mats)
        assert starstar == fixpoint_flags([m.transpose() for m in mats])
        if plant and len(mats) > 1:
            assert not (all(star) and all(starstar))

    def test_both_verdicts_occur(self):
        verdicts = {check_onf_conditions(planted_onf(random.Random(s), 3, False)) for s in range(40)}
        assert verdicts == {True, False}


class TestImageRealization:
    def test_rank_one_is_the_scalar_shift(self, rank1_onf):
        out = mc_via_images(rank1_onf, 2)
        assert out.a == E([[5]])
        assert out.block_sizes == (1,)

    def test_agrees_with_quotient_construction(self):
        rng = random.Random(13)
        done = 0
        while done < 6:
            o = random_okubo(rng, rng.randint(2, 4), irreducible=False)
            lam = gr(1) if rank(o.a.shift(1)) == o.rank else gr(2)
            if rank(o.a.shift(lam)) < o.rank:
                continue
            mi = mc_via_images(o, lam)
            mc = middle_convolution(scf_from_onf(o), lam)
            assert mi.rank == mc.rank
            assert is_equivalent(scf_from_onf(mi), mc)
            done += 1

    def test_lambda_zero_rejected(self, rank1_onf):
        with pytest.raises(PreconditionFailError):
            mc_via_images(rank1_onf, 0)

    def test_eigenvalue_collision_rejected(self, rank1_onf):
        with pytest.raises(EigenvalueCollisionError):
            mc_via_images(rank1_onf, -3)

    def test_conditions_checked(self):
        o = OkuboSystem([1, 1], [0, 1], E([[1, 1], [1, 1]]))
        with pytest.raises(ConditionsFailError):
            mc_via_images(o, 1)

    def test_unrelated_scheme_error_propagates(self, rank1_onf, monkeypatch):
        # only a scheme that cannot be normalised is dropped; any other
        # failure of the scheme transport is a bug and must surface
        def broken(scheme, lam):
            raise RuntimeError("broken scheme transport")

        monkeypatch.setattr("fuchsmc.okubo.predicted_scheme", broken)
        with pytest.raises(RuntimeError, match="broken scheme transport"):
            mc_via_images(rank1_onf, 2)


class TestEulerTransform:
    def test_identity_at_zero(self, rank1_onf):
        assert euler_transform(rank1_onf, 0) is rank1_onf

    def test_composes_additively(self, rank1_onf):
        one_two = euler_transform(euler_transform(rank1_onf, 1), 2)
        three = euler_transform(rank1_onf, 3)
        assert one_two.a == three.a

    def test_matches_image_realization(self):
        rng = random.Random(17)
        o = random_okubo(rng, 3, irreducible=False)
        lam = gr(1) if rank(o.a.shift(1)) == o.rank else gr(2)
        eu = euler_transform(o, lam)
        mi = mc_via_images(o, lam)
        assert is_equivalent(
            scf_from_onf(eu.with_scheme(None)), scf_from_onf(mi.with_scheme(None))
        )

    def test_preserves_conditions(self):
        rng = random.Random(19)
        o = random_okubo(rng, 3, irreducible=False)
        lam = gr(1) if rank(o.a.shift(1)) == o.rank else gr(2)
        assert check_onf_conditions(euler_transform(o, lam))

    def test_scheme_shift(self, rank1_onf):
        out = euler_transform(rank1_onf, 2)
        assert list(out.scheme.column_at_infinity()) == [(gr(-5), 1)]
        assert list(out.scheme.column_at(1)) == [(gr(5), 1)]


class TestOnfConvertibilityOfConvolutions:
    def test_both_directions(self):
        rng = random.Random(23)
        done = 0
        while done < 4:
            t = random_scheme_tuple(rng, 2, steps=1)
            star, starstar = check_star_conditions(t)
            if not (all(star) and all(starstar)):
                continue
            inf_labels = [l for l, _ in t.scheme.column_at_infinity()]
            lam_bad = inf_labels[0]
            with pytest.raises(NotOkuboConvertibleError):
                onf_from_scf(middle_convolution(t, lam_bad))
            lam_good = pick_generic(inf_labels)
            onf_from_scf(middle_convolution(t, lam_good))  # must not raise
            done += 1


class TestPickGeneric:
    def test_empty(self):
        assert pick_generic([]) == gr(1)

    def test_skips_listed(self):
        assert pick_generic([1, 2]) == gr(3)

    def test_full_prefix(self):
        assert pick_generic(list(range(1, 8))) == gr(8)
