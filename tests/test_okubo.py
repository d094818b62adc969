import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuchsmc.errors import (
    ConditionsFailError,
    DuplicatePoleError,
    EigenvalueCollisionError,
    NotOkuboConvertibleError,
    PreconditionFailError,
)
from fuchsmc import linalg
from fuchsmc.generate import (
    random_composition,
    random_okubo,
    random_scheme_tuple,
    rigid_family_realization,
)
from fuchsmc.katz import middle_convolution
from fuchsmc.linalg import ExactMatrix, kernel_basis, largest_invariant_subspace, rank
from fuchsmc.okubo import (
    OkuboSystem,
    _structural_zero,
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
    _class_column,
    check_star_conditions,
    is_equivalent,
    residue_at_infinity,
    verify_scheme,
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

    def test_duplicate_poles_rejected(self):
        # the same error as SchlesingerTuple's
        with pytest.raises(DuplicatePoleError):
            OkuboSystem([1, 1], [0, 0], E([[1, 0], [0, 1]]))

    def test_rank_sum_deficit_rejected(self):
        t = SchlesingerTuple([0, 1], [E([[1, 0], [0, 0]]), ExactMatrix.zeros(2)])
        with pytest.raises(NotOkuboConvertibleError):
            onf_from_scf(t)

    def test_zero_residue_rejected(self):
        # the ranks sum to n and the images fill the space, but the zero
        # residue at t_2 = 5 would be an empty block
        t = SchlesingerTuple([0, 5, 1], [E([[1, 0], [0, 0]]), ExactMatrix.zeros(2), E([[0, 0], [0, 1]])])
        with pytest.raises(NotOkuboConvertibleError, match="t_2 = 5 is zero"):
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


# -- verify_scheme against the class scheme, and the block lemma


def class_scheme(t):
    """The scheme of t read off each residue's class column, or None when a
    residue has an eigenvalue outside Q(i); verify_scheme is not called."""
    cols = [_class_column(m) for m in (residue_at_infinity(t),) + t.matrices]
    return None if None in cols else RiemannScheme(t.poles, cols)


def rational_spectrum_onf(rng, n):
    """A normal-form system whose coefficient matrix and diagonal blocks all
    have eigenvalues in Q(i), often with an invertible A and a singular block.

    T is block upper triangular with diagonal blocks [d] or [[0, a], [b, 0]]
    (ab = 1, 4, -1 or -4).  A principal submatrix of T is again block
    triangular, its diagonal blocks being whole diagonal blocks of T or
    their zero diagonal entries.  A is T with its coordinates permuted and
    then conjugated by a random block-diagonal matrix, which keeps the
    normal-form shape and every class."""
    sizes = []
    while sum(sizes) < n:
        sizes.append(2 if n - sum(sizes) >= 2 and rng.random() < 0.5 else 1)
    block_of = [b for b, size in enumerate(sizes) for _ in range(size)]
    rows = sparse_rows(rng, n, 0.5)
    for i in range(n):
        for j in range(n):
            if block_of[j] < block_of[i]:
                rows[i][j] = gr(0)
    k = 0
    for size in sizes:
        if size == 1:
            rows[k][k] = gr(rng.choice([0, 1, 1, -1, 2]))
        else:
            a, b = rng.choice([(1, 1), (1, 4), (2, 2), (1, -1), (-2, 2)])
            rows[k][k] = rows[k + 1][k + 1] = gr(0)
            rows[k][k + 1], rows[k + 1][k] = gr(a), gr(b)
        k += size
    perm = list(range(n))
    rng.shuffle(perm)
    a = ExactMatrix(n, n, [[rows[i][j] for j in perm] for i in perm])
    blocks = random_composition(rng, n, max_parts=4, min_parts=2)
    g = linalg.block_matrix(
        [
            [invertible(rng, b) if i == j else ExactMatrix.zeros(b, c) for j, c in enumerate(blocks)]
            for i, b in enumerate(blocks)
        ]
    )
    return OkuboSystem(blocks, list(range(len(blocks))), linalg.inverse(g) * a * g)


def random_okubo_with_scheme(rng):
    """A `random_okubo` system of rank 2 or 3 whose residues all have
    eigenvalues in Q(i), with that scheme; such draws are about one in five
    at rank 2."""
    while True:
        o = random_okubo(rng, rng.choice([2, 2, 3]), irreducible=False)
        s = class_scheme(scf_from_onf(o))
        if s is not None:
            return o, s


def overlapping_tuple(rng, n):
    """Residues whose sum T is upper triangular, up to one permutation of the
    coordinates.  The first is the rank-one u T_0 with u = e_0 + c e_1: its
    two nonzero rows are dependent.  The second holds T_1 - c T_0, so the
    two share row 1; the other rows of T go to the second and third
    residues.  Every residue has eigenvalues in Q: the first has rank one,
    and the others are upper triangular on their nonzero rows."""
    t = [[gr(0)] * n for _ in range(n)]
    for i in range(n):
        t[i][i] = gr(rng.choice([0, 1, 1, -1, 2]))
        for j in range(i + 1, n):
            t[i][j] = gr(rng.randint(-2, 2))
    c = gr(rng.choice([1, -1, 2]))
    mats = [[[gr(0)] * n for _ in range(n)] for _ in range(rng.randint(2, 3))]
    mats[0][0], mats[0][1] = t[0], [c * x for x in t[0]]
    mats[1][1] = [x - c * y for x, y in zip(t[1], t[0])]
    for i in range(2, n):
        mats[rng.randrange(1, len(mats))][i] = t[i]
    perm = list(range(n))
    rng.shuffle(perm)
    return SchlesingerTuple(
        range(len(mats)), [ExactMatrix(n, n, [[rows[i][j] for j in perm] for i in perm]) for rows in mats]
    )


def perturbed(rng, s):
    """s with one column changed: a label shifted, the zero part resized
    (or created), a part split in two, or two parts merged; None when the
    drawn change does not apply to the drawn column."""
    c = rng.randrange(len(s.columns))
    col = list(s.columns[c])
    k = rng.randrange(len(col))
    label, mult = col[k]
    kind = rng.choice(["shift", "resize zero", "split", "merge"])
    if kind == "shift":
        col[k] = (label + rng.choice([1, -1]), mult)
    elif kind == "resize zero":
        z = next((i for i, (l, _) in enumerate(col) if l.is_zero()), None)
        if z is None:
            col.append((gr(0), 0))
            z = len(col) - 1
        others = [i for i in range(len(col)) if i != z]
        if not others:
            return None
        o = rng.choice(others)
        d = 1 if col[z][1] == 0 else rng.choice([1, -1])
        col[z], col[o] = (gr(0), col[z][1] + d), (col[o][0], col[o][1] - d)
    elif kind == "split":
        if mult < 2:
            return None
        cut = rng.randint(1, mult - 1)
        col[k : k + 1] = [(label, cut), (label, mult - cut)]
    else:
        if len(col) < 2:
            return None
        other = rng.choice([i for i in range(len(col)) if i != k])
        col[k] = (label, mult + col[other][1])
        del col[other]
    cols = list(s.columns)
    cols[c] = col
    return RiemannScheme(s.poles, cols)


class TestBlockCheckAgainstFullSize:
    """`verify_scheme` accepts exactly the class scheme, and the block lemma
    of `_structural_zero` holds on the normal forms with A invertible."""

    @given(
        st.integers(0, 10_000),
        st.integers(2, 6),
        st.sampled_from(["normal form", "random okubo", "rigid family", "rank one", "overlapping"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_verify_scheme(self, seed, n, source):
        rng = random.Random(seed)
        o = None
        if source == "normal form":
            o = rational_spectrum_onf(rng, n)
            t = scf_from_onf(o)
            s = class_scheme(t)
        elif source == "random okubo":
            o, s = random_okubo_with_scheme(rng)
            t = scf_from_onf(o)
        elif source == "rigid family":
            o = onf_from_scf(rigid_family_realization(min(n, 5)))
            t, s = scf_from_onf(o), o.scheme
            o = o.with_scheme(None)
        elif source == "rank one":
            # a singular A with blocks of size one
            u, v = ([gr(rng.choice([-2, -1, 1, 2])) for _ in range(n)] for _ in range(2))
            o = OkuboSystem([1] * n, range(n), ExactMatrix(n, n, [[x * y for y in v] for x in u]))
            t = scf_from_onf(o)
            s = class_scheme(t)
        else:
            t = overlapping_tuple(rng, n)
            s = class_scheme(t)
        assert verify_scheme(t, s) and s == class_scheme(t)
        if o is not None and rank(o.a) == o.rank:
            # the block lemma: each residue's class, its structural zero
            # removed, is the class of its diagonal block
            for j, nj in enumerate(o.block_sizes, 1):
                block = _structural_zero(_class_column(t.matrices[j - 1]), o.rank, nj)
                assert tuple(block) == _class_column(o.diagonal_block(j))
        for _ in range(8):
            bad = perturbed(rng, s)
            if bad is not None:
                assert verify_scheme(t, bad) == (bad == s)
        if o is not None:
            # the rank of A read from the scheme, or by elimination
            assert check_onf_conditions(o.with_scheme(s)) == check_onf_conditions(o)

    def test_inputs_reach_both_paths(self):
        # the generator yields invertible A with singular diagonal blocks
        # (the block lemma with zero labels in the block's class) and
        # singular A
        kinds = set()
        for seed in range(60):
            o = rational_spectrum_onf(random.Random(seed), 4)
            singular_block = any(rank(o.diagonal_block(j)) < b for j, b in enumerate(o.block_sizes, 1))
            kinds.add((rank(o.a) == 4, singular_block))
        assert {(True, True), (False, True), (True, False)} <= kinds
