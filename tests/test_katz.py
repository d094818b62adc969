import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import constructions
import yokoyama_cases
from constructions import attach_predicted, big_matrices, complete_to_basis, find_basic_2x2_tuple
from fuchsmc import linalg
from fuchsmc.cli import main
from fuchsmc.errors import (
    CalculusError,
    DuplicatePoleError,
    IndexRangeError,
    InvariantError,
    LengthMismatchError,
    NotAPermutationError,
    NotIrreducibleError,
    NotOkuboConvertibleError,
    PreconditionFailError,
    SchemeUnavailableError,
)
from fuchsmc.generate import random_scheme_tuple, random_schlesinger, rigid_family_realization
from fuchsmc.identities import run_katz_suite
from fuchsmc.katz import (
    _mc_max,
    _shifted,
    addition,
    append_infinity_pole,
    convolution,
    drop_trailing_zero_pole,
    mc_max,
    middle_convolution,
    permute,
    plan_step,
    predicted_scheme,
    swap_with_infinity,
)
from fuchsmc.linalg import (
    ExactMatrix,
    block_matrix,
    inverse,
    kernel_basis,
    rank,
)
from fuchsmc.okubo import OkuboSystem, mc_via_images, onf_from_scf, scf_from_onf
from fuchsmc.reduction import reduction_lines
from fuchsmc.scalars import ZERO, gr
from fuchsmc.schlesinger import (
    SchlesingerTuple,
    index_of_rigidity,
    is_equivalent,
    is_irreducible,
    residue_at_infinity,
)
from fuchsmc.serialization import save_system, system_to_json
from fuchsmc.spectral import RiemannScheme, d_max, format_spectral_type, ord_of, parse_spectral_type

E = ExactMatrix.from_rows


@pytest.fixture
def rank1():
    scheme = RiemannScheme([0, 1], [[(gr(-5), 1)], [(gr(2), 1)], [(gr(3), 1)]])
    return SchlesingerTuple([0, 1], [E([[2]]), E([[3]])], scheme)


class TestAddition:
    def test_zero_shift(self, rank1):
        out = addition(rank1, [0, 0])
        assert out.matrices == rank1.matrices
        assert out.scheme.tuple_ == rank1.scheme.tuple_

    def test_scalar(self):
        t = SchlesingerTuple([0], [E([[2]])])
        assert addition(t, [3]).matrices[0] == E([[5]])

    def test_infinity_shift(self):
        rng = random.Random(9)
        t = random_schlesinger(rng, 2, 3)
        mu = [1, -2, 3]
        out = addition(t, mu)
        expected = residue_at_infinity(t).shift(-sum(mu))
        assert residue_at_infinity(out) == expected

    def test_length_mismatch(self, rank1):
        with pytest.raises(LengthMismatchError):
            addition(rank1, [1])


class TestConvolution:
    def test_single_point_block(self):
        t = SchlesingerTuple([0], [E([[4]])])
        cd = convolution(t, gr(3))
        assert big_matrices(cd) == [E([[7]])]

    def test_two_point_assembly(self):
        t = SchlesingerTuple([0, 1], [E([[2]]), E([[3]])])
        cd = convolution(t, gr(5))
        assert big_matrices(cd)[0] == E([[7, 3], [0, 0]])
        assert big_matrices(cd)[1] == E([[0, 0], [2, 8]])

    def test_invertible_residues_have_trivial_kernel(self):
        t = SchlesingerTuple([0, 1], [E([[2]]), E([[3]])])
        assert constructions.k_basis(convolution(t, gr(1))) == []

    def test_subspace_dimensions_add_up(self):
        rng = random.Random(2)
        t = random_schlesinger(rng, 2, 2)
        cd = convolution(t, gr(1))
        pn = 4
        span = constructions.span_basis(cd)
        overlap = len(constructions.k_basis(cd)) + len(constructions.l_basis(cd)) - len(span)
        assert overlap >= 0
        assert len(span) + len(cd.complement_basis) == pn


class TestMiddleConvolution:
    def test_mc0_identity(self, rank1):
        assert is_equivalent(middle_convolution(rank1, 0), rank1)

    def test_rank_formula_direct(self):
        t = SchlesingerTuple([0], [E([[4]])])
        out = middle_convolution(t, 1)
        cd = convolution(t, gr(1))
        pn = 1
        assert out.rank == pn - len(constructions.span_basis(cd))

    def test_composition_on_random_irreducible(self):
        rng = random.Random(4)
        t = random_schlesinger(rng, 2, 2)
        two = middle_convolution(middle_convolution(t, 1), 2)
        one = middle_convolution(t, 3)
        assert is_equivalent(two, one)

    def test_idx_preserved(self, rank1):
        out = middle_convolution(rank1, 1)
        assert index_of_rigidity(out) == index_of_rigidity(rank1)

    def test_scheme_transported_and_verified(self, rank1):
        out = middle_convolution(rank1, 1)
        assert out.rank == 2
        assert out.scheme is not None
        assert format_spectral_type(out.scheme.spectral_type()) == "11,11,11"

    def test_total_collapse_is_an_error(self):
        from fuchsmc.errors import PreconditionFailError

        t = SchlesingerTuple([0], [E([[4]])])
        with pytest.raises(PreconditionFailError):
            middle_convolution(t, -4)


class TestPointOperations:
    def test_swap_involution(self, rank1):
        assert swap_with_infinity(swap_with_infinity(rank1, 1), 1).matrices == rank1.matrices

    def test_swap_single_point_negates(self):
        t = SchlesingerTuple([0], [E([[4]])])
        assert swap_with_infinity(t, 1).matrices[0] == E([[-4]])

    def test_swap_out_of_range(self, rank1):
        with pytest.raises(IndexRangeError):
            swap_with_infinity(rank1, 3)

    def test_swap_preserves_idx(self):
        rng = random.Random(6)
        t = random_schlesinger(rng, 2, 3)
        assert index_of_rigidity(swap_with_infinity(t, 2)) == index_of_rigidity(t)

    def test_permute_identity_and_involution(self, rank1):
        assert permute(rank1, [1, 2]).matrices == rank1.matrices
        twice = permute(permute(rank1, [2, 1]), [2, 1])
        assert twice.matrices == rank1.matrices and twice.poles == rank1.poles

    def test_permute_rejects_non_bijection(self, rank1):
        with pytest.raises(NotAPermutationError):
            permute(rank1, [1, 1])

    def test_mc_commutes_with_permute(self):
        rng = random.Random(8)
        t = random_schlesinger(rng, 2, 3)
        sigma = [3, 1, 2]
        left = middle_convolution(permute(t, sigma), 2)
        right = permute(middle_convolution(t, 2), sigma)
        assert is_equivalent(left, right)

    def test_append_then_swap_gives_droppable_zero(self, rank1):
        ap = append_infinity_pole(rank1, 7)
        assert ap.num_points == 3 and ap.rank == rank1.rank
        sw = swap_with_infinity(ap, 3)
        assert sw.matrices[-1].is_zero()
        back = drop_trailing_zero_pole(sw)
        assert back.matrices == rank1.matrices

    def test_append_duplicate_pole(self, rank1):
        with pytest.raises(DuplicatePoleError):
            append_infinity_pole(rank1, 1)

    def test_append_preserves_idx_after_drop(self, rank1):
        # appending materializes the infinity residue; the new infinity residue
        # is zero, and dropping it after a swap restores the index bookkeeping
        ap = append_infinity_pole(rank1, 7)
        assert index_of_rigidity(drop_trailing_zero_pole(swap_with_infinity(ap, 3))) == 2


class TestPredictedScheme:
    def test_lambda_zero_unchanged(self, rank1):
        assert predicted_scheme(rank1.scheme, 0) is rank1.scheme

    def test_hypergeometric_collapse(self):
        s = RiemannScheme(
            [0, 1],
            [
                [(gr(2), 1), (gr(3), 1)],
                [(gr(0), 1), (gr(-2), 1)],
                [(gr(0), 1), (gr(-3), 1)],
            ],
        )
        out = predicted_scheme(s, 2)
        assert out.order == 1

    def test_basic_to_onf_shape(self):
        t = find_basic_2x2_tuple()
        out = predicted_scheme(t.scheme, 5)
        assert out.order == 3
        assert format_spectral_type(out.spectral_type()) == "111,21,21,21"


class TestMcMax:
    def test_needs_scheme(self):
        t = SchlesingerTuple([0, 1], [E([[2]]), E([[3]])])
        with pytest.raises(SchemeUnavailableError):
            mc_max(t)

    def test_needs_irreducibility(self):
        s = RiemannScheme(
            [0, 1],
            [
                [(gr(-3), 2)],
                [(gr(1), 2)],
                [(gr(2), 2)],
            ],
        )
        t = SchlesingerTuple(
            [0, 1], [ExactMatrix.diagonal([1, 1]), ExactMatrix.diagonal([2, 2])], s
        )
        with pytest.raises(NotIrreducibleError):
            mc_max(t)

    def test_rigid_rank2_drops_to_rank1(self):
        from fuchsmc.generate import rigid_family_realization

        t = rigid_family_realization(2)
        out = mc_max(t)
        assert out.rank == 1

    def test_rank_drop_matches_defect(self):
        from fuchsmc.generate import rigid_family_realization

        t = rigid_family_realization(3)
        m = t.scheme.spectral_type()
        out = mc_max(t)
        assert out.rank == ord_of(m) - d_max(m)
        assert format_spectral_type(out.scheme.spectral_type()) == "11,11,11"

    def test_rigid_family_past_nine(self):
        # the (n-1)1 column needs the parenthesised part "(10)1" at n = 11
        from fuchsmc.generate import rigid_family_realization, rigid_family_type

        t = rigid_family_realization(11)
        assert t.rank == 11
        assert rigid_family_type(11) == "11111111111,(10)1,11111111111"
        assert format_spectral_type(t.scheme.spectral_type()) == rigid_family_type(11)

    def test_basic_tuple_does_not_shrink(self):
        # type 11,11,11,11 has slot defect d = 0: no step lowers the order
        t = find_basic_2x2_tuple()
        with pytest.raises(PreconditionFailError, match="d = 0"):
            mc_max(t)


def normal_form_tuple(seed):
    """The residue tuple of the normal form of a `random_scheme_tuple` draw
    of rank 2 to 8, or None."""
    rng = random.Random(seed)
    try:
        t = random_scheme_tuple(rng, rng.choice([2, 3, 4]), rng.choice([1, 2, 3]))
        return scf_from_onf(onf_from_scf(t)) if 2 <= t.rank <= 8 else None
    except CalculusError:
        return None


def slot_labels_by_the_rule(s):
    """The slot labels of the step as the rule reads in words: per column
    the first part of largest multiplicity; on a zero total, the first
    choice with one such part of one column replaced by another of a
    different label.  None when every choice sums to zero."""
    tops = [[label for label, mult in col if mult == col[0][1]] for col in s.columns]
    first = [labels[0] for labels in tops]
    choices = [first] + [
        first[:j] + [label] + first[j + 1 :] for j, labels in enumerate(tops) for label in labels if label != first[j]
    ]
    return next((c for c in choices if not sum(c, ZERO).is_zero()), None)


def katz_step_by_the_rule(t):
    """mu, lam and the public operations' output for the step of
    `slot_labels_by_the_rule`, or None; each operation verifies the scheme
    it predicts."""
    labels = slot_labels_by_the_rule(t.scheme)
    if labels is None:
        return None
    mu, lam = [-label for label in labels[1:]], sum(labels, ZERO)
    return mu, lam, middle_convolution(addition(t, mu), lam)


class TestPlanStep:
    """`plan_step` is the step that the matrix level verifies and attaches."""

    @given(st.one_of(st.integers(2, 8).map(lambda n: ("rigid", n)), st.integers(0, 10**6).map(lambda k: ("random", k))))
    # non-semisimple classes: a repeated label at infinity's slot (28), at a
    # finite slot's 0 (19) and elsewhere (0, 4)
    @example(("random", 0))
    @example(("random", 4))
    @example(("random", 19))
    @example(("random", 28))
    @settings(max_examples=40, deadline=None)
    def test_the_plan_is_the_verified_matrix_step(self, which):
        kind, k = which
        t = rigid_family_realization(k) if kind == "rigid" else normal_form_tuple(k)
        assume(t is not None)
        while t.rank > 1 and d_max(t.scheme.spectral_type()) > 0:
            want = katz_step_by_the_rule(t)
            if want is None:
                with pytest.raises(PreconditionFailError):
                    plan_step(t.scheme)
                return
            mu, lam, out = want
            step = plan_step(t.scheme)
            assert (list(step.mu), step.lam) == (mu, lam)
            assert out.scheme is not None and step.scheme == out.scheme
            got = _mc_max(t)
            assert got.matrices == out.matrices and got.scheme == step.scheme
            t = got

    def test_a_zero_total_retries_a_tied_slot(self):
        # the first parts -5, 1 and 4 sum to zero; -1 is infinity's other
        # part of multiplicity 1
        s = RiemannScheme(
            [0, 1], [[(gr(-5), 1), (gr(-1), 1), (gr(0), 1)], [(gr(1), 1), (gr(2), 1), (gr(3), 1)], [(gr(4), 2), (gr(-8), 1)]]
        )
        step = plan_step(s)
        assert step.slots == (2, 1, 1) and step.lam == gr(4)
        assert [-c for c in step.mu] == slot_labels_by_the_rule(s)[1:] == [gr(1), gr(4)]
        deltas = [-sum(step.mu, ZERO), *step.mu]
        shifted = RiemannScheme(s.poles, [[(l + c, m) for l, m in col] for col, c in zip(s.columns, deltas)])
        assert step.scheme == predicted_scheme(shifted, step.lam)

    def test_a_zero_total_is_refused_at_both_levels(self, tmp_path, capsys):
        # diagonal residues: every slot sits on the first two coordinates, so
        # the slot labels sum to zero, and no column has a tie to retry
        poles = [0, 1, 2]
        t = SchlesingerTuple(poles, [ExactMatrix.diagonal(d) for d in ([1, 1, 2], [3, 3, 5], [-2, -2, 7])])
        t = t.with_scheme(RiemannScheme(poles, [[(gr(-2), 2), (gr(-14), 1)], [(gr(1), 2), (gr(2), 1)], [(gr(3), 2), (gr(5), 1)], [(gr(-2), 2), (gr(7), 1)]]))
        with pytest.raises(PreconditionFailError, match="sums to zero"):
            plan_step(t.scheme)
        with pytest.raises(PreconditionFailError, match="sums to zero"):
            _mc_max(t)
        inp = tmp_path / "diagonal.json"
        save_system(str(inp), t)
        assert main(["reduce", "--input", str(inp), "--mode", "katz", "--level", "scheme"]) == 1
        assert "sums to zero" in capsys.readouterr().err
        assert main(["reduce", "--input", str(inp), "--mode", "katz"]) == 1
        assert "irreducible" in capsys.readouterr().err


# -- Dettweiler and Reiter's lemma against the old verify-once rule --------------

LEMMA_TYPES = ["11,11,11", "111,111,21", "21,21,21,21", "211,22,31,31", "1111,1111,31", "211,211,211", "221,32,32,41"]


def realized_tuple(seed):
    """`yokoyama_cases.realize` of a rigid type of LEMMA_TYPES with labels in
    -2..2, the Fuchs relation fixed on a part of multiplicity one; None when
    the labels do not realize or the realization is reducible.  The small
    labels collide, so classes are often non-semisimple and labels land at
    0 and -lam."""
    rng = random.Random(seed)
    m = parse_spectral_type(rng.choice(LEMMA_TYPES))
    cols = [[(gr(rng.randint(-2, 2)), mult) for _, mult in col] for col in m.columns]
    total = sum((label * mult for col in cols for label, mult in col), ZERO)
    j, i = next((j, i) for j, col in enumerate(cols) for i, (_, mult) in enumerate(col) if mult == 1)
    cols[j][i] = (cols[j][i][0] - total, 1)
    try:
        t = yokoyama_cases.realize(RiemannScheme(range(len(cols) - 1), cols))
    except (AssertionError, CalculusError):
        return None
    return t if is_irreducible(t) else None


def test_realize_refuses_a_step_that_keeps_the_order():
    # idx -2 with slot defect d = 0: a step would stay at order 4
    scheme = RiemannScheme(
        [0, 1, 2],
        [
            [(gr(1), 2), (gr(2), 2)],
            [(gr(1), 2), (gr(-1), 2)],
            [(gr(3), 2), (gr(0), 2)],
            [(gr(-7), 2), (gr(1), 1), (gr(1), 1)],
        ],
    )
    with pytest.raises(PreconditionFailError, match="d = 0"):
        plan_step(scheme)
    with pytest.raises(PreconditionFailError, match="d = 0"):
        yokoyama_cases.realize(scheme)


def lemma_input(which):
    kind, k = which
    if kind == "rigid":
        return rigid_family_realization(k)
    return normal_form_tuple(k) if kind == "random" else realized_tuple(k)


def lemma_branches(s, lam):
    """The parts of s that `predicted_scheme(s, lam)` moves by the lemma's
    special cases: a second part at 0 or a part at -lam at a finite point,
    a second part at lam or a part at 0 at infinity."""
    found = set()
    for col in s.columns[1:]:
        if sum(label.is_zero() for label, _ in col) > 1:
            found.add("finite 0 twice")
        if any(label == -lam for label, _ in col):
            found.add("finite -lam")
    inf = s.column_at_infinity()
    if sum(label == lam for label, _ in inf) > 1:
        found.add("infinity lam twice")
    if any(label.is_zero() for label, _ in inf):
        found.add("infinity 0")
    return found


def mc_max_against_verification(t):
    """_mc_max(t) and the branches its step reaches, after checking that
    it attaches the scheme the old rule attaches to the same output: the
    step's scheme when `verify_scheme` accepts it, none when it does not."""
    step = plan_step(t.scheme)
    got = _mc_max(t)
    bare = middle_convolution(addition(t.with_scheme(None), step.mu), step.lam)
    want = attach_predicted(bare, t.scheme, lambda _: step.scheme)
    assert got.matrices == bare.matrices
    assert want.scheme is not None and got.scheme == want.scheme
    return got, lemma_branches(_shifted(t.scheme, step.mu), step.lam)


def images_against_verification(t):
    """The branches that `mc_via_images` reaches on t's normal form, after
    checking at up to three parameters that it attaches the scheme the old
    rule attaches.  The parameters put a finite label at -lam, or are 1 and
    2; none is a label at infinity, as A + lam must be invertible."""
    try:
        o = onf_from_scf(t)
    except NotOkuboConvertibleError:
        return set()
    inf = {label for label, _ in o.scheme.column_at_infinity()}
    finite = [-label for col in o.scheme.columns[1:] for label, _ in col if not label.is_zero()]
    found = set()
    for lam in [lam for lam in dict.fromkeys(finite + [gr(1), gr(2)]) if lam not in inf][:3]:
        got = mc_via_images(o, lam)
        bare = OkuboSystem(got.block_sizes, got.poles, got.a)
        want = attach_predicted(bare, o.scheme, lambda s: predicted_scheme(s, lam))
        assert want.scheme is not None and got.scheme == want.scheme
        found |= lemma_branches(o.scheme, lam)
    return found


def lemma_walk(t):
    """The branches reached by `_mc_max` and by `mc_via_images` on every
    stage of t's Katz reduction, each stage checked against the old rule."""
    by_step, by_images = set(), set()
    while t.rank > 1 and d_max(t.scheme.spectral_type()) > 0:
        by_images |= images_against_verification(t)
        try:
            t, found = mc_max_against_verification(t)
        except PreconditionFailError:  # a zero slot total: no step, no scheme
            break
        by_step |= found
    return by_step, by_images


# random normal forms that reach each branch: by the step, 0 (infinity lam
# twice), 4 (finite 0 twice) and 27 (finite -lam); by the images, 0 (finite
# -lam) and 19 (finite 0 twice)
LEMMA_EXAMPLES = [("random", 0), ("random", 4), ("random", 19), ("random", 27)]


class TestDettweilerReiterLemma:
    """The old rule, which verified every predicted scheme once, is the
    oracle of the schemes that `_mc_max` and `mc_via_images` attach by
    `predicted_scheme`'s lemma: the same scheme, and never none."""

    @given(
        st.one_of(
            st.integers(2, 10).map(lambda n: ("rigid", n)),
            st.integers(0, 10**6).map(lambda k: ("random", k)),
            st.integers(0, 10**6).map(lambda k: ("realized", k)),
        )
    )
    @example(("random", 0))
    @example(("random", 4))
    @example(("random", 19))
    @example(("random", 27))
    @settings(max_examples=60, deadline=None)
    def test_lemma_attaches_what_verification_accepts(self, which):
        t = lemma_input(which)
        assume(t is not None)
        lemma_walk(t)

    def test_every_branch_is_reached(self):
        by_step, by_images = set(), set()
        for which in LEMMA_EXAMPLES:
            step, images = lemma_walk(lemma_input(which))
            by_step |= step
            by_images |= images
        assert {"finite 0 twice", "finite -lam", "infinity lam twice"} <= by_step
        # A and A + lam are invertible, so infinity has no part at 0 or lam
        assert by_images == {"finite 0 twice", "finite -lam"}


@pytest.mark.parametrize("case", [f"rigid {n}" for n in range(2, 13)] + ["a", "b", "c"])
def test_katz_levels_print_the_same_lines(case):
    source = rigid_family_realization(int(case[6:])) if case.startswith("rigid") else getattr(yokoyama_cases, f"case_{case}")()
    matrix = list(reduction_lines(source, "katz", "matrix"))
    assert matrix == list(reduction_lines(source, "katz", "scheme"))
    assert matrix[-1] == "reached rank 1"


# -- oracle: the quotient construction on the whole convolution space ---------------


def _convolution_by_quotient(t, lam):
    """Big matrices, K, L = ker(sum of the big matrices), the span basis and
    the complement as `complete_to_basis` picks them, all pn-wide."""
    p, n = t.num_points, t.rank
    pn = p * n
    zero = ExactMatrix.zeros(n)
    big = []
    for j in range(p):
        grid = [[zero] * p for _ in range(p)]
        grid[j] = [m.shift(lam) if nu == j else m for nu, m in enumerate(t.matrices)]
        big.append(block_matrix(grid))
    k_basis = []
    for j, m in enumerate(t.matrices):
        for v in kernel_basis(m):
            k_basis.append((ZERO,) * (j * n) + v + (ZERO,) * (pn - (j + 1) * n))
    total = big[0]
    for g in big[1:]:
        total = total + g
    l_basis = kernel_basis(total)
    stacked = ExactMatrix.from_columns(k_basis + l_basis, nrows=pn)
    indep, comp = complete_to_basis(stacked)
    return big, k_basis, l_basis, [stacked.column(c) for c in indep], comp


def _mc_by_quotient(t, lam):
    """The induced tuple in the basis (span basis | e_C) of the whole space,
    through the inverse of that basis."""
    lam = gr(lam)
    big, _, _, span_basis, comp = _convolution_by_quotient(t, lam)
    if not comp:
        raise PreconditionFailError("middle convolution collapsed to rank zero")
    pn, s = big[0].nrows, len(span_basis)
    comp_mat = ExactMatrix.identity(pn).submatrix(range(pn), comp)
    basis_inv = inverse(ExactMatrix.from_columns(span_basis, nrows=pn).hstack(comp_mat))
    mats = [(basis_inv * (g * comp_mat)).submatrix(range(s, pn), range(len(comp))) for g in big]
    out = SchlesingerTuple(t.poles, mats)
    scheme = attach_predicted(out, t.scheme, lambda s: predicted_scheme(s, lam)).scheme
    return out if scheme is None else out.with_scheme(scheme)


def assert_same_as_quotient(t, lam):
    """Every field of `convolution` and the middle convolution itself (or its
    error) equal the quotient construction's, bit for bit."""
    lam = gr(lam)
    cd = convolution(t, lam)
    big, k_basis, l_basis, span_basis, comp = _convolution_by_quotient(t, lam)
    assert big_matrices(cd) == big
    assert constructions.k_basis(cd) == k_basis and constructions.l_basis(cd) == l_basis
    assert constructions.span_basis(cd) == span_basis and cd.complement_basis == comp
    try:
        want = _mc_by_quotient(t, lam)
    except PreconditionFailError as exc:
        with pytest.raises(PreconditionFailError) as got:
            middle_convolution(t, lam)
        assert str(got.value) == str(exc)
        return None
    out = middle_convolution(t, lam)
    assert out.poles == want.poles
    assert out.matrices == want.matrices  # the stored den, re and im
    assert out.scheme == want.scheme
    return out


gaussians = st.one_of(
    st.just(ZERO),
    st.integers(-3, 3).map(gr),
    st.builds(
        lambda a, b, c, d: gr(Fraction(a, b), Fraction(c, d)),
        st.integers(-3, 3), st.integers(1, 3), st.integers(-3, 3), st.integers(1, 3),
    ),
)


@st.composite
def residue(draw, n, singular=False):
    """An n x n Gaussian-rational matrix; a singular one, or half of the time,
    is a product through a narrower inner dimension."""
    inner = draw(st.integers(0, n - 1)) if singular or draw(st.booleans()) else n
    if inner == 0:
        return ExactMatrix.zeros(n)
    left = ExactMatrix(n, inner, [[draw(gaussians) for _ in range(inner)] for _ in range(n)])
    right = ExactMatrix(inner, n, [[draw(gaussians) for _ in range(n)] for _ in range(inner)])
    return left * right


@st.composite
def tuples(draw, max_n=3, max_p=3):
    n, p = draw(st.integers(1, max_n)), draw(st.integers(1, max_p))
    return SchlesingerTuple(range(p), [draw(residue(n)) for _ in range(p)])


parameters = st.one_of(st.sampled_from([gr(0), gr(1), gr(2)]), gaussians)


class TestAgainstTheQuotientConstruction:
    @given(tuples(), parameters)
    @settings(max_examples=60, deadline=None)
    def test_gaussian_tuples_with_singular_residues(self, t, lam):
        assert_same_as_quotient(t, lam)

    @given(tuples())
    @settings(max_examples=30, deadline=None)
    def test_lambda_zero(self, t):
        assert_same_as_quotient(t, 0)

    @given(st.data(), st.integers(1, 3), st.integers(1, 3), gaussians.filter(bool))
    @settings(max_examples=40, deadline=None)
    def test_sum_kernel_is_nonzero(self, data, n, p, lam):
        # the last residue makes sum(A) + lam a singular matrix drawn first
        mats = [data.draw(residue(n)) for _ in range(p - 1)]
        last = data.draw(residue(n, singular=True)).shift(-lam)
        for m in mats:
            last = last - m
        t = SchlesingerTuple(range(p), mats + [last])
        total = last
        for m in mats:
            total = total + m
        assert rank(total.shift(lam)) < n
        assert_same_as_quotient(t, lam)

    @given(tuples(max_n=2), parameters, parameters)
    @settings(max_examples=30, deadline=None)
    def test_convolution_of_a_convolution(self, t, lam, mu):
        # every residue of the first output has rank <= n, so K is large
        once = assert_same_as_quotient(t, lam)
        if once is not None:
            assert_same_as_quotient(once, mu)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_rigid_tuples_carry_their_schemes(self, n):
        t = rigid_family_realization(n)
        for lam in (1, 2, -3):
            assert_same_as_quotient(t, lam)
        # the reduction step: additions, then mc at the slot total
        out = _mc_max(t)
        m = t.scheme.tuple_.columns
        shifted = addition(t, [-m[j][0][0] for j in range(1, len(m))])
        lam = sum((col[0][0] for col in m), gr(0))
        assert assert_same_as_quotient(shifted, lam).matrices == out.matrices
        assert out.scheme is not None

    def test_collapse_to_rank_zero(self):
        assert assert_same_as_quotient(SchlesingerTuple([0], [E([[4]])]), -4) is None

    @given(tuples(), parameters)
    @settings(max_examples=40, deadline=None)
    def test_complement_is_complete_to_basis(self, t, lam):
        cd = convolution(t, lam)
        pn = t.num_points * t.rank
        stacked = ExactMatrix.from_columns(constructions.k_basis(cd) + constructions.l_basis(cd), nrows=pn)
        assert cd.complement_basis == complete_to_basis(stacked)[1]


class TestKernelChecks:
    @pytest.mark.parametrize("residue,name", [([[1, 0], [0, 0]], "kernel"), ([[0, 1], [0, 1]], "sum-kernel")])
    def test_nonzero_product_raises(self, monkeypatch, residue, name):
        # every kernel claims e_1: wrong for the residue [[1, 0], [0, 0]], and
        # for the sum [[0, 1], [0, 1]] + 1 but not for that residue itself
        def e1(rows, ncols):
            return [(0, ([1] + [0] * (ncols - 1), [0] * ncols))]

        monkeypatch.setattr(linalg, "_kernel_rows", e1)
        with pytest.raises(InvariantError, match=f"^{name} subspace is not invariant"):
            convolution(SchlesingerTuple([0], [E(residue)]), 1)


# -- outputs recorded before the convolution moved to Z[i] rows ---------------------
#
# Every later implementation must reproduce them bit for bit.  The suite seeds
# are among the `katz_suite_seeds` of bench/recorded.json.

RECORDED_SUITES = {
    2: "6595b72dea97d556130bd93795a05f6af91c8fa2a9dbc311e190e50e3911fb9e",
    5: "ce9f0952a07e18d56b7ede2769fc603f6b1f55991e3142846e3508857c5f753e",
    8: "90a0e123530fca21dd56ae433484968e8c4962acb99b724f55e430d6c6c2b091",
}

RECORDED_MC = {
    "0": "88a0e89b32e8adcf82b9edb38cd9a4c268b99a97186ac243e39366c223cb4ca2",
    "1": "e845e93042adeb389e683a34f501292d20027d0882875d4f175a84d4173792ff",
    "2": "b7c0165afa0f3ad7caf3fc683fe2a50626672607808a2cf53c1173cebb9036e9",
    "random": "0b71aa5b768897c967345b8ec6084b627f1f6a6f81c8d888da490dd869370932",
    "rigid": "ca266cfd89c6a54fdd768f972d7cdb0dd4d0497a9c71d7db514461fb0ff2a66a",
}


def _sha(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _seeded_scalar(rng):
    k = rng.randint(0, 3)
    if k == 0:
        return gr(0)
    if k == 1:
        return gr(rng.randint(-3, 3))
    re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return gr(re, Fraction(rng.randint(-3, 3), rng.randint(1, 3)))


def _seeded_residue(rng, n):
    """Half of the time a product through a narrower inner dimension: singular."""
    inner = rng.randint(0, n - 1) if rng.random() < 0.5 else n
    if inner == 0:
        return ExactMatrix.zeros(n)
    left = ExactMatrix(n, inner, [[_seeded_scalar(rng) for _ in range(inner)] for _ in range(n)])
    right = ExactMatrix(inner, n, [[_seeded_scalar(rng) for _ in range(n)] for _ in range(inner)])
    return left * right


def _mc_line(t, lam):
    """The digest of mc(t, lam)'s serialization, or its collapse, and the output."""
    try:
        out = middle_convolution(t, lam)
    except PreconditionFailError as exc:
        return f"error {exc}", None
    text = json.dumps(system_to_json(out), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest(), out


class TestRecordedOutputs:
    @pytest.mark.parametrize("seed", sorted(RECORDED_SUITES))
    def test_katz_suite_report(self, seed):
        assert _sha(run_katz_suite(seed, 5, 4, 3).lines()) == RECORDED_SUITES[seed]

    @pytest.mark.parametrize("kind", ["0", "1", "2", "random"])
    def test_seeded_middle_convolutions(self, kind):
        # 40 tuples n, p <= 3 with singular residues, and mc of each output
        lines = []
        for seed in range(40):
            rng = random.Random(f"{kind}-{seed}")
            n, p = rng.randint(1, 3), rng.randint(1, 3)
            t = SchlesingerTuple(range(p), [_seeded_residue(rng, n) for _ in range(p)])
            line, once = _mc_line(t, _seeded_scalar(rng) if kind == "random" else gr(int(kind)))
            lines.append(line)
            if once is not None:
                lines.append(_mc_line(once, _seeded_scalar(rng))[0])
        assert _sha(lines) == RECORDED_MC[kind]

    def test_rigid_family_with_schemes(self):
        lines = [_mc_line(rigid_family_realization(n), lam)[0] for n in range(2, 7) for lam in (1, 2, -3)]
        assert _sha(lines) == RECORDED_MC["rigid"]
