"""Cross-module identities that tie the calculi together."""

import random

import pytest

from fuchsmc.generate import random_okubo, rigid_family_realization
from fuchsmc.katz import mc_max, middle_convolution, swap_with_infinity
from fuchsmc.linalg import rank
from fuchsmc.okubo import mc_via_images, scf_from_onf
from fuchsmc.scalars import gr
from fuchsmc.schlesinger import (
    is_equivalent,
    is_irreducible,
    matrix_tuples_equivalent,
)
from fuchsmc.spectral import (
    d_max,
    enumerate_basic,
    format_spectral_type,
    oidx,
    ord_of,
    partial_max,
)
from fuchsmc.yokoyama import (
    ExtensionParams,
    RestrictionParams,
    extend_direct,
    re_katz_pipeline,
    rere_katz_pipeline,
    restrict,
)


class TestSwapRealization:
    def test_equal_parameter_round_realizes_the_conjugated_swap(self):
        # restriction of the equal-parameter extension is the point/infinity
        # swap conjugated by the two convolutions (the shift-free pipeline);
        # a 1x1 computation shows the unconjugated swap is NOT equal: the
        # round sends [a] to [2*rho - a], the swap to [-a]
        rng = random.Random(61)
        done = 0
        while done < 3:
            o = random_okubo(rng, rng.randint(1, 3))
            p = o.num_points
            rho = gr(rng.randint(1, 3))
            if rank(o.a.shift(-rho) * o.a.shift(-rho)) == 0:
                continue
            j = rng.randint(1, p)
            try:
                ext = extend_direct(o, ExtensionParams(rho, rho, p))
                back = restrict(ext, RestrictionParams(rho, rho, j))
            except Exception:
                continue
            t = middle_convolution(scf_from_onf(o), -rho)
            t = swap_with_infinity(t, j)
            t = middle_convolution(t, rho)
            assert matrix_tuples_equivalent(scf_from_onf(back).matrices, t.matrices)
            done += 1

    def test_rank_one_round_is_the_parameter_reflection(self):
        from fuchsmc.linalg import ExactMatrix
        from fuchsmc.okubo import OkuboSystem

        o = OkuboSystem([1], [0], ExactMatrix.from_rows([[3]]))
        ext = extend_direct(o, ExtensionParams(1, 1, 1))
        back = restrict(ext, RestrictionParams(1, 1, 1))
        assert back.a == ExactMatrix.from_rows([[2 * 1 - 3]])


class TestEqualParameterPipelines:
    def test_re_with_equal_parameters_drops_the_addition(self):
        # with rho1 = rho2 the shift in the pipeline vanishes
        from fuchsmc.katz import addition

        rng = random.Random(67)
        o = random_okubo(rng, 2)
        j = 1
        rho = gr(2)
        eps = gr(1)
        lhs = re_katz_pipeline(o, j, rho, rho, eps)
        t = scf_from_onf(o)
        t = middle_convolution(t, -rho)
        t = swap_with_infinity(t, j)
        rhs = middle_convolution(t, rho + eps)
        assert is_equivalent(lhs, rhs)

    def test_rere_with_opposite_third_parameter_is_one_convolution(self):
        rng = random.Random(71)
        o = random_okubo(rng, 2)
        rho1, eps = gr(2), gr(3)
        lhs = rere_katz_pipeline(o, 1, rho1, -rho1, eps)
        rhs = middle_convolution(scf_from_onf(o), eps)
        assert is_equivalent(lhs, rhs)


class TestImageRealizationMidScale:
    @pytest.mark.parametrize("blocks", [[2, 3], [3, 3], [2, 2, 2]])
    def test_agreement_at_total_size_up_to_six(self, blocks):
        rng = random.Random(sum(blocks))
        o = random_okubo(rng, sum(blocks), blocks=blocks, irreducible=False)
        lam = gr(1) if rank(o.a.shift(1)) == o.rank else gr(2)
        mi = mc_via_images(o, lam)
        mc = middle_convolution(scf_from_onf(o), lam)
        assert mi.rank == mc.rank
        assert is_equivalent(scf_from_onf(mi), mc)
        assert list(mi.block_sizes) == [
            rank(m) for m in scf_from_onf(o).matrices
        ]


class TestIrreducibilityTransport:
    def test_restriction_of_extension_stays_irreducible(self):
        rng = random.Random(73)
        done = 0
        while done < 3:
            o = random_okubo(rng, rng.randint(2, 3))
            rho1, rho2 = gr(1), gr(2)
            if rank(o.a.shift(-rho1) * o.a.shift(-rho2)) == 0:
                continue
            j = rng.randint(1, o.num_points)
            from fuchsmc.yokoyama import re_composite

            out = re_composite(o, j, rho1, rho2)
            assert is_irreducible(scf_from_onf(out))
            done += 1


class TestEnumeratedBasics:
    @pytest.mark.parametrize("target,max_ord,max_points", [(0, 6, 4), (-2, 12, 5)])
    def test_every_basic_has_positive_okubo_index(self, target, max_ord, max_points):
        for m in enumerate_basic(target, max_ord, max_points):
            assert oidx(m) > 0


class TestLevelsAgree:
    def test_matrix_reduction_tracks_the_type_reduction(self):
        t = rigid_family_realization(4)
        while t.rank > 1:
            m = t.scheme.spectral_type()
            if d_max(m) <= 0:
                break
            expected = partial_max(m)
            t = mc_max(t)
            assert t.scheme is not None
            got = t.scheme.spectral_type()
            assert format_spectral_type(got) == format_spectral_type(expected)
            assert t.rank == ord_of(expected)
