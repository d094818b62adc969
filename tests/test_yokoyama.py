import random

import pytest

from fuchsmc.errors import (
    CRViolatedError,
    DegenerateExtensionError,
    NotQ2Error,
    ZeroRhoError,
)
from fuchsmc.generate import random_okubo
from fuchsmc.katz import addition, drop_trailing_zero_pole, middle_convolution, swap_with_infinity
from fuchsmc.linalg import ExactMatrix, rank
from fuchsmc.okubo import OkuboSystem, check_onf_conditions, scf_from_onf
from fuchsmc.scalars import gr
from fuchsmc.schlesinger import (
    index_of_rigidity,
    is_equivalent,
    is_irreducible,
    matrix_tuples_equivalent,
)
from fuchsmc.spectral import RiemannScheme
from fuchsmc.yokoyama import (
    ExtensionParams,
    RestrictionParams,
    _plan_system,
    _run_plan,
    auto_epsilon_rere,
    extend_composite,
    extend_direct,
    re_composite,
    re_katz_pipeline,
    rere_composite,
    rere_katz_pipeline,
    restrict,
    scheme_of_extension,
    scheme_of_restriction,
    swap_blocks,
)

E = ExactMatrix.from_rows


def restrict_composite(o: OkuboSystem, params: RestrictionParams):
    """Restriction as a pipeline on the residue tuple, the oracle of the
    closed form: convolve down by mu1, shift the deleted point by mu1 - mu2,
    swap it with infinity, convolve up by mu1; the deleted point comes back
    with a zero residue, which is dropped."""
    p = o.num_points
    t = scf_from_onf(swap_blocks(o, params.j, p))
    t = middle_convolution(t, -params.mu1)
    mu = [gr(0)] * p
    mu[-1] = params.mu1 - params.mu2
    t = addition(t, mu)
    t = swap_with_infinity(t, p)
    t = middle_convolution(t, params.mu1)
    return drop_trailing_zero_pole(t)


@pytest.fixture
def rank1_onf():
    scheme = RiemannScheme([0], [[(gr(-3), 1)], [(gr(3), 1)]])
    return OkuboSystem([1], [0], E([[3]]), scheme)


def hypergeometric(lam=3, rho1=1, rho2=5):
    scheme = RiemannScheme([0], [[(gr(-lam), 1)], [(gr(lam), 1)]])
    o = OkuboSystem([1], [0], E([[lam]]), scheme)
    return extend_direct(o, ExtensionParams(rho1, rho2, 1))


class TestExtension:
    def test_hypergeometric_scheme(self, rank1_onf):
        ext = extend_direct(rank1_onf, ExtensionParams(1, 5, 1))
        assert ext.rank == 2 and ext.block_sizes == (1, 1)
        expected = RiemannScheme(
            [0, 1],
            [
                [(gr(-1), 1), (gr(-5), 1)],
                [(gr(0), 1), (gr(3), 1)],
                [(gr(0), 1), (gr(1 + 5 - 3), 1)],
            ],
        )
        assert ext.scheme is not None
        assert ext.scheme.tuple_ == expected.tuple_
        assert ext.scheme.poles == expected.poles
        assert is_irreducible(scf_from_onf(ext))

    def test_rank_bookkeeping(self):
        rng = random.Random(31)
        for _ in range(4):
            o = random_okubo(rng, rng.randint(1, 3))
            w = o.a.shift(-1) * o.a.shift(-2)
            if rank(w) == 0:
                continue
            ext = extend_direct(o, ExtensionParams(1, 2, o.num_points))
            assert ext.rank == o.rank + rank(w)
            assert check_onf_conditions(ext)

    def test_quadratic_relation_of_extension(self, rank1_onf):
        ext = extend_direct(rank1_onf, ExtensionParams(1, 5, 1))
        quad = ext.a.shift(-1) * ext.a.shift(-5)
        assert quad.is_zero()

    def test_degenerate_rejected(self):
        o = OkuboSystem([1], [0], E([[1]]))
        with pytest.raises(DegenerateExtensionError):
            extend_direct(o, ExtensionParams(1, 1, 1))

    def test_zero_rho_rejected(self):
        with pytest.raises(ZeroRhoError):
            ExtensionParams(0, 1, 1)

    def test_composite_agrees(self, rank1_onf):
        params = ExtensionParams(1, 5, 1)
        direct = extend_direct(rank1_onf, params)
        comp = extend_composite(rank1_onf, params)
        assert is_equivalent(scf_from_onf(direct), comp)
        assert index_of_rigidity(comp) == 2

    def test_composite_agrees_on_random_instances(self):
        rng = random.Random(37)
        done = 0
        while done < 4:
            o = random_okubo(rng, rng.randint(1, 3))
            rho1, rho2 = gr(rng.randint(1, 3)), gr(rng.randint(1, 3))
            if rank(o.a.shift(-rho1) * o.a.shift(-rho2)) == 0:
                continue
            params = ExtensionParams(rho1, rho2, o.num_points)
            direct = extend_direct(o, params)
            comp = extend_composite(o, params)
            assert is_equivalent(scf_from_onf(direct), comp)
            done += 1

    def test_equal_parameters_allowed(self, rank1_onf):
        ext = extend_direct(rank1_onf, ExtensionParams(2, 2, 1))
        assert ext.rank == 2
        comp = extend_composite(rank1_onf, ExtensionParams(2, 2, 1))
        assert is_equivalent(scf_from_onf(ext), comp)


class TestRestriction:
    def test_inverts_extension_exactly(self, rank1_onf):
        ext = extend_direct(rank1_onf, ExtensionParams(1, 5, 1))
        back = restrict(ext, RestrictionParams(1, 5, 2))
        assert back.a == rank1_onf.a
        assert back.block_sizes == rank1_onf.block_sizes
        assert back.poles == rank1_onf.poles

    def test_inverts_extension_on_random_instances(self):
        rng = random.Random(41)
        done = 0
        while done < 4:
            o = random_okubo(rng, rng.randint(1, 3))
            rho1, rho2 = gr(rng.randint(1, 3)), gr(rng.randint(1, 3))
            if rank(o.a.shift(-rho1) * o.a.shift(-rho2)) == 0:
                continue
            ext = extend_direct(o, ExtensionParams(rho1, rho2, o.num_points))
            try:
                back = restrict(ext, RestrictionParams(rho1, rho2, o.num_points + 1))
            except CRViolatedError:
                continue
            assert back.a == o.a and back.poles == o.poles
            done += 1

    def test_wrong_mu_rejected(self, rank1_onf):
        ext = extend_direct(rank1_onf, ExtensionParams(1, 5, 1))
        with pytest.raises(NotQ2Error):
            restrict(ext, RestrictionParams(1, 4, 2))

    def test_composite_route_agrees(self, rank1_onf):
        ext = extend_direct(rank1_onf, ExtensionParams(1, 5, 1))
        direct = restrict(ext, RestrictionParams(1, 5, 2))
        comp = restrict_composite(ext, RestrictionParams(1, 5, 2))
        assert is_equivalent(scf_from_onf(direct), comp)

    def test_swap_blocks_round_trip(self):
        rng = random.Random(43)
        o = random_okubo(rng, 3)
        if o.num_points >= 2:
            back = swap_blocks(swap_blocks(o, 1, 2), 1, 2)
            assert back.a == o.a and back.poles == o.poles


class TestReComposite:
    def test_rank_formula_and_pipeline_identity(self):
        rng = random.Random(47)
        done = 0
        while done < 4:
            o = random_okubo(rng, rng.randint(1, 3))
            p = o.num_points
            j = rng.randint(1, p)
            rho1, rho2 = gr(rng.randint(1, 3)), gr(rng.randint(1, 3))
            w = o.a.shift(-rho1) * o.a.shift(-rho2)
            if rank(w) == 0:
                continue
            plan = _plan_system(o, (j, rho1, rho2))
            lhs = _run_plan(o, plan)
            rhs = re_katz_pipeline(o, j, rho1, rho2, plan.shift)
            assert lhs.rank == o.rank + rank(w) - o.block_sizes[j - 1]
            assert matrix_tuples_equivalent(scf_from_onf(lhs).matrices, rhs.matrices)
            done += 1

    def test_pole_bookkeeping(self, rank1_onf):
        lhs = re_composite(rank1_onf, 1, 1, 5)
        # position 1 now carries the extension pole
        assert lhs.poles == (gr(1),)


class TestRereComposite:
    def test_matches_katz_pipeline_rank1(self, rank1_onf):
        eps = auto_epsilon_rere(rank1_onf, 1, 1, 5, 2)
        lhs = rere_composite(rank1_onf, 1, 1, 5, 2, eps)
        rhs = rere_katz_pipeline(rank1_onf, 1, 1, 2, eps)
        lt = scf_from_onf(lhs)
        assert lt.poles == rhs.poles
        assert is_equivalent(lt, rhs)

    def test_matches_katz_pipeline_on_blocks(self):
        rng = random.Random(53)
        done = 0
        while done < 3:
            o = random_okubo(rng, 3)
            p = o.num_points
            if p < 2:
                continue
            j = rng.randint(1, p)
            rho1, rho2, rho3 = (gr(rng.randint(1, 3)) for _ in range(3))
            if rank(o.a.shift(-rho1) * o.a.shift(-rho2)) == 0:
                continue
            try:
                eps = auto_epsilon_rere(o, j, rho1, rho2, rho3)
            except Exception:
                continue
            lhs = rere_composite(o, j, rho1, rho2, rho3, eps)
            rhs = rere_katz_pipeline(o, j, rho1, rho3, eps)
            lt = scf_from_onf(lhs)
            assert lt.poles == rhs.poles
            assert is_equivalent(lt, rhs)
            done += 1

    def test_rank_drop_matches_scheme_prediction(self):
        # family member: reduction at the fully split point drops rank by one
        o = None
        from fuchsmc.generate import rigid_family_realization
        from fuchsmc.okubo import onf_from_scf

        t = rigid_family_realization(3)
        o = onf_from_scf(t)
        m = o.scheme.tuple_
        cols = m.columns
        m01 = cols[0][0][1]
        j = next(
            j
            for j in range(1, len(cols))
            if m01 - cols[j][0][1] + (cols[j][1][1] if len(cols[j]) > 1 else 0) > 0
        )
        rho1 = -cols[0][0][0]
        rho2 = -cols[0][1][0]
        rho3 = -cols[j][1][0]
        eps = auto_epsilon_rere(o, j, rho1, rho2, rho3)
        out = rere_composite(o, j, rho1, rho2, rho3, eps)
        d = m01 - cols[j][0][1] + cols[j][1][1]
        assert out.rank == o.rank - d


class TestSchemeTransforms:
    def test_extension_of_rank_one_scheme(self):
        s = RiemannScheme([0], [[(gr(-3), 1)], [(gr(3), 1)]])
        out = scheme_of_extension(s, 1, 5, block_sizes=[1], t_new=1)
        expected = RiemannScheme(
            [0, 1],
            [
                [(gr(-1), 1), (gr(-5), 1)],
                [(gr(0), 1), (gr(3), 1)],
                [(gr(0), 1), (gr(3), 1)],
            ],
        )
        assert out.tuple_ == expected.tuple_

    def test_non_eigenvalue_parameters_double_the_order(self):
        s = RiemannScheme([0], [[(gr(-3), 1)], [(gr(3), 1)]])
        out = scheme_of_extension(s, 1, 5, block_sizes=[1], t_new=1)
        assert out.order == 2 * s.order

    def test_column_totals(self):
        ext = hypergeometric()
        s = ext.scheme
        for col in s.columns:
            assert sum(m for _, m in col) == s.order

    def test_restriction_inverts_extension_scheme(self):
        ext = hypergeometric()
        back = scheme_of_restriction(ext.scheme, block_sizes=ext.block_sizes)
        assert back.tuple_ == RiemannScheme([0], [[(gr(-3), 1)], [(gr(3), 1)]]).tuple_

    def test_restriction_needs_two_infinity_parts(self):
        s = RiemannScheme(
            [0, 1],
            [
                [(gr(-1), 1), (gr(-2), 1), (gr(-3), 1)],
                [(gr(0), 2), (gr(1), 1)],
                [(gr(0), 2), (gr(2), 1)],
            ],
        )
        with pytest.raises(NotQ2Error):
            scheme_of_restriction(s, block_sizes=[1, 1])

    def test_restriction_cr_check(self):
        # mu1 + mu2 = 3 collides with the eigenvalue 3 at the last point
        s = RiemannScheme(
            [0, 1],
            [
                [(gr(-1), 1), (gr(-2), 1)],
                [(gr(0), 1), (gr(5), 1)],
                [(gr(0), 1), (gr(3), 1)],
            ],
        )
        with pytest.raises(CRViolatedError):
            scheme_of_restriction(s, block_sizes=[1, 1])
