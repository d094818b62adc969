"""Irreducibility is proven once per reduction and carried by lemmas.

The lemmas are stated in `check_onf_conditions`, `okubo._euler_transform`,
`yokoyama._extend_direct`, `yokoyama._restrict` and `katz._mc_max`.  Norton's
test (`is_irreducible`) and the Burnside span closure stay as their oracles
here, on every stage that the drivers and the composites' cores reach; the
public operations keep every check they make.
"""

import random
from contextlib import ExitStack, contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuchsmc import reduction, serialization as ser, yokoyama
from fuchsmc.cli import main
from fuchsmc.errors import (
    ConditionsFailError,
    CRViolatedError,
    DegenerateExtensionError,
    EigenvalueCollisionError,
    NotGenericError,
    NotIrreducibleError,
    SchemeUnavailableError,
)
from fuchsmc.generate import random_okubo, rigid_family_realization
from fuchsmc.linalg import ExactMatrix, rank
from fuchsmc.okubo import (
    OkuboSystem,
    _euler_transform,
    check_onf_conditions,
    euler_transform,
    onf_from_scf,
    scf_from_onf,
)
from fuchsmc.scalars import gr
from fuchsmc.schlesinger import _is_irreducible_by_closure, infer_scheme, is_irreducible
from fuchsmc.yokoyama import (
    ExtensionParams,
    RestrictionParams,
    _plan_system,
    _run_plan,
    auto_epsilon_rere,
    extend_direct,
    re_composite,
    rere_composite,
    restrict,
)

from yokoyama_cases import case_a

E = ExactMatrix.from_rows


def residues(system):
    return scf_from_onf(system) if isinstance(system, OkuboSystem) else system


def irreducible_by_both(system) -> bool:
    t = residues(system)
    return is_irreducible(t) and _is_irreducible_by_closure(t.matrices)


@contextmanager
def recorded_outputs(targets):
    """The output of every call of each (module, name) in targets made while
    the block runs."""
    outputs = []
    with ExitStack() as stack:
        for module, name in targets:
            original = getattr(module, name)

            def recording(*args, _original=original):
                out = _original(*args)
                outputs.append(out)
                return out

            stack.enter_context(mock.patch.object(module, name, recording))
        yield outputs


CORES = [
    (yokoyama, "_extend_direct"),
    (yokoyama, "_euler_transform"),
    (yokoyama, "_restrict"),
]


def with_inferred_scheme(o):
    try:
        return o.with_scheme(infer_scheme(scf_from_onf(o)))
    except SchemeUnavailableError:
        return o


class TestStagesStayIrreducible:
    # case (a)'s first round adds an empty block at its second extension
    @given(st.sampled_from([3, 4, 5, "case a"]), st.sampled_from(["katz", "yokoyama"]))
    @settings(max_examples=8, deadline=None)
    def test_every_driver_stage(self, n, mode):
        if n == "case a":
            source = scf_from_onf(case_a()) if mode == "katz" else case_a()
        else:
            t = rigid_family_realization(n)
            source = t if mode == "katz" else onf_from_scf(t)
        stage_of = reduction._system_stage
        with recorded_outputs(CORES) as inner, mock.patch.object(
            reduction, "_system_stage", lambda system, idx0: inner.append(system) or stage_of(system, idx0)
        ):
            lines = list(reduction.reduction_lines(source, mode, "matrix"))
        assert lines[-1] == "reached rank 1"
        assert inner
        assert all(irreducible_by_both(s) for s in inner)

    @given(
        st.integers(0, 10_000),
        st.integers(1, 3),
        st.booleans(),
        st.tuples(*[st.integers(1, 3)] * 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_stage_of_the_composites(self, seed, n, scheme, rhos):
        rng = random.Random(seed)
        o = random_okubo(rng, n)
        if scheme:
            o = with_inferred_scheme(o)
        j = rng.randint(1, o.num_points)
        rho1, rho2, rho3 = (gr(r) for r in rhos)
        with recorded_outputs(CORES) as stages:
            for move in ((j, rho1, rho2), (j, rho1, rho2, rho3)):
                try:
                    _run_plan(o, _plan_system(o, move))
                except (NotGenericError, DegenerateExtensionError):
                    pass
        assert all(irreducible_by_both(s) for s in stages)


class TestEulerShiftLemma:
    @staticmethod
    def planted(rng, n, reducible):
        """A random normal form with A invertible; when reducible, the
        coordinates in a random proper subset S span a graded A-invariant
        subspace, so the residues share it."""
        blocks = [1] * n if n < 3 else [1, n - 1]
        s = set(rng.sample(range(n), rng.randint(1, n - 1))) if reducible else set()
        while True:
            rows = [
                [0 if (i not in s and k in s) else rng.randint(-3, 3) for k in range(n)]
                for i in range(n)
            ]
            a = E(rows)
            if rank(a) == n:
                return OkuboSystem(blocks, list(range(len(blocks))), a)

    @given(st.integers(0, 10_000), st.integers(2, 4), st.booleans(), st.integers(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_shift_keeps_the_closure_verdict(self, seed, n, reducible, lam):
        o = self.planted(random.Random(seed), n, reducible)
        if rank(o.a.shift(lam)) < n:
            with pytest.raises(EigenvalueCollisionError):
                _euler_transform(o, lam)
            return
        verdict = _is_irreducible_by_closure(scf_from_onf(o).matrices)
        if reducible:
            assert not verdict
        shifted = _euler_transform(o, lam)
        assert _is_irreducible_by_closure(scf_from_onf(shifted).matrices) == verdict

    @given(st.integers(0, 10_000), st.integers(-4, 4))
    @settings(max_examples=30, deadline=None)
    def test_collision_read_from_the_scheme(self, seed, lam):
        # lambda is a label at infinity exactly when A + lambda is singular
        o = with_inferred_scheme(random_okubo(random.Random(seed), 3))
        singular = rank(o.a.shift(lam)) < o.rank
        for system in (o, o.with_scheme(None)):
            if singular and lam != 0:
                with pytest.raises(EigenvalueCollisionError):
                    euler_transform(system, lam)
            else:
                assert euler_transform(system, lam).a == o.a.shift(lam)


# a reducible normal form: e_2 spans a graded A-invariant line, A and its
# diagonal blocks are invertible, and its two labels at infinity make the
# Yokoyama driver's first move a shifted restriction
REDUCIBLE = OkuboSystem([1, 1], [0, 1], E([[1, 0], [1, 2]]))
# (A - 1)(A - 2) = 0 and every coordinate line is invariant
DIAGONAL = OkuboSystem([1, 1], [0, 1], E([[1, 0], [0, 2]]))
RANK1_ZERO = OkuboSystem([1], [0], E([[0]]))


class TestPublicContracts:
    def test_restrict_refuses_a_reducible_input(self):
        for o in (DIAGONAL, with_inferred_scheme(DIAGONAL)):
            with pytest.raises(NotIrreducibleError):
                restrict(o, RestrictionParams(1, 2, 1))

    def test_restrict_refuses_cr_with_and_without_a_scheme(self):
        # the deleted block of the Euler-shifted extension has the sum of
        # the shifted parameters as an eigenvalue at some eps
        o = onf_from_scf(rigid_family_realization(3))
        ext = extend_direct(o, ExtensionParams(1, 2, 7))
        blocked = 0
        for eps in range(1, 12):
            try:
                shifted = euler_transform(ext, eps)
            except EigenvalueCollisionError:
                continue
            for j in range(1, shifted.num_points + 1):
                diag = shifted.diagonal_block(j)
                if rank(diag.shift(-(gr(3) + 2 * eps))) == diag.nrows:
                    continue
                for system in (shifted, shifted.with_scheme(None)):
                    with pytest.raises(CRViolatedError):
                        restrict(system, RestrictionParams(1 + eps, 2 + eps, j))
                blocked += 1
        assert blocked

    @pytest.mark.parametrize("o", [REDUCIBLE, E([[1, 1], [1, 1]])], ids=["reducible", "singular"])
    def test_extension_and_shift_check_the_conditions(self, o):
        if isinstance(o, ExactMatrix):
            o = OkuboSystem([1, 1], [0, 1], o)
        assert not check_onf_conditions(o)
        with pytest.raises(ConditionsFailError):
            extend_direct(o, ExtensionParams(1, 2, 5))
        with pytest.raises(ConditionsFailError):
            euler_transform(o, 1)

    def test_composites_prove_their_input_at_entry(self):
        for call in (
            lambda o: re_composite(o, 1, 1, 3),
            lambda o: rere_composite(o, 1, 1, 3, 2),
            lambda o: rere_composite(o, 1, 1, 3, 2, 1),
            lambda o: auto_epsilon_rere(o, 1, 1, 3, 2),
        ):
            with pytest.raises(NotIrreducibleError):
                call(REDUCIBLE)
            with pytest.raises(ConditionsFailError):
                call(RANK1_ZERO)


def test_reducible_normal_form_in_yokoyama_mode(tmp_path, capsys):
    # the proof before the first round refuses it, after the stage line
    o = with_inferred_scheme(REDUCIBLE)
    with pytest.raises(NotIrreducibleError):
        list(reduction.reduction_lines(o, "yokoyama", "matrix"))
    inp = tmp_path / "reducible.json"
    ser.save_system(str(inp), o)
    assert main(["reduce", "--input", str(inp), "--mode", "yokoyama"]) == 1
    out, err = capsys.readouterr()
    assert out == "step 0: rank 2, idx 2, type 11,11,11\n"
    assert "reduction requires an irreducible system" in err
