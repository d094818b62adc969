"""Each (system, scheme) fact on the scheme-transport path is computed once.

A transport attaches its scheme by lemma, with `verify_scheme` kept as the
oracle; only the public middle convolution verifies its prediction, once,
against the output it is attached to; a scheme from outside (constructor,
with_scheme, file) is still verified; a composite without epsilon runs the
epsilon it plans; and the reduction driver's output is unchanged.
"""

import functools
import itertools
import json
import random
import sys
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constructions import attach_predicted, find_basic_2x2_tuple
from fuchsmc import generate, katz, linalg, modular, okubo, reduction, schlesinger, yokoyama
from fuchsmc import serialization as ser
from fuchsmc.cli import main
from fuchsmc.errors import (
    CalculusError,
    ConditionsFailError,
    CRViolatedError,
    DegenerateExtensionError,
    EigenvalueCollisionError,
    InvariantError,
    NotOkuboConvertibleError,
    SchemeUnavailableError,
)
from fuchsmc.generate import (
    random_okubo,
    rigid_family_realization,
)
from fuchsmc.katz import (
    addition,
    append_infinity_pole,
    drop_trailing_zero_pole,
    middle_convolution,
    permute,
    plan_step,
    swap_with_infinity,
)
from fuchsmc.linalg import ExactMatrix, rank
from fuchsmc.okubo import OkuboSystem, euler_transform, onf_from_scf, scf_from_onf
from fuchsmc.scalars import gr
from fuchsmc.schlesinger import SchlesingerTuple, infer_scheme, verify_scheme
from fuchsmc.spectral import PartitionTuple, RiemannScheme, canonical_column
from fuchsmc.yokoyama import (
    ExtensionParams,
    RestrictionParams,
    _plan_system,
    auto_epsilon_rere,
    extend_direct,
    re_composite,
    rere_composite,
    restrict,
    scheme_of_extension,
    scheme_of_restriction,
)


def rigid_onf(n):
    return onf_from_scf(rigid_family_realization(n))


def wrong_scheme(s: RiemannScheme) -> RiemannScheme:
    """The same spectral type with the labels at infinity and at the first
    point moved in opposite directions: still a scheme, not the system's."""
    cols = [canonical_column([(l + 1, m) for l, m in s.column_at_infinity()])]
    cols.append(canonical_column([(l - 1, m) for l, m in s.column_at(1)]))
    cols += list(s.columns[2:])
    return RiemannScheme(s.poles, cols)


def call_keys(monkeypatch, name, key):
    """key(*args) of every call of schlesinger.<name> made through any
    fuchsmc binding while the test runs."""
    original = getattr(schlesinger, name)
    seen = []

    def counting(*args):
        seen.append(key(*args))
        return original(*args)

    for modname, module in list(sys.modules.items()):
        if modname.startswith("fuchsmc") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return seen


def verify_scheme_keys(monkeypatch):
    """The (poles, matrices, scheme) key of every verify_scheme call."""
    return call_keys(monkeypatch, "verify_scheme", lambda t, s: (t.poles, t.matrices, s))


def reduction_parameters(o):
    """Point and parameters the yokoyama driver picks on a rigid system."""
    cols = o.scheme.tuple_.columns
    m01 = cols[0][0][1]
    j = next(
        j
        for j in range(1, len(cols))
        if m01 - cols[j][0][1] + (cols[j][1][1] if len(cols[j]) > 1 else 0) > 0
    )
    return j, -cols[0][0][0], -cols[0][1][0], -cols[j][1][0]


def test_yokoyama_reduce_verifies_each_scheme_once(tmp_path, monkeypatch, capsys):
    inp = tmp_path / "rigid4.json"
    ser.save_system(str(inp), rigid_onf(4))
    original = schlesinger.verify_scheme
    seen = []

    def counting(t, s):
        seen.append((t.poles, t.matrices, s))
        return original(t, s)

    for name, module in list(sys.modules.items()):
        if name.startswith("fuchsmc") and getattr(module, "verify_scheme", None) is original:
            monkeypatch.setattr(module, "verify_scheme", counting)
    assert main(["reduce", "--input", str(inp), "--mode", "yokoyama"]) == 0
    assert "reached rank 1" in capsys.readouterr().out
    assert seen
    assert len(set(seen)) == len(seen)


@pytest.mark.parametrize("declared", [True, False], ids=["declared", "inferred"])
def test_katz_reduce_verifies_each_scheme_once(tmp_path, monkeypatch, capsys, declared):
    t = rigid_family_realization(4)
    inp = tmp_path / "rigid4.json"
    ser.save_system(str(inp), t if declared else t.with_scheme(None))
    seen = verify_scheme_keys(monkeypatch)
    assert main(["reduce", "--input", str(inp), "--mode", "katz"]) == 0
    assert "reached rank 1" in capsys.readouterr().out
    # the declared scheme at load; an inferred one is proven, not checked
    assert len(seen) == (1 if declared else 0)


@pytest.mark.parametrize("n", [4, 5])
def test_katz_reduce_checks_each_tuple_irreducible_once(tmp_path, monkeypatch, capsys, n):
    # the driver checks its input; `_mc_max`'s lemma carries the fact to
    # every later stage
    inp = tmp_path / f"rigid{n}.json"
    ser.save_system(str(inp), rigid_family_realization(n))
    seen = call_keys(monkeypatch, "is_irreducible", lambda t: (t.poles, t.matrices))
    assert main(["reduce", "--input", str(inp), "--mode", "katz"]) == 0
    assert "reached rank 1" in capsys.readouterr().out
    assert len(seen) == 1


@pytest.mark.parametrize("n", [4, 5])
def test_yokoyama_reduce_checks_irreducibility_once(tmp_path, monkeypatch, capsys, n):
    # the load is the one proof; extension, the Euler shift and restriction
    # carry it by their lemmas, and no stage checks the normal-form conditions
    inp = tmp_path / f"rigid{n}.json"
    ser.save_system(str(inp), rigid_onf(n))
    seen = call_keys(monkeypatch, "is_irreducible", lambda t: (t.poles, t.matrices))
    conditions = []
    original = okubo.check_onf_conditions
    for modname, module in list(sys.modules.items()):
        if modname.startswith("fuchsmc") and getattr(module, "check_onf_conditions", None) is original:
            monkeypatch.setattr(module, "check_onf_conditions", lambda o: conditions.append(o) or original(o))
    assert main(["reduce", "--input", str(inp), "--mode", "yokoyama"]) == 0
    assert capsys.readouterr().out == GOLDEN_REDUCE[(n, "yokoyama")]
    assert len(seen) == 1
    assert conditions == []


def test_yokoyama_reduce_proves_each_fact_cheaply(tmp_path, monkeypatch, capsys):
    # restrict's irreducibility precondition is decided from the input's
    # scheme, with no characteristic-polynomial roots, and a restriction
    # carries its scheme by its lemma instead of verifying it again
    inp = tmp_path / "rigid5.json"
    ser.save_system(str(inp), rigid_onf(5))
    roots = []
    original_roots = modular.roots
    monkeypatch.setattr(modular, "roots", lambda *a: roots.append(a) or original_roots(*a))
    in_restrict, restricted = [], []
    original_restrict = yokoyama._restrict

    def restricting(*args):
        in_restrict.append(True)
        try:
            out = original_restrict(*args)
        finally:
            in_restrict.pop()
        restricted.append(out)
        return out

    monkeypatch.setattr(yokoyama, "_restrict", restricting)
    checked = call_keys(monkeypatch, "verify_scheme", lambda t, s: bool(in_restrict))
    irreducible = call_keys(monkeypatch, "is_irreducible", lambda t: t.scheme is not None)
    assert main(["reduce", "--input", str(inp), "--mode", "yokoyama"]) == 0
    assert capsys.readouterr().out == GOLDEN_REDUCE[(5, "yokoyama")]
    assert irreducible and all(irreducible)
    assert roots == []
    assert checked and not any(checked)
    assert restricted and all(o.scheme is not None for o in restricted)
    for o in restricted:  # the carried scheme is still the system's
        assert schlesinger.verify_scheme(scf_from_onf(o), o.scheme)


@pytest.mark.parametrize("declared", [True, False], ids=["declared", "inferred"])
def test_katz_reduce_verifies_only_the_load_and_the_convolutions(tmp_path, monkeypatch, capsys, declared):
    # rank 5 to 1: only the declared scheme at load; the inference and each
    # step's additions and convolution attach their schemes by lemma
    t = rigid_family_realization(5)
    inp = tmp_path / "rigid5.json"
    ser.save_system(str(inp), t if declared else t.with_scheme(None))
    seen = verify_scheme_keys(monkeypatch)
    assert main(["reduce", "--input", str(inp), "--mode", "katz"]) == 0
    assert capsys.readouterr().out == GOLDEN_REDUCE[(5, "katz")]
    assert len(seen) == (1 if declared else 0)


@pytest.mark.parametrize("declared", [True, False], ids=["declared", "inferred"])
def test_yokoyama_reduce_verifies_only_the_load(tmp_path, monkeypatch, capsys, declared):
    # rank 5 to 1: only the declared scheme at load; the inference,
    # extension, the Euler shift, restriction and the block swaps attach
    # their schemes by lemma
    o = rigid_onf(5)
    inp = tmp_path / "rigid5.json"
    ser.save_system(str(inp), o if declared else o.with_scheme(None))
    seen = verify_scheme_keys(monkeypatch)
    assert main(["reduce", "--input", str(inp), "--mode", "yokoyama"]) == 0
    assert capsys.readouterr().out == GOLDEN_REDUCE[(5, "yokoyama")]
    assert len(seen) == (1 if declared else 0)


@functools.cache
def exact_transport_input(source, n, seed):
    if source == "rigid family":
        return rigid_family_realization(n)
    return generate.random_scheme_tuple(random.Random(seed), n, steps=2)


def exact_steps(rng, system):
    """One exact transport of a scheme-carrying system, drawn by rng: its
    kind and the systems it builds, the last being the next state.  A normal
    form takes an Euler shift, and half the time lambda is a label at
    infinity, so -lambda is an eigenvalue of A and the shift must refuse."""
    if isinstance(system, OkuboSystem):
        if rng.random() < 0.3:
            return "residues", [scf_from_onf(system)]
        inf_labels = [label for label, _ in system.scheme.column_at_infinity()]
        lam = rng.choice(inf_labels) if rng.random() < 0.5 else gr(rng.randint(-3, 3))
        if lam in inf_labels:
            with pytest.raises(EigenvalueCollisionError):
                euler_transform(system, lam)
            return "euler collision", [system]
        return "euler", [euler_transform(system, lam)]
    p = system.num_points
    kind = rng.choice(["add", "swap", "permute", "append and drop", "normal form"])
    if kind == "add":
        return kind, [addition(system, [rng.randint(-2, 2) for _ in range(p)])]
    if kind == "swap":
        return kind, [swap_with_infinity(system, rng.randint(1, p))]
    if kind == "permute":
        return kind, [permute(system, rng.sample(range(1, p + 1), p))]
    if kind == "append and drop":
        # the appended point takes the residue at infinity; swapped back, the
        # zero residue left at infinity is the trailing one
        appended = append_infinity_pole(system, max(system.poles, key=lambda g: g.sort_key()) + 1)
        swapped = swap_with_infinity(appended, p + 1)
        return kind, [appended, swapped, drop_trailing_zero_pole(swapped)]
    return kind, [normal_form_or_same(system)]


def normal_form_or_same(t):
    try:
        return onf_from_scf(t)
    except NotOkuboConvertibleError:  # a zero residue has no block, for one
        return t


class TestExactTransportsAgainstVerification:
    """The old check, `verify_scheme`, is the oracle of every scheme an exact
    transport attaches by lemma."""

    @given(
        st.integers(0, 10_000),
        st.sampled_from(["rigid family", "random tuple"]),
        st.integers(2, 4),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_attached_schemes_verify(self, seed, source, n, normal_form):
        rng = random.Random(seed)
        system = exact_transport_input(source, n if source == "rigid family" else min(n, 3), seed % 7)
        if normal_form:
            system = normal_form_or_same(system)
        for _ in range(8):
            _, built = exact_steps(rng, system)
            for system in built:
                assert system.scheme is not None
                residues = scf_from_onf(system) if isinstance(system, OkuboSystem) else system
                assert schlesinger.verify_scheme(residues, system.scheme)

    def test_exact_transports_verify_nothing(self, monkeypatch):
        rng = random.Random(3)
        system = onf_from_scf(rigid_family_realization(4))
        seen, kinds = verify_scheme_keys(monkeypatch), set()
        for _ in range(60):
            kind, built = exact_steps(rng, system)
            kinds.add(kind)
            system = built[-1]
        assert seen == []
        assert len(kinds) == 8 and system.scheme is not None


@functools.cache
def okubo_pool():
    """Normal forms from `random_okubo` of ranks 1 to 3 whose eigenvalues are
    Gaussian rationals, each carrying its inferred scheme."""
    pool = []
    for n, count in ((1, 4), (2, 6), (3, 4)):
        rng = random.Random(n)
        while count:
            o = random_okubo(rng, n)
            try:
                pool.append(o.with_scheme(infer_scheme(scf_from_onf(o))))
            except SchemeUnavailableError:
                continue
            count -= 1
    return pool


def transport_outcome(operation, system, params):
    """operation(system, params), `extend_direct` or `restrict`, against the
    old rule, which verified every prediction once: the scheme it attaches
    must be the one `attach_predicted` attaches to the same output, the
    prediction when `verify_scheme` accepts it and none when it does not.
    Returns how the scheme was carried: "raised", "lemma", "verified" or
    "dropped"."""
    checked = []

    def counting(t, s):
        checked.append(s)
        return verify_scheme(t, s)

    with mock.patch.object(schlesinger, "verify_scheme", counting):
        try:
            got = operation(system, params)
        except CalculusError:
            return "raised"
    bare = OkuboSystem(got.block_sizes, got.poles, got.a)
    if operation is extend_direct:
        want = attach_predicted(
            bare,
            system.scheme,
            lambda s: scheme_of_extension(s, params.rho1, params.rho2, system.block_sizes, params.t_new),
        )
    else:
        ow = yokoyama.swap_blocks(system, params.j, system.num_points)
        want = attach_predicted(
            bare,
            ow.scheme,
            lambda s: scheme_of_restriction(s, ow.block_sizes),
        )
    assert got.scheme == want.scheme
    if checked:
        return "dropped" if got.scheme is None else "verified"
    return "lemma"


def transport_draw(seed):
    """A pooled normal form, extension parameters for it and an Euler shift,
    drawn by seed.  rho1 and rho2 are labels of A or of a diagonal block,
    small integers or zero; rho1 = rho2 a third of the time.  A zero rho,
    which ExtensionParams refuses, makes A_hat singular."""
    rng = random.Random(seed)
    o = rng.choice(okubo_pool())
    labels = [-label for label, _ in o.scheme.column_at_infinity()]
    labels += [label for col in o.scheme.columns[1:] for label, _ in col]
    rho1 = rng.choice(labels + [gr(1), gr(2), gr(0)])
    rho2 = rho1 if rng.random() < 0.3 else rng.choice(labels + [gr(-1), gr(0)])
    params = SimpleNamespace(rho1=rho1, rho2=rho2, t_new=max(o.poles, key=lambda g: g.sort_key()) + 1)
    return o, params, gr(rng.randint(-2, 2))


def transport_cases(seed):
    """(kind, outcome) of one extension of a pooled normal form and of the
    restrictions of its output, drawn by `transport_draw`."""
    o, params, _ = transport_draw(seed)
    yield "extension", transport_outcome(extend_direct, o, params)
    for system, restriction in restriction_inputs(seed):
        yield "restriction", transport_outcome(restrict, system, restriction)


def restriction_inputs(seed):
    """(system, params) of each restriction drawn by seed, defined or not:
    the extension output of `transport_draw`, after its Euler shift, at
    every point, with mu1 and mu2 the shifted rho1 and rho2, so some
    deleted blocks have mu1 or mu2 as an eigenvalue."""
    o, params, eps = transport_draw(seed)
    try:
        ext = extend_direct(o, params)
    except CalculusError:
        return
    try:
        shifted = euler_transform(ext, eps)
    except (ConditionsFailError, EigenvalueCollisionError):
        return
    for j in range(1, shifted.num_points + 1):
        yield shifted, RestrictionParams(params.rho1 + eps, params.rho2 + eps, j)


def restrictions(seed):
    """(system, params, output) of each defined restriction drawn by seed."""
    for system, params in restriction_inputs(seed):
        try:
            yield system, params, restrict(system, params)
        except CalculusError:
            continue


def equal_mus(system, params):
    return params.mu1 == params.mu2


def mu_in_deleted_block(system, params):
    """Whether mu1 or mu2 is an eigenvalue of the deleted diagonal block."""
    block = system.diagonal_block(params.j)
    return any(rank(block.shift(-mu)) < block.nrows for mu in (params.mu1, params.mu2))


class TestTransportLemmasAgainstVerification:
    """The old check, `verify_scheme` on every prediction, is the oracle of
    `extend_direct`'s and `restrict`'s transport lemmas."""

    @given(st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_lemma_attaches_what_verification_accepts(self, seed):
        for _ in transport_cases(seed):
            pass

    @given(st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_quadratic_relation_read_from_the_scheme(self, seed):
        # the product is the oracle; an extension output satisfies the
        # relation at its rho1 and rho2, and a Jordan block at a label fails
        # it there unless that label is taken twice
        rng = random.Random(seed)
        o = rng.choice(okubo_pool())
        eigenvalues = [-label for label, _ in o.scheme.column_at_infinity()] + [gr(1), gr(-2)]
        try:
            o = extend_direct(o, ExtensionParams(rng.choice(eigenvalues), rng.choice(eigenvalues), 100))
        except DegenerateExtensionError:
            pass
        eigenvalues = [-label for label, _ in o.scheme.column_at_infinity()] + [gr(1)]
        for mu1 in eigenvalues:
            for mu2 in eigenvalues:
                product = o.a.shift(-mu1) * o.a.shift(-mu2)
                assert yokoyama._annihilates(o.scheme, mu1, mu2) == product.is_zero()

    def test_every_branch_is_reached(self):
        seen = {case for seed in range(60) for case in transport_cases(seed)}
        assert {("extension", "lemma"), ("restriction", "lemma")} <= seen
        assert ("extension", "raised") in seen and ("restriction", "raised") in seen
        assert not {("extension", "verified"), ("extension", "dropped")} & seen
        assert not {("restriction", "verified"), ("restriction", "dropped")} & seen

    @given(st.integers(0, 100_000))
    @settings(max_examples=30, deadline=None)
    def test_extension_undoes_restriction(self, seed):
        # restrict's lemma, step by step: extending the output at (mu1, mu2)
        # and the deleted pole gives back the input with its deleted block
        # last, conjugated by diag(1, G), and with its scheme
        for system, params, out in restrictions(seed):
            ow = yokoyama.swap_blocks(system, params.j, system.num_points)
            t_p = ow.poles[-1]
            back = extend_direct(out, SimpleNamespace(rho1=params.mu1, rho2=params.mu2, t_new=t_p))
            assert back.scheme == ow.scheme
            assert back.block_sizes == ow.block_sizes and back.poles == ow.poles
            n, n_hat = out.rank, ow.rank
            assert back.a.submatrix(range(n), range(n)) == out.a == ow.a.submatrix(range(n), range(n))
            g = linalg.solve(ow.a.submatrix(range(n), range(n, n_hat)), back.a.submatrix(range(n), range(n, n_hat)))
            assert rank(g) == n_hat - n
            conj = linalg.block_matrix([[ExactMatrix.identity(n), ExactMatrix.zeros(n, n_hat - n)],
                                        [ExactMatrix.zeros(n_hat - n, n), g]])
            assert conj * back.a == ow.a * conj
            s = out.scheme
            assert scheme_of_restriction(
                scheme_of_extension(s, params.mu1, params.mu2, out.block_sizes, t_p), ow.block_sizes
            ) == s

    @pytest.mark.parametrize("kind", [equal_mus, mu_in_deleted_block])
    def test_restriction_verifies_nothing(self, monkeypatch, kind):
        # the lemma excludes neither mu1 = mu2 nor a deleted block with mu1
        # or mu2 as an eigenvalue
        system, params = next(
            (system, params) for seed in range(100) for system, params, _ in restrictions(seed) if kind(system, params)
        )
        seen = verify_scheme_keys(monkeypatch)
        out = restrict(system, params)
        assert seen == [] and out.scheme is not None
        assert verify_scheme(scf_from_onf(out), out.scheme)

    def test_cr_condition_is_checked_without_a_scheme(self):
        # scheme_of_restriction refuses a CR violation too, so a scheme-less
        # input is the one that shows restrict's own check
        refused = 0
        for seed in range(30):
            for system, params in restriction_inputs(seed):
                try:
                    restrict(system, params)
                except CRViolatedError:
                    with pytest.raises(CRViolatedError):
                        restrict(system.with_scheme(None), params)
                    refused += 1
                except CalculusError:
                    pass
        assert refused

    @pytest.mark.parametrize(
        "name,mutant",
        [
            ("scheme_of_extension", lambda *args: exchanged_infinity(scheme_of_extension(*args))),
            ("scheme_of_restriction", lambda s, block_sizes: scheme_of_restriction(exchanged_infinity(s), block_sizes)),
        ],
        ids=["extension", "restriction"],
    )
    def test_a_planted_lemma_mutation_fails(self, monkeypatch, name, mutant):
        # the bookkeeping with the multiplicities of the two infinity parts
        # exchanged: after the extension, before the restriction
        monkeypatch.setattr(yokoyama, name, mutant)
        with pytest.raises(AssertionError):
            for seed in range(60):
                for _ in transport_cases(seed):
                    pass


def transported_schemes(seed):
    """Each scheme the scheme-level transports build from the draw of
    `transport_draw`: the Euler shift of the pooled scheme, its extension,
    the extension's Euler shift, and each point of that moved last and
    restricted."""
    o, params, eps = transport_draw(seed)
    s, blocks = o.scheme, tuple(o.block_sizes)
    yield okubo.scheme_of_euler(s, blocks, eps)
    try:
        s = scheme_of_extension(s, params.rho1, params.rho2, blocks, params.t_new)
    except CalculusError:
        return
    blocks += (s.order - o.rank,)
    s = okubo.scheme_of_euler(s, blocks, eps)
    yield s
    p = len(blocks)
    for j in range(1, p + 1):
        swapped = yokoyama._swap_points(s, j, p)
        yield swapped
        try:
            yield scheme_of_restriction(swapped, yokoyama._swapped(blocks, j, p))
        except CalculusError:
            pass


def katz_transported_schemes(seed):
    """Each scheme the Katz transports build from the residue tuple of the
    normal form of `transport_draw`: an addition, a permutation, each swap
    with infinity, the infinity column appended as a point and dropped
    again, and the reduction step when it is defined."""
    o, _, _ = transport_draw(seed)
    rng, t = random.Random(seed), scf_from_onf(o)
    p = t.num_points
    yield addition(t, [rng.randint(-3, 3) for _ in range(p)]).scheme
    yield permute(t, rng.sample(range(1, p + 1), p)).scheme
    for j in range(1, p + 1):
        yield swap_with_infinity(t, j).scheme
    appended = append_infinity_pole(t, max(t.poles, key=lambda g: g.sort_key()) + 1)
    yield appended.scheme
    yield drop_trailing_zero_pole(swap_with_infinity(appended, p + 1)).scheme
    try:
        yield plan_step(t.scheme).scheme
    except CalculusError:
        pass


class TestSchemesCanonicalizedOnce:
    """The transports sort each column once, with `canonical_column`, or
    move canonical columns in an order-keeping way, and build their scheme
    without sorting it again; the sorting constructor is the oracle."""

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_each_transport_builds_what_the_sorting_constructor_builds(self, seed):
        for s in itertools.chain(transported_schemes(seed), katz_transported_schemes(seed)):
            assert s == RiemannScheme(s.poles, s.columns)
            assert s.spectral_type() == PartitionTuple.from_multiplicities(s.tuple_.multiplicities())
            assert s.spectral_type() is s.spectral_type()

    def test_a_planted_skipped_sort_fails(self, monkeypatch):
        # the Euler shift's columns without their sort: the structural zero
        # part stays first where it sorts later
        monkeypatch.setattr(okubo, "canonical_column", lambda entries: tuple((l, m) for l, m in entries if m))
        with pytest.raises(AssertionError):
            for seed in range(60):
                for s in transported_schemes(seed):
                    assert s == RiemannScheme(s.poles, s.columns)

    def test_a_planted_skipped_sort_in_the_convolution_fails(self, monkeypatch):
        # the convolution's slot parts stay first where they sort later
        monkeypatch.setattr(katz, "canonical_column", lambda entries: tuple((l, m) for l, m in entries if m))
        with pytest.raises(AssertionError):
            for seed in range(60):
                for s in katz_transported_schemes(seed):
                    assert s == RiemannScheme(s.poles, s.columns)


def exchanged_infinity(s: RiemannScheme) -> RiemannScheme:
    """s with the labels of its two infinity parts exchanged, and s itself
    when its infinity column has another number of parts."""
    inf = s.column_at_infinity()
    if len(inf) != 2:
        return s
    (l1, m1), (l2, m2) = inf
    return RiemannScheme(s.poles, [[(l2, m1), (l1, m2)], *s.columns[1:]])


def test_onf_from_scf_carries_the_scheme(monkeypatch):
    t = rigid_family_realization(4)
    seen = verify_scheme_keys(monkeypatch)
    o = onf_from_scf(t)
    assert seen == []
    assert o.scheme == t.scheme
    assert schlesinger.verify_scheme(scf_from_onf(o), o.scheme)
    assert onf_from_scf(t.with_scheme(None)).scheme is None


class TestSearchReturnsTheWinningRun:
    @staticmethod
    def same(a: OkuboSystem, b: OkuboSystem):
        assert a.a == b.a
        assert a.block_sizes == b.block_sizes
        assert a.poles == b.poles
        assert a.scheme == b.scheme

    def test_re_composite_random(self):
        rng = random.Random(47)
        done = 0
        while done < 3:
            o = random_okubo(rng, rng.randint(1, 3))
            j = rng.randint(1, o.num_points)
            rho1, rho2 = rng.randint(1, 3), rng.randint(1, 3)
            if rank(o.a.shift(-rho1) * o.a.shift(-rho2)) == 0:
                continue
            eps = _plan_system(o, (j, gr(rho1), gr(rho2))).shift
            self.same(re_composite(o, j, rho1, rho2), re_composite(o, j, rho1, rho2, eps))
            done += 1

    @pytest.mark.parametrize("n", [3, 4])
    def test_with_schemes_on_the_rigid_family(self, n):
        o = rigid_onf(n)
        j, rho1, rho2, rho3 = reduction_parameters(o)
        eps = auto_epsilon_rere(o, j, rho1, rho2, rho3)
        got = rere_composite(o, j, rho1, rho2, rho3)
        assert got.scheme is not None
        self.same(got, rere_composite(o, j, rho1, rho2, rho3, eps))
        eps = _plan_system(o, (j, gr(rho1), gr(rho2))).shift
        self.same(re_composite(o, j, rho1, rho2), re_composite(o, j, rho1, rho2, eps))


class TestOutsideSchemesAreStillVerified:
    def test_constructors_and_with_scheme(self):
        o = rigid_onf(3)
        bad = wrong_scheme(o.scheme)
        t = scf_from_onf(o)
        with pytest.raises(InvariantError):
            OkuboSystem(o.block_sizes, o.poles, o.a, bad)
        with pytest.raises(InvariantError):
            o.with_scheme(bad)
        with pytest.raises(InvariantError):
            SchlesingerTuple(t.poles, t.matrices, bad)
        with pytest.raises(InvariantError):
            t.with_scheme(bad)

    def test_scf_from_onf_keeps_the_scheme(self):
        o = rigid_onf(3)
        assert scf_from_onf(o).scheme == o.scheme
        assert scf_from_onf(o.with_scheme(None)).scheme is None

    def test_mismatched_file_exits_3(self, tmp_path, capsys):
        o = rigid_onf(3)
        data = ser.onf_to_json(o)
        data["scheme"] = ser.scheme_to_json(wrong_scheme(o.scheme))
        inp = tmp_path / "bad.json"
        inp.write_text(json.dumps(data))
        assert main(["reduce", "--input", str(inp), "--mode", "yokoyama"]) == 3
        assert "invariant breach" in capsys.readouterr().err

    @pytest.mark.parametrize("declared", [True, False], ids=["declared", "inferred"])
    def test_scheme_command_verifies_each_scheme_once(self, tmp_path, monkeypatch, capsys, declared):
        # the loader checks a declared scheme, the command an inferred one
        t = rigid_family_realization(4)
        inp = tmp_path / "rigid4.json"
        ser.save_system(str(inp), t if declared else t.with_scheme(None))
        seen = verify_scheme_keys(monkeypatch)
        assert main(["scheme", "--input", str(inp), "--infer"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(json.dumps(ser.scheme_to_json(t.scheme), indent=1))
        assert out.endswith("verified; spectral type 1111,31,1111\n")
        assert len(seen) == 1

    def test_scheme_command_refuses_a_mismatched_file(self, tmp_path, capsys):
        o = rigid_onf(3)
        data = ser.onf_to_json(o)
        data["scheme"] = ser.scheme_to_json(wrong_scheme(o.scheme))
        inp = tmp_path / "bad.json"
        inp.write_text(json.dumps(data))
        assert main(["scheme", "--input", str(inp)]) == 3
        assert "declared scheme does not match" in capsys.readouterr().err


class TestInvariantErrorsPropagate:
    """A failed theorem-backed check inside scheme transport is a bug, not a
    reason to drop the scheme or to retry with another shift."""

    @staticmethod
    def breach(*args, **kwargs):
        raise InvariantError("injected")

    def test_extend_direct(self, monkeypatch):
        o = rigid_onf(3)
        params = ExtensionParams(1, 2, 7)
        assert extend_direct(o, params).scheme is not None
        monkeypatch.setattr(yokoyama, "scheme_of_extension", self.breach)
        with pytest.raises(InvariantError, match="injected"):
            extend_direct(o, params)

    def test_restrict(self, monkeypatch):
        o = OkuboSystem([1], [0], ExactMatrix.from_rows([[3]]), RiemannScheme([0], [[(gr(-3), 1)], [(gr(3), 1)]]))
        ext = extend_direct(o, ExtensionParams(1, 5, 1))
        params = RestrictionParams(1, 5, 2)
        assert restrict(ext, params).scheme is not None
        monkeypatch.setattr(yokoyama, "scheme_of_restriction", self.breach)
        with pytest.raises(InvariantError, match="injected"):
            restrict(ext, params)

    def test_rigid_family_realization(self, monkeypatch):
        # a typed error, not an assert, so that it holds under python -O
        monkeypatch.setattr(generate, "is_irreducible", lambda t: False)
        with pytest.raises(InvariantError, match="reducible"):
            rigid_family_realization(3)

    def test_scheme_level_step_applies_one_plan(self, monkeypatch):
        # the scheme level plans the round once and carries the scheme
        # through its operations; a breach there propagates, and nothing retries
        o = rigid_onf(4)
        state, m = (o.scheme, o.block_sizes), o.scheme.spectral_type()
        plans, plan_round = [], reduction.plan_round
        monkeypatch.setattr(reduction, "plan_round", lambda *a: plans.append(plan_round(*a)) or plans[-1])
        rank, _, _, (s, blocks) = reduction._scheme_step(state, m)
        assert len(plans) == 1
        assert (s, blocks) == yokoyama._scheme_of_plan(*state, plans[0])
        assert rank == s.order == 3
        calls = []
        monkeypatch.setattr(yokoyama, "scheme_of_restriction", lambda *a: calls.append(a) or self.breach())
        with pytest.raises(InvariantError, match="injected"):
            reduction._scheme_step(state, m)
        assert len(calls) == 1 and len(plans) == 2


# `fuchsmc reduce` stdout on the rigid family, recorded before schemes were
# verified once and epsilon searches returned their run.
GOLDEN_REDUCE = {
    (3, "katz"): """\
step 0: rank 3, idx 2, type 111,21,111
step 1: rank 2, idx 2, type 11,11,11
step 2: rank 1, idx 2, type 1,1,1
reached rank 1
""",
    (3, "yokoyama"): """\
step 0: rank 3, idx 2, type 111,21,111
step 1: rank 2, idx 2, type 11,11,11
step 2: rank 1, idx 2, type 1,1
reached rank 1
""",
    (4, "katz"): """\
step 0: rank 4, idx 2, type 1111,31,1111
step 1: rank 3, idx 2, type 111,21,111
step 2: rank 2, idx 2, type 11,11,11
step 3: rank 1, idx 2, type 1,1,1
reached rank 1
""",
    (4, "yokoyama"): """\
step 0: rank 4, idx 2, type 1111,31,1111
step 1: rank 3, idx 2, type 111,21,111
step 2: rank 2, idx 2, type 11,11,11
step 3: rank 1, idx 2, type 1,1
reached rank 1
""",
    (5, "katz"): """\
step 0: rank 5, idx 2, type 11111,41,11111
step 1: rank 4, idx 2, type 1111,31,1111
step 2: rank 3, idx 2, type 111,21,111
step 3: rank 2, idx 2, type 11,11,11
step 4: rank 1, idx 2, type 1,1,1
reached rank 1
""",
    (5, "yokoyama"): """\
step 0: rank 5, idx 2, type 11111,41,11111
step 1: rank 4, idx 2, type 1111,31,1111
step 2: rank 3, idx 2, type 111,21,111
step 3: rank 2, idx 2, type 11,11,11
step 4: rank 1, idx 2, type 1,1
reached rank 1
""",
}


@pytest.mark.parametrize("n,mode", sorted(GOLDEN_REDUCE))
def test_reduce_output_is_unchanged(tmp_path, capsys, n, mode):
    inp = tmp_path / f"rigid{n}.json"
    ser.save_system(str(inp), rigid_onf(n))
    assert main(["reduce", "--input", str(inp), "--mode", mode]) == 0
    assert capsys.readouterr().out == GOLDEN_REDUCE[(n, mode)]


def basic_bridge():
    """The rank-three system one convolution above the D4 basic tuple."""
    return middle_convolution(find_basic_2x2_tuple(), 5)


# `fuchsmc reduce` on the paths the table above does not cover: bare types,
# the Yokoyama scheme level, both basic-type endings and an inferred scheme.
# Each entry: input (type text, or a function building the system), flags,
# exit code, stdout.
GOLDEN_REDUCE_PATHS = {
    "type 11111,41,11111": (
        "11111,41,11111", ["--level", "scheme"], 0, GOLDEN_REDUCE[(5, "katz")]
    ),
    "type 22,22,22,211": (
        "22,22,22,211",
        ["--level", "scheme"],
        0,
        """\
step 0: rank 4, idx -2, type 22,22,22,211
basic #3 of idx -2: 211,22,22,22
""",
    ),
    "type 22,22,22,22,22": (
        "22,22,22,22,22",
        ["--level", "scheme"],
        0,
        """\
step 0: rank 4, idx -8, type 22,22,22,22,22
basic (unlisted at these bounds): 22,22,22,22,22
""",
    ),
    # the chain fails before its first step is printed
    "type 2,11,11": ("2,11,11", ["--level", "scheme"], 1, ""),
    **{
        f"scheme yokoyama rigid {n}": (
            lambda n=n: rigid_onf(n),
            ["--level", "scheme", "--mode", "yokoyama"],
            0,
            GOLDEN_REDUCE[(n, "yokoyama")],
        )
        for n in (3, 4, 5)
    },
    "katz basic D4": (
        basic_bridge,
        ["--mode", "katz"],
        0,
        """\
step 0: rank 3, idx 0, type 111,21,21,21
step 1: rank 2, idx 0, type 11,11,11,11
basic #0 of idx 0: 11,11,11,11 (D4t)
""",
    ),
    "yokoyama minimal stage": (
        lambda: onf_from_scf(basic_bridge()),
        ["--mode", "yokoyama"],
        0,
        """\
step 0: rank 3, idx 0, type 111,21,21,21
minimal normal-form stage reached: 111,21,21,21
basic #0 of idx 0: 11,11,11,11 (D4t)
""",
    ),
    "katz rigid 4 without scheme": (
        lambda: rigid_family_realization(4).with_scheme(None),
        ["--mode", "katz"],
        0,
        GOLDEN_REDUCE[(4, "katz")],
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_REDUCE_PATHS))
def test_reduce_paths_output_is_unchanged(tmp_path, capsys, case):
    source, flags, code, out = GOLDEN_REDUCE_PATHS[case]
    inp = tmp_path / "input"
    if isinstance(source, str):
        inp.write_text(source)
    else:
        ser.save_system(str(inp), source())
    assert main(["reduce", "--input", str(inp), *flags]) == code
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("level", ["matrix", "scheme"])
def test_one_part_at_infinity_is_a_precondition_error(tmp_path, capsys, level):
    # a scalar coefficient matrix: the residue at infinity has one eigenvalue
    o = OkuboSystem([1, 1], [0, 1], ExactMatrix.from_rows([[2, 0], [0, 2]]))
    inp = tmp_path / "scalar.json"
    ser.save_system(str(inp), o.with_scheme(infer_scheme(scf_from_onf(o))))
    assert main(["reduce", "--input", str(inp), "--mode", "yokoyama", "--level", level]) == 1
    out, err = capsys.readouterr()
    assert out == "step 0: rank 2, idx 4, type 2,11,11\n"
    assert "need at least two parts at infinity" in err
