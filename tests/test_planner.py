"""One plan per Yokoyama round, read from the labels, run by both levels.

`yokoyama.plan_round` reads from the scheme every failure that the trial-run
searches in `yokoyama_cases` caught, and picks the shift they picked.  The
scheme level carries the scheme through the plan's operations and the matrix
level runs them, each once, so both levels print the same lines; a
degenerate extension adds an empty block instead of blocking the round.
"""

from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuchsmc import reduction, serialization as ser, yokoyama
from fuchsmc.cli import main
from fuchsmc.errors import DegenerateExtensionError, InvariantError, NotGenericError
from fuchsmc.generate import rigid_family_realization
from fuchsmc.linalg import ExactMatrix
from fuchsmc.okubo import OkuboSystem, _euler_transform, _structural_zero, euler_transform, onf_from_scf, scf_from_onf
from fuchsmc.scalars import gr
from fuchsmc.schlesinger import _is_irreducible_by_closure, infer_scheme, is_irreducible, verify_scheme
from fuchsmc.spectral import RiemannScheme, parse_spectral_type
from fuchsmc.yokoyama import (
    ExtensionParams,
    RestrictionParams,
    _extend_direct,
    _plan_system,
    _restrict,
    _run_plan,
    _scheme_of_plan,
    extend_direct,
    plan_round,
    rere_composite,
    restrict,
    scheme_of_extension,
    swap_blocks,
)
from yokoyama_cases import case_a, case_b, case_c, oracle, random_normal_forms, scheme_lines, tied_scheme

CAP = 40  # stage lines; a stage repeated without end fails the test instead


def lines(o, level):
    out = []
    for line in reduction.reduction_lines(o, "yokoyama", level):
        out.append(line)
        assert len(out) <= CAP, f"more than {CAP} lines: {out[-3:]}"
    return out


def irreducible(o):
    t = scf_from_onf(o)
    return is_irreducible(t) and _is_irreducible_by_closure(t.matrices)


def same_system(a, b):
    return (a.a, a.block_sizes, a.poles, a.scheme) == (b.a, b.block_sizes, b.poles, b.scheme)


class TestRoadmapCases:
    def test_case_a_takes_the_katz_side_stage(self):
        want = [
            "step 0: rank 4, idx 2, type 211,22,31,31",
            "step 1: rank 2, idx 2, type 11,2,11,11",
            "step 2: rank 1, idx 2, type 1,1,1",
            "reached rank 1",
        ]
        assert lines(case_a(), "matrix") == lines(case_a(), "scheme") == want

    def test_case_b_ends_with_the_same_lines_at_both_levels(self):
        # its rank-4 stage repeated 20 times while rho3 was read as minus the
        # second label of the column, the structural zero's 0 there
        want = [
            "step 0: rank 5, idx 2, type 221,32,32,41",
            "step 1: rank 4, idx 2, type 211,31,22,31",
            "step 2: rank 2, idx 2, type 11,11,2,11",
            "step 3: rank 1, idx 2, type 1,1,1",
            "reached rank 1",
        ]
        assert lines(case_b(), "matrix") == lines(case_b(), "scheme") == want

    def test_tied_column_reaches_rank_1(self):
        # 211,31,31,22 once repeated without end at both levels: its column
        # [-53:2 0:2] lists the class first
        want = [
            "step 0: rank 6, idx 2, type 321,42,42,42",
            "step 1: rank 5, idx 2, type 221,41,32,32",
            "step 2: rank 4, idx 2, type 211,31,31,22",
            "step 3: rank 2, idx 2, type 11,11,11,2",
            "step 4: rank 2, idx 2, type 11,11,11",
            "step 5: rank 1, idx 2, type 1,1",
            "reached rank 1",
        ]
        assert list(islice(scheme_lines(*tied_scheme()), CAP)) == want
        assert lines(case_c(), "matrix") == lines(case_c(), "scheme") == want

    def test_empty_blocks_go_at_equal_rank(self):
        # two trailing empty blocks: two shifted restrictions delete them at
        # rank 2, so the rank falls only in the third step
        o = OkuboSystem([1, 1, 0, 0], [0, 1, 2, 3], ExactMatrix.from_rows([[1, 2], [2, 1]]))
        o = o.with_scheme(infer_scheme(scf_from_onf(o)))
        want = [
            "step 0: rank 2, idx 2, type 11,11,11,2,2",
            "step 1: rank 2, idx 2, type 11,11,11,2",
            "step 2: rank 2, idx 2, type 11,11,11",
            "step 3: rank 1, idx 2, type 1,1",
            "reached rank 1",
        ]
        assert lines(o, "matrix") == lines(o, "scheme") == want

    def test_case_a_from_a_file(self, tmp_path, capsys):
        inp = tmp_path / "case_a.json"
        ser.save_system(str(inp), case_a())
        for level in ("matrix", "scheme"):
            assert main(["reduce", "--input", str(inp), "--mode", "yokoyama", "--level", level]) == 0
            assert capsys.readouterr().out.endswith("type 11,2,11,11\nstep 2: rank 1, idx 2, type 1,1,1\nreached rank 1\n")


CORPUS = [onf_from_scf(rigid_family_realization(n)) for n in range(2, 9)] + random_normal_forms(150, 12)


@pytest.mark.parametrize("k", range(len(CORPUS)))
def test_levels_print_the_same_lines(k):
    # 12 of these normal forms made the matrix level repeat a stage without
    # end before the planner
    matrix = lines(CORPUS[k], "matrix")
    assert matrix == lines(CORPUS[k], "scheme")
    assert matrix[-1] == "reached rank 1"


def test_two_rounds_lower_the_rank_as_the_move_proves():
    # `reduction._yokoyama_move`'s lemma: a1 + c1 - z, at least the defect
    rounds = 0
    for o in CORPUS:
        s, blocks = o.scheme, o.block_sizes
        while s.order > 1:
            m = s.spectral_type()
            move = reduction._yokoyama_move(s, m, blocks)
            if move is None:
                break
            out, out_blocks = _scheme_of_plan(s, blocks, plan_round(s, blocks, move))
            if len(move) == 4:
                n, j, col = s.order, move[0], m.columns[move[0]]
                classes = _structural_zero(s.column_at(j), n, blocks[j - 1])
                fall = s.column_at_infinity()[0][1] + (classes[0][1] if classes else 0) - (n - blocks[j - 1])
                assert n - out.order == fall >= m.columns[0][0][1] - col[0][1] + (col[1][1] if len(col) > 1 else 0)
                rounds += 1
            s, blocks = out, out_blocks
    assert rounds > 100


def test_the_shift_search_is_bounded_by_counting():
    # rank 64, type 1^64,(63)1,1^64: the labels 1..62 left at infinity block
    # every eps up to 62, beyond the 59 of a fixed search
    inf = [(gr(-200), 1), (gr(-199), 1)] + [(gr(k), 1) for k in range(1, 63)]
    col_2 = [(gr(0), 1)] + [(gr(k), 1) for k in range(200, 263)]
    s = RiemannScheme([0, 1], [inf, [(gr(0), 63), (gr(-16107), 1)], col_2])
    blocks = (1, 63)
    move = reduction._yokoyama_move(s, s.spectral_type(), blocks)
    assert move == (2, gr(200), gr(199), gr(-200))
    plan = plan_round(s, blocks, move)
    assert plan.shift == gr(63)
    out, _ = _scheme_of_plan(s, blocks, plan)
    assert out.order < s.order


class TestPlannerAgainstTheSearches:
    @staticmethod
    def walk(o, stages=10):
        """The moves and stages of o's matrix-level reduction."""
        for _ in range(stages):
            if o.rank == 1:
                return
            move = reduction._yokoyama_move(o.scheme, o.scheme.spectral_type(), o.block_sizes)
            if move is None:
                return
            yield o, move
            o = _run_plan(o, plan_round(o.scheme, o.block_sizes, move))

    @given(st.one_of(st.integers(2, 8).map(lambda n: ("rigid", n)), st.integers(0, 39).map(lambda k: ("random", k))))
    @settings(max_examples=30, deadline=None)
    def test_planner_picks_the_searched_shift(self, which):
        kind, k = which
        o = onf_from_scf(rigid_family_realization(k)) if kind == "rigid" else CORPUS[7 + k]
        for stage, move in self.walk(o):
            try:
                shift, out = oracle(stage, move)
            except (NotGenericError, DegenerateExtensionError):
                continue  # the searches refused the drawn rho3
            plan = plan_round(stage.scheme, stage.block_sizes, move)
            assert plan.shift == shift
            assert same_system(_run_plan(stage, plan), out)
            # without a scheme the plan reads the Gaussian-rational classes
            assert _plan_system(stage.with_scheme(None), move).shift == shift

    @given(
        st.integers(0, 39),
        st.integers(1, 4),
        st.lists(st.integers(-3, 3).filter(bool), min_size=3, max_size=3),
        st.booleans(),
    )
    # each example fails with one of the planner's tests dropped: the Euler
    # collision of the rounds and of the shifted restriction; the first CR;
    # the second CR; a zero rho' and the shifted restriction's CR
    @example(0, 1, [-1, 3, 1], False)
    @example(8, 1, [-1, 2, 1], False)
    @example(0, 1, [-2, 1, -1], True)
    @example(0, 1, [1, 1, -3], True)
    @settings(max_examples=60, deadline=None)
    def test_planner_picks_the_searched_shift_on_drawn_moves(self, k, j, rhos, two):
        # negative parameters put the extension's labels -rho at eps = 1, 2,
        # 3, where the Euler shift collides; the shifted restriction of one
        # of o's blocks, moved last in that extension, meets the same
        # collision at k = -rho
        o = CORPUS[7 + k]
        rho1, rho2, rho3 = map(gr, rhos)
        move = (1 + (j - 1) % o.num_points, rho1, rho2) + ((rho3,) if two else ())
        self.compare(o, move)
        ext = _extend_direct(o, ExtensionParams(rho1, rho2, 7))
        if ext.block_sizes[-1]:
            self.compare(swap_blocks(ext, move[0], ext.num_points), ())

    @staticmethod
    def compare(o, move):
        try:
            shift, out = oracle(o, move)
        except (NotGenericError, DegenerateExtensionError):
            return
        plan = plan_round(o.scheme, o.block_sizes, move)
        assert plan.shift == shift
        assert same_system(_run_plan(o, plan), out)
        if move:
            assert _plan_system(o.with_scheme(None), move).shift == shift


def test_two_scheme_of_extension_calls_per_two_round_step(monkeypatch):
    o = onf_from_scf(rigid_family_realization(5))
    calls = []
    original = yokoyama.scheme_of_extension
    monkeypatch.setattr(yokoyama, "scheme_of_extension", lambda *a: calls.append(a) or original(*a))
    moves = []
    original_plan = reduction.plan_round
    monkeypatch.setattr(reduction, "plan_round", lambda s, b, move: moves.append(move) or original_plan(s, b, move))
    assert lines(o, "matrix")[-1] == "reached rank 1"
    assert len(calls) == 2 * sum(len(move) == 4 for move in moves) > 0


def test_a_round_that_would_leave_rank_0_is_refused():
    # a rank-one normal form: the first round leaves the rank-one A = rho2',
    # so the second extension adds an empty block, and nothing else is left
    o = OkuboSystem([1], [0], ExactMatrix.from_rows([[2]]), RiemannScheme([0], [[(gr(-2), 1)], [(gr(2), 1)]]))
    with pytest.raises(DegenerateExtensionError, match="rank 0"):
        plan_round(o.scheme, o.block_sizes, (1, gr(1), gr(3), gr(-2)))
    with pytest.raises(DegenerateExtensionError, match="rank 0"):
        rere_composite(o, 1, 1, 3, -2)


def test_explicit_epsilon_is_checked_against_the_labels():
    o = onf_from_scf(rigid_family_realization(3))
    j, rho1, rho2, rho3 = reduction._yokoyama_move(o.scheme, o.scheme.spectral_type(), o.block_sizes)
    # -rho1 is a label at infinity of the extension: the Euler shift collides
    with pytest.raises(NotGenericError, match="epsilon"):
        rere_composite(o, j, rho1, rho2, rho3, -rho1)


def test_verify_exits_0_on_seeds_1_to_6(capsys):
    for seed in range(1, 7):
        assert main(["verify", "--seed", str(seed)]) == 0, seed
    capsys.readouterr()


def empty_block_system():
    """Rank 2 with an empty block at t_2 = 5, carrying its inferred scheme."""
    o = OkuboSystem([1, 0, 1], [0, 5, 1], ExactMatrix.from_rows([[1, 2], [4, 3]]))
    return o.with_scheme(infer_scheme(scf_from_onf(o)))


class TestEmptyBlock:
    def test_zero_residue_and_its_column(self):
        o = empty_block_system()
        t = scf_from_onf(o)
        assert t.matrices[1].is_zero()
        assert o.scheme.column_at(2) == ((gr(0), 2),)
        assert verify_scheme(t, o.scheme)
        assert irreducible(o)

    def test_swap_shift_restrict_and_round_trip(self, tmp_path):
        o = empty_block_system()
        swapped = swap_blocks(o, 2, 3)
        assert swapped.block_sizes == (1, 1, 0)
        assert verify_scheme(scf_from_onf(swapped), swapped.scheme)
        shifted = _euler_transform(o, 2)
        assert shifted.scheme == euler_transform(o, 2).scheme
        assert verify_scheme(scf_from_onf(shifted), shifted.scheme)
        # deleting the empty block drops its point and keeps the rank
        inf = o.scheme.column_at_infinity()
        params = RestrictionParams(-inf[0][0], -inf[1][0], 2)
        out = _restrict(o, params)
        assert (out.rank, out.block_sizes, out.poles) == (2, (1, 1), (gr(0), gr(1)))
        assert out.a == o.a
        assert verify_scheme(scf_from_onf(out), out.scheme)
        assert restrict(o.with_scheme(None), params).a == o.a
        path = tmp_path / "empty.json"
        ser.save_system(str(path), o)
        back = ser.load_system(str(path))
        assert same_system(back, o)

    def test_extension_at_r_0_adds_the_empty_block(self):
        # A has the eigenvalues -1 and 5, so (A + 1)(A - 5) = 0: the lemmas
        # of `_extend_direct` at r = 0
        a = ExactMatrix.from_rows([[1, 2], [4, 3]])
        o = OkuboSystem([1, 1], [0, 1], a)
        o = o.with_scheme(infer_scheme(scf_from_onf(o)))
        params = ExtensionParams(-1, 5, 7)
        ext = _extend_direct(o, params)
        assert ext.block_sizes == (1, 1, 0) and ext.a == a
        assert ext.scheme == scheme_of_extension(o.scheme, -1, 5, o.block_sizes, 7)
        assert verify_scheme(scf_from_onf(ext), ext.scheme)
        assert irreducible(ext)
        with pytest.raises(DegenerateExtensionError):
            extend_direct(o, params)


def test_a_step_that_lowers_nothing_is_an_invariant_breach():
    # a stub step that returns its own stage keeps the rank and the points
    stage = reduction._type_stage(parse_spectral_type("11,11,11"))
    steps = reduction._reduce(stage, lambda state, m: reduction._type_stage(m))
    assert next(steps) == "step 0: rank 2, idx 2, type 11,11,11"
    with pytest.raises(InvariantError, match=r"^step 0 \(rank 2, type 11,11,11\) lowered neither"):
        next(steps)
