import pytest

from fuchsmc.errors import (
    InconsistentColumnsError,
    NegativePartError,
    ParseError,
    PreconditionFailError,
)
from fuchsmc.katz import plan_step
from fuchsmc.scalars import gr
from fuchsmc.spectral import (
    BASIC_TABLE_IDX0,
    BASIC_TABLE_IDX_MINUS2,
    PartitionTuple,
    RiemannScheme,
    canonical_type,
    d_max,
    d_tau,
    enumerate_basic,
    format_spectral_type,
    idx_spec,
    is_basic,
    katz_reduce,
    lemma_ineq_holds,
    oidx,
    onf_realization_types,
    ord_of,
    parse_spectral_type,
    partial_max,
    tau_max,
)

pt = parse_spectral_type


class TestTextSyntax:
    @pytest.mark.parametrize(
        "text", ["11,11,11", "111,21,21,21", "2222211,444,66", "(11)1,66,66,66"]
    )
    def test_round_trip(self, text):
        assert format_spectral_type(pt(text)) == text

    @pytest.mark.parametrize("bad", ["", "11,", "1x1", "(11,2", "0,0", "()", "(a)", "(1 0)"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ParseError):
            pt(bad)

    def test_column_sums_must_agree(self):
        with pytest.raises(InconsistentColumnsError):
            pt("11,111")


class TestBasicStatistics:
    def test_ord(self):
        assert ord_of(pt("11,11,11,11")) == 2
        assert ord_of(pt("111111,222,33")) == 6
        assert ord_of(PartitionTuple.from_multiplicities([[5]])) == 5

    def test_idx(self):
        assert idx_spec(pt("11,11,11")) == 2
        assert idx_spec(pt("11,11,11,11")) == 0
        assert idx_spec(pt("11111,221,221")) == -2

    def test_d_tau(self):
        assert d_tau(pt("11,11,11"), (1, 1, 1)) == 1
        assert d_tau(pt("11,11,11,11"), (1, 1, 1, 1)) == 0
        m = pt("11,11,11")
        assert d_tau(m, (9, 9, 9)) == -(m.p - 1) * 2

    def test_tau_max(self):
        assert tau_max(pt("21,111,21")) == (1, 1, 1)
        assert tau_max(pt("11,11,11")) == (1, 1, 1)

    def test_d_max(self):
        assert d_max(pt("11,11,11")) == 1
        assert d_max(pt("11,11,11,11")) == 0
        assert d_max(pt("111111,222,33")) == 0

    def test_is_basic(self):
        assert is_basic(pt("11,11,11,11"))
        assert not is_basic(pt("11,11,11"))
        assert is_basic(pt("2222211,444,66"))


class TestReduction:
    def test_partial_max_hypergeometric(self):
        out = partial_max(pt("11,11,11"))
        assert format_spectral_type(out) == "1,1,1"

    def test_partial_max_keeps_idx_and_drops_ord(self):
        for text in ("11,11,11", "111,21,21,21", "11111,41,11111"):
            m = pt(text)
            out = partial_max(m)
            assert idx_spec(out) == idx_spec(m)
            assert ord_of(out) == ord_of(m) - d_max(m)

    def test_partial_max_negative_part_rejected(self):
        # top multiplicities too uneven: the step would go negative
        with pytest.raises(NegativePartError):
            partial_max(pt("31,31,31,1111"))

    def test_katz_reduce_rigid_reaches_rank_one(self):
        final, steps = katz_reduce(pt("11,11,11"))
        assert ord_of(final) == 1 and len(steps) == 1

    def test_katz_reduce_stops_at_basic(self):
        final, steps = katz_reduce(pt("11,11,11,11"))
        assert steps == [] and final == pt("11,11,11,11")

    def test_katz_reduce_onf_shape_of_smallest_basic(self):
        final, steps = katz_reduce(pt("111,21,21,21"))
        assert format_spectral_type(final) == "11,11,11,11"
        assert len(steps) == 1

    def test_label_transport(self):
        # hypergeometric with labels; slots follow the canonical tie-break
        # (first of the maximal multiplicities), so the slot labels are
        # 2, -2, -3 and the shift total is -3
        cols = [
            [(gr(2), 1), (gr(3), 1)],
            [(gr(0), 1), (gr(-2), 1)],
            [(gr(0), 1), (gr(-3), 1)],
        ]
        step = plan_step(RiemannScheme([0, 1], cols))
        assert step.slots == (1, 1, 1) and step.lam == gr(-3)
        out = step.scheme.tuple_
        assert ord_of(out) == 1
        labels = [col[0][0] for col in out.columns]
        assert labels[0] == gr(3) - gr(2)           # remaining infinity label
        assert labels[1] == gr(0) - gr(-2) + gr(-3)  # finite: - slot + total
        assert labels[2] == gr(0) - gr(-3) + gr(-3)
        # trace balance survives transport
        total = sum((l * gr(m) for col in out.columns for l, m in col), gr(0))
        assert total.is_zero()


class TestOidx:
    def test_values(self):
        assert oidx(pt("111,21,21,21")) == 0
        assert oidx(pt("11,11,11,11")) == 1
        assert oidx(pt("211,22,22,22")) == 2

    def test_minimal_rank_matches_tables(self):
        for _, text, ordv, onf_rank, _ in BASIC_TABLE_IDX0:
            m = pt(text)
            assert ord_of(m) == ordv
            assert ord_of(m) + oidx(m) == onf_rank
        for text, ordv, onf_rank, _ in BASIC_TABLE_IDX_MINUS2:
            m = pt(text)
            assert ord_of(m) == ordv
            assert ord_of(m) + oidx(m) == onf_rank


class TestLemmaInequality:
    def test_holds_along_rigid_chain(self):
        m = pt("11111,41,11111")
        while ord_of(m) > 1 and d_max(m) > 0:
            nxt = partial_max(m)
            if ord_of(nxt) > 1 and d_max(nxt) > 0:
                assert lemma_ineq_holds(m)
            m = nxt

    def test_reduction_to_basic_is_a_precondition_error(self):
        # one step lands on a basic type, so the second hypothesis fails
        with pytest.raises(PreconditionFailError):
            lemma_ineq_holds(pt("111,21,21,21"))

    def test_precondition_violation_is_an_error(self):
        with pytest.raises(PreconditionFailError):
            lemma_ineq_holds(pt("11,11,11,11"))


class TestEnumeration:
    def test_idx0_table(self):
        got = {format_spectral_type(m) for m in enumerate_basic(0, 6, 4)}
        assert got == {"11,11,11,11", "111,111,111", "1111,1111,22", "111111,222,33"}

    def test_idx_minus2_table(self):
        got = {format_spectral_type(m) for m in enumerate_basic(-2, 12, 5)}
        expected = {text for text, *_ in BASIC_TABLE_IDX_MINUS2}
        assert got == expected

    def test_rigid_target_is_empty(self):
        assert enumerate_basic(2, 6, 4) == []

    def test_results_are_canonical_and_basic(self):
        for m in enumerate_basic(0, 6, 4):
            assert canonical_type(m) == m
            assert is_basic(m)
            assert idx_spec(m) == 0

    def test_onf_realizations(self):
        d4 = pt("11,11,11,11")
        assert {format_spectral_type(m) for m in onf_realization_types(d4)} == {
            "111,21,21,21"
        }
        two = pt("211,22,22,22")
        assert {format_spectral_type(m) for m in onf_realization_types(two)} == {
            "2211,42,42,42",
            "222,411,42,42",
        }


class TestRiemannScheme:
    def test_columns_sorted_canonically(self):
        s = RiemannScheme([0], [[(gr(1), 1), (gr(0), 2)], [(gr(5), 2), (gr(2), 1)]])
        assert s.column_at_infinity()[0] == (gr(0), 2)
        assert s.column_at(1)[0] == (gr(5), 2)

    def test_spectral_type_strips_labels(self):
        s = RiemannScheme([0], [[(gr(1), 1), (gr(0), 2)], [(gr(5), 2), (gr(2), 1)]])
        assert format_spectral_type(s.spectral_type()) == "21,21"

    def test_duplicate_poles_rejected(self):
        with pytest.raises(InconsistentColumnsError):
            RiemannScheme([0, 0], [[(gr(0), 1)], [(gr(0), 1)], [(gr(0), 1)]])

    def test_labels_required(self):
        with pytest.raises(InconsistentColumnsError):
            RiemannScheme([0], [[(None, 1)], [(gr(0), 1)]])
