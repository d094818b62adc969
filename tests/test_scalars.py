import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuchsmc.errors import ParseError
from fuchsmc.scalars import (
    format_scalar,
    gr,
    parse_scalar,
)

gaussians = st.builds(
    lambda a, b, c, d: gr(f"{a}/{b}") + gr(f"{c}/{d}") * gr(0, 1),
    st.integers(-40, 40),
    st.integers(1, 12),
    st.integers(-40, 40),
    st.integers(1, 12),
)


@pytest.mark.parametrize(
    "text",
    ["3", "-1/2", "1/2+3i", "-i", "i", "0", "7i", "-2/3i", "1+i", "1-i", "2-1/3i"],
)
def test_grammar_round_trip(text):
    g = parse_scalar(text)
    assert parse_scalar(format_scalar(g)) == g


@pytest.mark.parametrize("bad", ["", "x", "1..2", "1/0", "2//3", "+-i"])
def test_bad_scalars_rejected(bad):
    with pytest.raises(ParseError):
        parse_scalar(bad)


@given(gaussians)
@settings(max_examples=60)
def test_format_parse_identity(g):
    assert parse_scalar(format_scalar(g)) == g


@given(gaussians, gaussians)
@settings(max_examples=60)
def test_additive_cancellation(a, b):
    assert (a + b) - b == a


@given(gaussians, gaussians)
@settings(max_examples=60)
def test_multiplicative_cancellation(a, b):
    if not b.is_zero():
        assert (a * b) / b == a


@given(gaussians, gaussians, gaussians)
@settings(max_examples=40)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


def test_inverse_and_conjugate():
    z = gr(1, 2)
    assert z * z.inverse() == gr(1)
    assert z.conjugate() == gr(1, -2)
    assert z * z.conjugate() == gr(5)
    with pytest.raises(ZeroDivisionError):
        gr(0).inverse()


def test_ints_coerce_in_arithmetic():
    assert gr(3) + 1 == gr(4)
    assert 2 * gr(1, 1) == gr(2, 2)
    assert 1 - gr(0, 1) == gr(1, -1)
    assert gr(4) / 2 == gr(2)


