import operator
import sys
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fraction_pair import FractionPair, format_pair
from fuchsmc.errors import ParseError
from fuchsmc.scalars import (
    GaussianRational,
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


@pytest.mark.parametrize(
    "bad",
    ["", "x", "1..2", "1/0", "2//3", "+-i", "1 2", "1_000", "1/-2", "1/+2", "+3", "1 + 2i", "3 i", "\uff11"],
)
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




@pytest.mark.parametrize("value", [0.1, 0.5, 1.0, Decimal("0.25"), Decimal(1)])
@pytest.mark.parametrize(
    "make",
    [GaussianRational, lambda v: GaussianRational(1, v), gr, lambda v: gr(v, 1), lambda v: gr(1, v)],
    ids=["constructor", "constructor-im", "gr", "gr-pair-re", "gr-pair-im"],
)
def test_inexact_numbers_are_refused(make, value):
    with pytest.raises(TypeError):
        make(value)


# -- the integer triple against the Fraction-pair oracle ------------------------

rationals = st.one_of(
    st.fractions(max_denominator=60),
    st.integers(-(10**30), 10**30).map(Fraction),
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2)]),
)
# parts over one denominator reach the equal-denominator sums and a common
# factor of the numerators and the denominator
pairs = st.one_of(
    st.tuples(rationals, rationals),
    st.builds(
        lambda x, y, d: (Fraction(x, d), Fraction(y, d)),
        st.integers(-40, 40),
        st.integers(-40, 40),
        st.integers(1, 36),
    ),
)
coercible = st.one_of(st.integers(-50, 50), st.fractions(max_denominator=20))


def both(pair) -> tuple[GaussianRational, FractionPair]:
    return GaussianRational(*pair), FractionPair(*pair)


def same(g, o: FractionPair) -> None:
    """g is o, in the one reduced stored form."""
    assert type(g) is GaussianRational
    assert (g.re, g.im) == (o.re, o.im)
    assert g.den > 0 and gcd(g.x, g.y, g.den) == 1


def same_failure(f, *args) -> None:
    with pytest.raises(ZeroDivisionError):
        f(*args)


def assert_orders_as_oracle(values: list[tuple[Fraction, Fraction]]) -> None:
    """sort_key sorts the values as the oracle's (re, im) pairs do, and
    compares each pair of them as the oracle does."""
    scalars = [GaussianRational(*v) for v in values]
    by_key = sorted(range(len(values)), key=lambda k: scalars[k].sort_key())
    assert [values[k] for k in by_key] == sorted(values)
    for a, (ra, ia) in zip(scalars, values):
        for b, (rb, ib) in zip(scalars, values):
            assert (a.sort_key() < b.sort_key()) == ((ra, ia) < (rb, ib))
            assert (a.sort_key() == b.sort_key()) == ((ra, ia) == (rb, ib))


@given(pairs, pairs)
@settings(max_examples=300)
def test_binary_operations_match_the_oracle(p, q):
    (a, oa), (b, ob) = both(p), both(q)
    for op in (operator.add, operator.sub, operator.mul):
        same(op(a, b), op(oa, ob))
    if ob:
        same(a / b, oa / ob)
    else:
        same_failure(operator.truediv, a, b)
        same_failure(operator.truediv, oa, ob)
    assert (a == b) == (oa == ob) and (a != b) == (oa != ob)
    if a == b:
        assert hash(a) == hash(b)
    assert_orders_as_oracle([p, q])


@given(pairs)
@settings(max_examples=300)
def test_unary_operations_match_the_oracle(p):
    a, oa = both(p)
    same(-a, -oa)
    same(a.conjugate(), oa.conjugate())
    assert bool(a) == bool(oa) and a.is_zero() == oa.is_zero()
    if oa:
        same(a.inverse(), oa.inverse())
    else:
        same_failure(a.inverse)
        same_failure(oa.inverse)
    text = format_scalar(a)
    assert text == format_pair(oa) == str(a)
    assert parse_scalar(text) == a and parse_scalar(f" {text}\t\n") == a
    # each value has one stored form, whichever way it is built
    for other in (gr(text), gr(*p), gr(p[0]) + gr(p[1]) * gr(0, 1), -(-a)):
        assert other == a and hash(other) == hash(a)
        assert (other.x, other.y, other.den) == (a.x, a.y, a.den)


@given(pairs, coercible)
@settings(max_examples=300)
def test_int_and_fraction_coercion_match_the_oracle(p, k):
    a, oa = both(p)
    for op in (operator.add, operator.sub, operator.mul):
        same(op(a, k), op(oa, k))
        same(op(k, a), op(k, oa))
    if k:
        same(a / k, oa / k)
    else:
        same_failure(operator.truediv, a, k)
    if oa:
        same(k / a, k / oa)
    else:
        same_failure(operator.truediv, k, a)
    assert (a == k) == (oa == k) and (k == a) == (k == oa)
    same(gr(k), FractionPair(k))
    same(GaussianRational(k, k), FractionPair(k, k))
    if a == gr(k):
        assert hash(a) == hash(gr(k))


@given(st.lists(pairs, max_size=12))
@settings(max_examples=100)
def test_sort_key_orders_as_the_oracle(values):
    assert_orders_as_oracle(values)


# real parts tie, or are equal as rationals with one of them an int, so only
# the imaginary parts decide
TIES = [
    (Fraction(1), Fraction(2)),
    (Fraction(1), Fraction(-3, 2)),
    (Fraction(1, 2), Fraction(1)),
    (Fraction(1, 2), Fraction(0)),
    (Fraction(-1, 3), Fraction(1, 3)),
    (Fraction(-1, 3), Fraction(-1, 3)),
    (Fraction(0), Fraction(1, 2)),
    (Fraction(0), Fraction(0)),
]


@pytest.mark.parametrize(
    "mutant",
    [lambda g: (g.re, -g.im), lambda g: (g.re,), lambda g: (g.x, g.y)],
    ids=["reversed-tie", "no-tie", "numerators"],
)
def test_a_planted_sort_key_mutation_fails(monkeypatch, mutant):
    assert_orders_as_oracle(TIES)
    monkeypatch.setattr(GaussianRational, "sort_key", mutant)
    with pytest.raises(AssertionError):
        assert_orders_as_oracle(TIES)


P = sys.hash_info.modulus


@given(
    st.one_of(st.integers(), st.integers(-(10**30), 10**30).map(lambda k: k * P)),
    st.one_of(
        st.integers(1, 10**6),
        st.integers(1, 10**6).map(lambda k: k * P),
        st.integers(2**61, 2**200),
    ),
)
@settings(max_examples=300)
def test_a_real_value_hashes_as_the_int_or_fraction_it_equals(num, den):
    # the hash prime dividing den gives the infinity hash, and dividing num
    # gives 0, both branches of Python's rule for rationals
    q = Fraction(num, den)
    g = gr(q)
    assert g == q and hash(g) == hash(q)
    if q.denominator == 1:
        assert g == q.numerator and hash(g) == hash(q.numerator)
        assert len({g, q.numerator}) == 1
    assert {q: "q"}[g] == "q"
