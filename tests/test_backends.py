import json
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hankelmoments import Backend, BackendError, bigfloat
from hankelmoments.backends import (
    F64_BACKEND,
    RATIONAL_BACKEND,
    dot,
    exact_sum,
    integer_form,
    parse_number,
    scalar_to_json,
    sup_norm,
    three_term,
    to_float,
    to_json,
)


def test_parse_and_tag_round_trip():
    for tag in ("rational", "f64", "bigfloat:256"):
        assert Backend.parse(tag).tag() == tag


@pytest.mark.parametrize("tag", ["bigfloat", "bigfloat:", "bigfloat:abc", "float32", ""])
def test_malformed_tags_rejected(tag):
    with pytest.raises(BackendError):
        Backend.parse(tag)


def test_bigfloat_minimum_precision():
    with pytest.raises(BackendError):
        bigfloat(32)
    assert bigfloat(64).precision == 64


def test_rational_convert_is_exact():
    b = RATIONAL_BACKEND
    assert b.convert(parse_number("2/3")) == Fraction(2, 3)
    assert b.convert(5) == Fraction(5)
    x = b.convert(Fraction(1, 3))
    assert (x + x + x) == 1  # closed under arithmetic, no rounding


def test_rational_convert_returns_a_fraction_as_given():
    x = Fraction(-7, 9)
    assert RATIONAL_BACKEND.convert(x) is x
    # a subclass is still rebuilt as a plain Fraction, an int as its Fraction
    y = RATIONAL_BACKEND.convert(_FractionSubclass(2, 3))
    assert type(y) is Fraction and y == Fraction(2, 3)
    assert type(RATIONAL_BACKEND.convert(4)) is Fraction


@given(values=st.lists(st.one_of(st.integers(-50, 50),
                                 st.fractions(max_denominator=40)), max_size=8))
@settings(max_examples=100, deadline=None)
def test_integer_form_is_over_the_lcm_of_the_denominators(values):
    numerators, den = integer_form(values)
    assert all(type(x) is int for x in numerators)
    assert den == math.lcm(*(Fraction(x).denominator for x in values))
    assert [Fraction(x, den) for x in numerators] == values


def test_rational_refuses_floats():
    with pytest.raises(BackendError):
        RATIONAL_BACKEND.convert(0.1)
    with pytest.raises(BackendError):
        RATIONAL_BACKEND.sqrt(Fraction(2))


def test_bigfloat_conversion_uses_context_precision():
    b = bigfloat(128)
    x = b.convert(Fraction(1, 3))
    with b.context():
        err = abs(x * 3 - 1)
        assert err < mpmath.mpf(2) ** (-120)


def test_f64_convert():
    assert F64_BACKEND.convert(parse_number("1/4")) == 0.25
    assert F64_BACKEND.convert(Fraction(1, 2)) == 0.5


@pytest.mark.parametrize("backend", [RATIONAL_BACKEND, bigfloat(64), F64_BACKEND],
                         ids=lambda b: b.tag())
def test_convert_refuses_strings(backend):
    # parse_number is the one reader of number strings
    with pytest.raises(TypeError, match="parse_number"):
        backend.convert("1/3")


class _FractionSubclass(Fraction):
    pass


_BIG = 10**400 + 7


@pytest.mark.parametrize(
    "x",
    [
        Fraction(1, 3),
        Fraction(-7, 10**17 + 3),
        Fraction(3 * _BIG + 1, _BIG),  # numerator and denominator beyond f64 range
        Fraction(-(_BIG**2) - 1, 7 * _BIG**2),
        Fraction(1, 3 * _BIG),  # underflows to 0.0
        0,
        2**53 + 1,
        -(10**20) - 1,
        0.1,
        -0.0,
        np.float64(1 / 3),
        mpmath.mpf(1) / 3,
        _FractionSubclass(2, 3),
        _FractionSubclass(_BIG + 1, 3 * _BIG),
    ],
    ids=repr,
)
def test_to_float_is_float_bit_for_bit(x):
    with mpmath.workprec(200):
        assert to_float(x).hex() == float(x).hex()
        assert type(to_float(x)) is float


@settings(max_examples=200, deadline=None)
@given(num=st.integers(-(10**450), 10**450), den=st.integers(1, 10**450))
def test_to_float_is_float_on_fractions(num, den):
    x = Fraction(num, den)
    try:
        expected = float(x).hex()
    except OverflowError:
        with pytest.raises(OverflowError):
            to_float(x)
        return
    assert to_float(x).hex() == expected


def test_scalar_json_forms():
    assert scalar_to_json(Fraction(1, 3)) == "1/3"
    assert scalar_to_json(Fraction(4)) == "4"
    assert scalar_to_json(0.25) == 0.25
    assert parse_number(scalar_to_json(Fraction(-7, 9))) == Fraction(-7, 9)


@pytest.mark.parametrize(
    "value, expected",
    [
        ("3", Fraction(3)),
        (3, Fraction(3)),
        ("-7", Fraction(-7)),
        ("1/2", Fraction(1, 2)),
        (" -2/6 ", Fraction(-1, 3)),
        ("0.5", 0.5),
        (0.5, 0.5),
        ("1e-3", 0.001),
    ],
)
def test_parse_number_table(value, expected):
    parsed = parse_number(value)
    assert parsed == expected
    assert type(parsed) is type(expected)


def test_parse_number_refuses_a_decimal_that_underflows():
    # a nonzero decimal that rounds to 0.0 would silently change the data
    for text in ("1e-400", "-2.5e-330", "2e-324"):
        with pytest.raises(ValueError, match="underflows to 0.0"):
            parse_number(text)
    assert parse_number("5e-324") == 5e-324  # the smallest subnormal
    for text in ("0.0", "-0e-400", "0e5"):
        assert parse_number(text) == 0.0


def test_parse_number_refuses_a_zero_denominator():
    # a ZeroDivisionError is an ArithmeticError, which the CLI reports as a
    # failed computation (exit 1) rather than a config error
    for text in ("1/0", " -3/0 ", "0/0"):
        with pytest.raises(ValueError, match="has a zero denominator"):
            parse_number(text)


def test_parse_number_leaves_bools_and_exact_values():
    assert parse_number(True) is True
    x = Fraction(2, 3)
    assert parse_number(x) is x
    y = mpmath.mpf(2) ** 0.5
    assert parse_number(y) is y


@dataclass(frozen=True)
class _Leaf:
    x: object
    label: str


@dataclass(frozen=True)
class _Node:
    leaves: tuple
    extra: dict
    count: int
    flag: bool
    missing: object = None


def test_to_json_encodes_nested_records():
    with mpmath.workprec(64):
        third = mpmath.mpf(1) / 3
    node = _Node(
        leaves=(_Leaf(Fraction(1, 3), "a"), _Leaf(0.25, "b")),
        extra={"grid": [1, 2], "pair": (Fraction(4), third), "name": "x"},
        count=7,
        flag=True,
    )
    assert to_json(node) == {
        "leaves": [{"x": "1/3", "label": "a"}, {"x": 0.25, "label": "b"}],
        "extra": {"grid": [1, 2], "pair": ["4", "0.3333333333333333333424"], "name": "x"},
        "count": 7,
        "flag": True,
        "missing": None,
    }
    # encoding is idempotent: an encoded report passes through unchanged
    assert to_json(to_json(node)) == to_json(node)


def test_to_json_writes_non_finite_floats_as_strings():
    # strict JSON has no Infinity or NaN token; parse_number reads the strings back
    values = [math.inf, -math.inf, math.nan, np.float64("inf"), 1.5]
    encoded = to_json({"x": values})["x"]
    assert encoded == ["inf", "-inf", "nan", "inf", 1.5]
    text = json.dumps(encoded, allow_nan=False)
    decoded = [parse_number(v) for v in json.loads(text)]
    assert decoded[:2] == [math.inf, -math.inf] and math.isnan(decoded[2])


@pytest.mark.parametrize("value", [1j, {1, 2}, b"1/2", [Fraction(1), 2 + 0j]])
def test_to_json_rejects_unsupported_values(value):
    with pytest.raises(TypeError):
        to_json(value)


def test_vector_helpers():
    v = [Fraction(3), Fraction(-4)]
    assert dot(v, v) == 25
    assert sup_norm(v) == 4
    assert to_float(Fraction(1, 2)) == 0.5


# -- the exact inner-loop kernels ------------------------------------------------

# zeros, negatives and plain ints mixed with Fractions
exact_scalars = st.one_of(
    st.just(0),
    st.just(Fraction(0)),
    st.integers(-50, 50),
    st.fractions(max_denominator=10**6).filter(lambda q: abs(q) < 10**6),
)
float_scalars = st.floats(-1e6, 1e6, allow_nan=False)


def in_order_dot(xs, ys, zero):
    acc = zero
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


@given(pairs=st.lists(st.tuples(exact_scalars, exact_scalars), max_size=12))
@settings(max_examples=200, deadline=None)
def test_dot_equals_the_in_order_fraction_loop(pairs):
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    out = dot(xs, ys)
    assert type(out) is Fraction
    assert out == in_order_dot(xs, ys, Fraction(0))


@given(terms=st.lists(st.tuples(st.integers(-10**6, 10**6),
                                st.integers(-10**4, 10**4).filter(bool)), max_size=12))
@settings(max_examples=200, deadline=None)
def test_exact_sum_equals_the_fraction_sum(terms):
    out = exact_sum(terms)
    assert type(out) is Fraction
    assert out == sum((Fraction(n, d) for n, d in terms), Fraction(0))


@given(args=st.tuples(*[exact_scalars] * 5))
@settings(max_examples=200, deadline=None)
def test_three_term_equals_the_fraction_expression(args):
    a, alpha, b, beta, c = args
    out = three_term(a, alpha, b, beta, c)
    assert type(out) is Fraction
    assert out == Fraction(a) - Fraction(alpha) * b - Fraction(beta) * c


def test_dot_on_empty_and_single_terms():
    assert dot([], []) == 0 and type(dot([], [])) is Fraction
    assert dot([Fraction(2, 3)], [Fraction(-9, 4)]) == Fraction(-3, 2)
    assert dot([Fraction(0)], [Fraction(5, 7)]) == 0
    assert dot([3], [4]) == 12 and type(dot([3], [4])) is Fraction


@given(pairs=st.lists(st.tuples(float_scalars, float_scalars), min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_dot_float_branch_keeps_the_in_order_bits(pairs):
    xs = [x for x, _ in pairs]
    ys = [y for _, y in pairs]
    assert repr(dot(xs, ys)) == repr(in_order_dot(xs, ys, 0.0))
    with bigfloat(128).context():
        ms = [mpmath.mpf(x) / 3 for x in xs]
        ns = [mpmath.mpf(y) / 7 for y in ys]
        assert dot(ms, ns) == in_order_dot(ms, ns, mpmath.mpf(0))
        # a Fraction among mpf operands takes the float branch too
        mixed = [Fraction(1, 3)] + ns[1:]
        assert dot(ms, mixed) == in_order_dot(ms, mixed, mpmath.mpf(0))


@given(args=st.tuples(*[float_scalars] * 5))
@settings(max_examples=200, deadline=None)
def test_three_term_float_branch_keeps_the_expression_bits(args):
    a, alpha, b, beta, c = args
    assert repr(three_term(a, alpha, b, beta, c)) == repr(a - alpha * b - beta * c)
    with bigfloat(128).context():
        m = [mpmath.mpf(v) / 3 for v in args]
        assert three_term(*m) == m[0] - m[1] * m[2] - m[3] * m[4]
