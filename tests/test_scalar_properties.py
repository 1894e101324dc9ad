"""Property tests of the Gaussian rationals Q(i) and of the fraction-free
echelon.

Every operation is compared with a reference written here on plain
``(Fraction, Fraction)`` pairs, and every result is checked for the
canonical-component rule: a part is an ``int`` exactly when it is integral,
otherwise a reduced ``Fraction``.  ``rref`` is compared with the dense
elimination of ``conftest.dense_rref``, which shares no code with it, and
the leading columns of ``_echelon``, and the rank and solvability read off
them, with ``rref``.  Runs are derandomized and keep no example
database, so the suite is deterministic; ``conftest.py`` keeps Hypothesis's
on-disk cache out of the working tree.
"""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from postrb.documents import parse_scalar
from postrb.scalars import (
    ONE,
    ZERO,
    ExactMatrix,
    GaussianRational,
    _echelon,
    _integer_row,
    _integer_rows,
    _solve,
    gaussian,
    rref,
    zero_vector,
)

from conftest import dense_rref

DETERMINISTIC = settings(database=None, derandomize=True)

small_ints = st.integers(min_value=-12, max_value=12)
small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=7)
rationals = st.one_of(small_ints, small_fractions)
values = st.builds(gaussian, rationals, rationals)
nonzero_values = values.filter(bool)


def pair(x: GaussianRational) -> tuple[Fraction, Fraction]:
    return Fraction(x.re), Fraction(x.im)


def ref_add(p, q):
    return p[0] + q[0], p[1] + q[1]


def ref_sub(p, q):
    return p[0] - q[0], p[1] - q[1]


def ref_mul(p, q):
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def ref_div(p, q):
    norm = q[0] * q[0] + q[1] * q[1]
    return (
        (p[0] * q[0] + p[1] * q[1]) / norm,
        (p[1] * q[0] - p[0] * q[1]) / norm,
    )


def assert_canonical(x: GaussianRational) -> None:
    for part in (x.re, x.im):
        assert type(part) in (int, Fraction)
        assert (type(part) is int) == (part.denominator == 1)


def assert_matches(x: GaussianRational, expected: tuple[Fraction, Fraction]) -> None:
    assert_canonical(x)
    assert pair(x) == expected
    built = gaussian(*expected)
    assert x == built
    assert hash(x) == hash(built) == hash((x.re, x.im))


@DETERMINISTIC
@given(values, values)
def test_ring_operations_match_reference(a, b):
    pa, pb = pair(a), pair(b)
    assert_matches(a + b, ref_add(pa, pb))
    assert_matches(a - b, ref_sub(pa, pb))
    assert_matches(a * b, ref_mul(pa, pb))
    assert_matches(-a, ref_sub((Fraction(0), Fraction(0)), pa))


@DETERMINISTIC
@given(values, nonzero_values)
def test_division_and_inverse_match_reference(a, b):
    pa, pb = pair(a), pair(b)
    assert_matches(a / b, ref_div(pa, pb))
    assert_matches(b.inverse(), ref_div((Fraction(1), Fraction(0)), pb))
    assert_matches(a.conjugate(), (pa[0], -pa[1]))


@DETERMINISTIC
@given(values, rationals)
def test_mixed_operands_match_reference(a, r):
    pa, pr = pair(a), (Fraction(r), Fraction(0))
    assert_matches(a + r, ref_add(pa, pr))
    assert_matches(r + a, ref_add(pr, pa))
    assert_matches(a - r, ref_sub(pa, pr))
    assert_matches(r - a, ref_sub(pr, pa))
    assert_matches(a * r, ref_mul(pa, pr))
    assert_matches(r * a, ref_mul(pr, pa))
    if r:
        assert_matches(a / r, ref_div(pa, pr))
    if a:
        assert_matches(r / a, ref_div(pr, pa))


@DETERMINISTIC
@given(values, values, values)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a + (-a) == ZERO
    assert a - b == a + (-b)
    if a:
        assert a * a.inverse() == ONE
        assert (b / a) * a == b


@DETERMINISTIC
@given(rationals, rationals)
def test_constructor_is_canonical(re, im):
    x = gaussian(re, im)
    assert_canonical(x)
    assert pair(x) == (Fraction(re), Fraction(im))
    assert GaussianRational(re, im) == x
    assert gaussian(str(Fraction(re)), str(Fraction(im))) == x


@DETERMINISTIC
@given(rationals)
def test_never_equal_to_a_number(r):
    x = gaussian(r)
    assert x != r
    assert x != Fraction(r)
    assert r != x
    assert GaussianRational.of(r) == x


@DETERMINISTIC
@given(values)
def test_str_roundtrips_through_the_parser(x):
    assert parse_scalar(str(x)) == x
    assert repr(x) == str(x)


@DETERMINISTIC
@given(values)
def test_values_are_immutable(x):
    assert not hasattr(x, "__dict__")
    for name in ("re", "im", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    with pytest.raises(AttributeError):
        del x.re


def test_halves_sum_to_an_int():
    half = gaussian(Fraction(1, 2), Fraction(-1, 2))
    total = half + half
    assert type(total.re) is int and type(total.im) is int
    assert total == gaussian(1, -1)


def assert_reduced(x: GaussianRational) -> None:
    assert type(x.a) is int and type(x.b) is int and type(x.d) is int
    assert x.d > 0 and gcd(x.a, x.b, x.d) == 1
    if not x:
        assert (x.a, x.b, x.d) == (0, 0, 1)


@DETERMINISTIC
@given(values, values)
def test_every_result_is_a_reduced_triple(a, b):
    for x in (a + b, a - b, a * b, -a, a.conjugate()):
        assert_reduced(x)
    if b:
        assert_reduced(a / b)
        assert_reduced(b.inverse())


def rational_literal(n: int, d: int, slash: bool) -> tuple[str, Fraction]:
    return (f"{n}/{d}", Fraction(n, d)) if slash else (str(n), Fraction(n))


def signed(sign: str, value: Fraction) -> Fraction:
    return -value if sign == "-" else value


real_literals = st.builds(rational_literal, st.integers(0, 40), st.integers(1, 12), st.booleans())
imag_literals = st.one_of(
    st.just(("i", Fraction(1))), real_literals.map(lambda lit: (lit[0] + "*i", lit[1]))
)
signs = st.sampled_from(["", "+", "-"])


@DETERMINISTIC
@given(signs, st.none() | real_literals, st.sampled_from(["+", "-"]), st.none() | imag_literals)
def test_parsed_literals_match_fraction_pairs(sign, real, isign, imag):
    # Literals like -3/4+5/6*i, i and 7, against gaussian(Fraction, Fraction).
    assume(real is not None or imag is not None)
    if real is None:
        text, expected = sign + imag[0], gaussian(0, signed(sign, imag[1]))
    elif imag is None:
        text, expected = sign + real[0], gaussian(signed(sign, real[1]))
    else:
        text = sign + real[0] + isign + imag[0]
        expected = gaussian(signed(sign, real[1]), signed(isign, imag[1]))
    parsed = parse_scalar(text)
    assert_reduced(parsed)
    assert parsed == expected


# Entries of the echelon tests: sparse, with denominators and complex parts.
entries = st.one_of(st.just(ZERO), st.just(ZERO), values)
# A wrong sign in the Z[i] products of the echelon first shows on a
# dependent row with a complex pivot; 100 examples did not reach one.
ECHELON = settings(database=None, derandomize=True, max_examples=200)


@st.composite
def matrices(draw, width: int | None = None) -> ExactMatrix:
    """Up to 6 rows of the given width (0 to 5 when not given).  Each row is
    fresh, zero, a repeat of an earlier one, or c u + v for earlier rows u,
    v and a nonzero c, so the rank is often below the row count."""
    if width is None:
        width = draw(st.integers(0, 5))
    rows: list[tuple] = []
    for _ in range(draw(st.integers(0, 6))):
        kinds = ("fresh", "zero", "repeat", "combination") if rows else ("fresh", "zero")
        kind = draw(st.sampled_from(kinds))
        if kind == "fresh":
            row = tuple(draw(st.lists(entries, min_size=width, max_size=width)))
        elif kind == "zero":
            row = zero_vector(width)
        elif kind == "repeat":
            row = draw(st.sampled_from(rows))
        else:
            u, v, c = draw(st.sampled_from(rows)), draw(st.sampled_from(rows)), draw(nonzero_values)
            row = tuple(c * x + y for x, y in zip(u, v))
        rows.append(row)
    return ExactMatrix(tuple(rows), width)


def integer_rows(m: ExactMatrix) -> list:
    """Each row scaled by the lcm of its denominators, as a sparse
    Gaussian-integer row."""
    return [_integer_row(row, lcm(*(x.d for x in row))) for row in m.entries]


def echelon_pivots(m: ExactMatrix) -> tuple[int, ...]:
    """The leading columns of the ``_echelon`` of the integer rows."""
    return tuple(sorted(_echelon(integer_rows(m))))


@ECHELON
@given(matrices())
def test_rref_matches_the_dense_elimination(m):
    assert rref(m) == dense_rref(m)


@ECHELON
@given(matrices())
def test_echelon_pivots_are_the_rref_pivots(m):
    assert echelon_pivots(m) == rref(m)[1]


@ECHELON
@given(matrices())
def test_rank_counts_the_rref_pivots(m):
    assert m.rank() == len(rref(m)[1])


@ECHELON
@given(st.integers(0, 3), st.integers(0, 3), st.data())
def test_solvability_read_off_the_echelon_pivots(n, k, data):
    # [A | B] is consistent exactly when no pivot lies in the B block.
    m = data.draw(matrices(n + k))
    solvable = all(p < n for p in echelon_pivots(m))
    assert solvable == (_solve(_integer_rows(m.entries), n, n + k).solutions is not None)
