"""Exact scalar and linear algebra tests.

Expected values here are either trivial identities or hand-worked
eliminations; the Smith normal form is checked against its defining
properties (exact transform identity, unimodularity, divisibility chain).
"""

import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import product
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from postrb import scalars
from postrb.scalars import (
    ExactMatrix,
    GaussianRational,
    I,
    IntMatrix,
    ONE,
    ZERO,
    _diagonalize,
    _smith,
    determinant,
    gaussian,
    rref,
    smith_normal_form,
    solve_affine,
    solve_linear_congruences,
    vector,
)

from conftest import dense_rref, matrix_apply, zero_matrix

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


class TestGaussianRational:
    def test_arithmetic_is_exact(self):
        a = gaussian(Fraction(1, 3), Fraction(-2, 7))
        b = gaussian(Fraction(5, 11), Fraction(4, 9))
        assert (a + b) - b == a
        assert (a * b) / b == a

    def test_division_matches_conjugate_formula(self):
        a = gaussian(1, 1)
        b = gaussian(0, 1)
        assert a / b == gaussian(1, -1)

    def test_i_squared(self):
        assert I * I == gaussian(-1)

    def test_zero_division_rejected(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO

    @pytest.mark.parametrize("value", [0.1, 0.5, 2.0, 1j, complex(2, 0), Decimal("0.5")])
    @pytest.mark.parametrize(
        "build",
        [
            gaussian,
            lambda v: gaussian(1, v),
            GaussianRational,
            lambda v: GaussianRational(0, v),
            GaussianRational.of,
            lambda v: ONE + v,
            lambda v: v * ONE,
        ],
    )
    def test_floating_point_rejected(self, build, value):
        with pytest.raises(TypeError):
            build(value)

    def test_exact_arguments_accepted(self):
        assert gaussian("1/2") == gaussian(Fraction(1, 2))
        assert GaussianRational.of(3) == GaussianRational(3, 0)
        assert GaussianRational.of(Fraction(6, 3)).re.__class__ is int

    def test_string_forms(self):
        assert str(gaussian(0)) == "0"
        assert str(gaussian(Fraction(1, 2))) == "1/2"
        assert str(gaussian(0, 1)) == "i"
        assert str(gaussian(0, -1)) == "-i"
        assert str(gaussian(0, Fraction(-1, 2))) == "-1/2*i"
        assert str(gaussian(Fraction(1, 2), Fraction(1, 2))) == "1/2+1/2*i"
        assert str(gaussian(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4*i"

    def test_random_field_axioms(self):
        rng = random.Random(7)
        for _ in range(200):
            vals = [
                gaussian(
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                )
                for _ in range(3)
            ]
            a, b, c = vals
            assert a * (b + c) == a * b + a * c
            if b:
                assert (a / b) * b == a


@pytest.mark.parametrize("columns", [[[1], [3, 4]], [[1, 2], [3]]], ids=["longer", "shorter"])
def test_ragged_columns_are_refused(columns):
    # A later column of another height is refused, as ragged rows are, not
    # cut to the height of the first.
    with pytest.raises(ValueError):
        ExactMatrix.from_columns(columns)


class TestRref:
    def test_identity_fixed(self):
        m = ExactMatrix.identity(3)
        red, pivots = rref(m)
        assert red == m
        assert pivots == (0, 1, 2)

    def test_zero_matrix(self):
        m = zero_matrix(2, 2)
        red, pivots = rref(m)
        assert red == m
        assert pivots == ()

    def test_rank_one_example(self):
        # Hand elimination: r2 := r2 - 2 r1 kills the second row.
        m = ExactMatrix.from_rows([[1, 2], [2, 4]])
        red, pivots = rref(m)
        assert red == ExactMatrix.from_rows([[1, 2], [0, 0]])
        assert pivots == (0,)

    def test_idempotent(self):
        rng = random.Random(3)
        for _ in range(25):
            m = ExactMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(4)] for _ in range(3)]
            )
            red, _ = rref(m)
            again, _ = rref(red)
            assert again == red

    def test_complex_pivot(self):
        m = ExactMatrix.from_rows([[I, gaussian(1)], [gaussian(0), gaussian(1)]])
        red, pivots = rref(m)
        assert pivots == (0, 1)
        assert red == ExactMatrix.identity(2)


class TestRank:
    @pytest.mark.parametrize(
        "matrix",
        [
            ExactMatrix((), 3),
            ExactMatrix(((), ()), 0),
            zero_matrix(2, 3),
            ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6], [I, 2 * I, 3 * I], [0, 0, 1]]),
            ExactMatrix.from_rows(
                [[gaussian(Fraction(2, 3), 1), 0, 1], [0, gaussian(0, Fraction(1, 2)), 1]]
            ),
        ],
    )
    def test_rank_takes_no_rref(self, matrix, monkeypatch):
        # A rank needs only the pivots: the fraction-free echelon.
        expected = len(rref(matrix)[1])

        def refused(matrix):
            raise AssertionError("rank went through rref")

        monkeypatch.setattr(scalars, "rref", refused)
        assert matrix.rank() == expected

    def test_dense_gaussian_rows_keep_small_entries(self, monkeypatch):
        # Each elimination step multiplies a row by a pivot.  Were the pivots
        # left complex, their Gaussian factors (which no integer gcd
        # removes) would pile up from step to step.  Here every minor is
        # below about 2^100 (Hadamard), so the parts of a row, seen by the
        # gcd that divides them, stay within a product of two minors.
        largest = []

        def watched(*parts):
            largest.append(max((abs(x) for x in parts), default=0).bit_length())
            return gcd(*parts)

        rng = random.Random(24)
        rows = [[gaussian(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(24)] for _ in range(20)]
        for _ in range(4):
            u, v = rng.sample(rows, 2)
            c = gaussian(rng.randint(-2, 2), rng.randint(1, 2))
            rows.append([c * x + y for x, y in zip(u, v)])
        matrix = ExactMatrix.from_rows(rows)
        expected = len(rref(matrix)[1])
        monkeypatch.setattr(scalars, "gcd", watched)
        assert matrix.rank() == expected == 20
        assert max(largest) < 400


def _assert_rref_matches_oracle(matrix):
    red, pivots = rref(matrix)
    assert (red, pivots) == dense_rref(matrix)
    assert red.width == matrix.width and red.rows == matrix.rows
    assert all(x.__class__ is GaussianRational for row in red.entries for x in row)


GAUSSIAN_ENTRIES = [
    gaussian(1),
    gaussian(-1),
    gaussian(2),
    gaussian(0, 1),
    gaussian(3, -2),
    gaussian(Fraction(1, 2)),
    gaussian(Fraction(-2, 3), Fraction(1, 5)),
    gaussian(0, Fraction(-3, 4)),
]


def _seeded_matrix(rng, rows, cols, density):
    return ExactMatrix(
        tuple(
            tuple(
                rng.choice(GAUSSIAN_ENTRIES) if rng.random() < density else ZERO
                for _ in range(cols)
            )
            for _ in range(rows)
        ),
        cols,
    )


@st.composite
def gaussian_matrices(draw, max_rows=6, max_cols=7):
    """Small matrices over Q(i), empty ones included; entries are zero half
    the time, and some rows are copies of combinations of others so that
    rank-deficient shapes are common."""
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    entry = st.one_of(st.just(ZERO), st.sampled_from(GAUSSIAN_ENTRIES))
    entries = draw(
        st.lists(
            st.lists(entry, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    if rows >= 2 and draw(st.booleans()):
        a, b = entries[0], entries[1]
        s = draw(st.sampled_from(GAUSSIAN_ENTRIES))
        entries[-1] = [x + s * y for x, y in zip(a, b)]
    return ExactMatrix(tuple(tuple(r) for r in entries), cols)


class TestRrefOracle:
    """``rref`` gives exactly the dense elimination's matrix and pivots."""

    @settings(database=None, derandomize=True, max_examples=200)
    @given(gaussian_matrices())
    def test_hypothesis_matrices(self, matrix):
        _assert_rref_matches_oracle(matrix)

    @pytest.mark.parametrize("density", [0.15, 0.4, 1.0])
    def test_seeded_matrices(self, density):
        rng = random.Random(2024)
        for _ in range(30):
            rows, cols = rng.randint(1, 12), rng.randint(1, 12)
            _assert_rref_matches_oracle(_seeded_matrix(rng, rows, cols, density))

    @pytest.mark.parametrize(
        "matrix",
        [
            ExactMatrix((), 4),
            ExactMatrix((), 0),
            ExactMatrix(((), (), ()), 0),
            zero_matrix(3, 5),
            ExactMatrix.from_rows([[0, 2, 0, I, 1, 0, 3], [0, 4, 1, 0, 0, 0, 0]]),
            ExactMatrix.from_rows([[2], [I], [0], [3], [gaussian(1, 1)]]),
            ExactMatrix.from_rows([[1, 2, 3], [2, 4, 6], [I, 2 * I, 3 * I], [0, 0, 0]]),
            ExactMatrix.from_rows([[0, 0, 5], [0, 3, 1], [2, 1, 0]]),
            ExactMatrix.from_rows([[gaussian(1, 1), 2, I], [I, gaussian(0, -2), 1]]),
            ExactMatrix.from_rows(
                [[gaussian(Fraction(2, 3), 1), 0, 1], [0, gaussian(0, Fraction(1, 2)), 1]]
            ),
        ],
        ids=[
            "zero-rows",
            "zero-rows-no-columns",
            "no-columns",
            "all-zero",
            "wide",
            "tall",
            "rank-deficient",
            "non-unit-pivots",
            "complex-pivots",
            "fractional-complex-pivots",
        ],
    )
    def test_edge_shapes(self, matrix):
        _assert_rref_matches_oracle(matrix)


class TestSolveAffine:
    def test_identity_system(self):
        sol = solve_affine(ExactMatrix.identity(2), [ONE, I])
        assert sol is not None
        assert sol.particular == (ONE, I)
        assert sol.nullspace == ()

    def test_underdetermined_free_zero(self):
        # x + y = 2 with y free: canonical solution (2, 0), kernel (-1, 1).
        sol = solve_affine(ExactMatrix.from_rows([[1, 1]]), [2])
        assert sol is not None
        assert sol.particular == vector([2, 0])
        assert sol.nullspace == (vector([-1, 1]),)

    def test_inconsistent(self):
        assert solve_affine(ExactMatrix.from_rows([[0]]), [1]) is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_affine(ExactMatrix.identity(2), [1])

    def test_solution_properties_random(self):
        rng = random.Random(11)
        for _ in range(40):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            m = ExactMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            )
            x = vector([rng.randint(-3, 3) for _ in range(cols)])
            b = matrix_apply(m, x)
            sol = solve_affine(m, b)
            assert sol is not None
            assert matrix_apply(m, sol.particular) == b
            for v in sol.nullspace:
                assert matrix_apply(m, v) == vector([0] * rows)
            assert len(sol.nullspace) == cols - len(rref(m)[1])

    def test_zero_row_system(self):
        m = zero_matrix(0, 3)
        sol = solve_affine(m, [])
        assert sol is not None
        assert sol.particular == vector([0, 0, 0])
        assert len(sol.nullspace) == 3


class TestDeterminant:
    def test_singular(self):
        assert determinant(ExactMatrix.from_rows([[1, 2], [2, 4]])) == ZERO

    def test_two_by_two(self):
        m = ExactMatrix.from_rows([[1, 2], [3, 4]])
        assert determinant(m) == gaussian(-2)

    def test_inverse_roundtrip(self):
        m = ExactMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        inv = m.inverse()
        assert m @ inv == ExactMatrix.identity(3)


def _int_det(matrix: IntMatrix) -> int:
    value = determinant(ExactMatrix.from_rows(matrix.entries, width=matrix.cols))
    assert not value.im and value.re.denominator == 1
    return int(value.re)


def _check_smith(matrix: IntMatrix) -> IntMatrix:
    u, d, v = smith_normal_form(matrix)
    assert (u @ matrix @ v).entries == d.entries
    assert abs(_int_det(u)) == 1
    assert abs(_int_det(v)) == 1
    diag = d.diagonal()
    for r in range(d.rows):
        for c in range(d.cols):
            if r != c:
                assert d.entries[r][c] == 0
    for x in diag:
        assert x >= 0
    nonzero = [x for x in diag if x]
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    # zeros trail the nonzero diagonal entries
    assert all(x == 0 for x in diag[len(nonzero):])
    return d


@st.composite
def integer_matrices(draw, max_rows=7, max_cols=7):
    """Small integer matrices, empty ones included, with some rows and
    columns set to zero.  Entries are zero half the time, so sparse and
    diagonal shapes, whose pivots do not divide the entries left, are
    common."""
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    entries = draw(
        st.lists(
            st.lists(entry, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0))))
    zero_cols = draw(st.sets(st.integers(0, max(cols - 1, 0))))
    return IntMatrix.from_rows(
        [
            [0 if r in zero_rows or c in zero_cols else x for c, x in enumerate(row)]
            for r, row in enumerate(entries)
        ],
        width=cols,
    )


DETERMINISTIC = settings(database=None, derandomize=True)


class TestSmithProperties:
    @DETERMINISTIC
    @given(integer_matrices())
    def test_defining_properties(self, matrix):
        _check_smith(matrix)

    @DETERMINISTIC
    @given(integer_matrices(), st.data())
    def test_riders_take_every_row_operation(self, matrix, data):
        # The one kernel applies each row operation to the riders: they come
        # out as u @ riders, with the u, d and v of ``smith_normal_form``,
        # and the congruence solver reads the same diagonal and v off it.
        k = data.draw(st.integers(0, 3))
        block = data.draw(
            st.lists(
                st.lists(st.integers(-9, 9), min_size=k, max_size=k),
                min_size=matrix.rows,
                max_size=matrix.rows,
            )
        )
        u, d, v = smith_normal_form(matrix)
        assert (u @ matrix @ v).entries == d.entries  # so u is the row transform
        riders = [list(row) for row in block]
        got_d, got_v = _smith(matrix.entries, riders, matrix.cols)
        assert riders == [list(row) for row in (u @ IntMatrix.from_rows(block, width=k)).entries]
        assert (tuple(map(tuple, got_d)), tuple(map(tuple, got_v))) == (d.entries, v.entries)
        # Every congruence mod 1 holds, so the system is never refused.
        columns = [[row[c] for row in block] for c in range(k)]
        system = _diagonalize(matrix.entries, columns, (1,) * k, matrix.cols)
        padded = d.diagonal() + (0,) * (matrix.cols - len(d.diagonal()))
        assert system.diagonal == padded and system.transform == v

    @DETERMINISTIC
    @given(
        integer_matrices(max_rows=4, max_cols=3),
        st.integers(1, 6),
        st.lists(st.integers(0, 5), min_size=4, max_size=4),
    )
    def test_congruence_solution_matches_exhaustion(self, matrix, modulus, values):
        from itertools import product

        rhs = [x % modulus for x in values[: matrix.rows]]

        def solves(xs):
            image = matrix.apply(list(xs))
            return all((a - b) % modulus == 0 for a, b in zip(image, rhs))

        got = solve_linear_congruences(matrix, rhs, modulus)
        if got is None:
            assert not any(solves(xs) for xs in product(range(modulus), repeat=matrix.cols))
        else:
            assert all(0 <= x < modulus for x in got)
            assert solves(got)


class TestSmithNormalForm:
    def test_diag_2_3(self):
        # gcd manipulation turns diag(2,3) into diag(1,6).
        d = _check_smith(IntMatrix.from_rows([[2, 0], [0, 3]]))
        assert d.diagonal() == (1, 6)

    def test_identity(self):
        d = _check_smith(IntMatrix.identity(3))
        assert d.diagonal() == (1, 1, 1)

    def test_zero(self):
        d = _check_smith(IntMatrix.from_rows([[0, 0], [0, 0]]))
        assert d.diagonal() == (0, 0)

    def test_rectangular_and_random(self):
        rng = random.Random(5)
        for _ in range(50):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = IntMatrix.from_rows(
                [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
            )
            _check_smith(m)

    def test_matches_determinant_divisors(self):
        # Independent oracle: d1...dk are quotients of gcds of k x k minors.
        from itertools import combinations
        from math import gcd

        m = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        divisors = []
        for k in (1, 2, 3):
            g = 0
            for rows in combinations(range(3), k):
                for cols in combinations(range(3), k):
                    minor = ExactMatrix.from_rows(
                        [[m.entries[r][c] for c in cols] for r in rows]
                    )
                    value = determinant(minor)
                    g = gcd(g, int(value.re))
            divisors.append(g)
        expected = (
            divisors[0],
            divisors[1] // divisors[0],
            divisors[2] // divisors[1],
        )
        d = _check_smith(m)
        assert d.diagonal() == expected == (2, 2, 156)

    def test_transforms_stay_small(self):
        # A second full diagonalization to restore the divisibility chain
        # takes minutes here, with transform entries of millions of bits
        # (coefficient explosion); the chain must hold as the pass goes.
        m = IntMatrix.from_rows(
            [
                (3, 0, -8, 0, -2, 0, -6),
                (0, -8, 0, 0, -6, -7, 0),
                (0, 1, 0, 9, -9, -7, -1),
                (0, -9, 8, 2, 0, -4, 0),
                (0, 2, 0, 0, 0, 0, -6),
                (0, 0, 0, 9, -8, 0, 0),
            ]
        )
        u, d, v = smith_normal_form(m)
        assert (u @ m @ v).entries == d.entries
        assert d.diagonal() == (1, 1, 1, 1, 1, 2)
        assert all(abs(x) < 2**64 for t in (u, v) for row in t.entries for x in row)


class TestSolveLinearCongruences:
    def test_simple_mod_two(self):
        m = IntMatrix.from_rows([[2]])
        assert solve_linear_congruences(m, [1], 2) is None
        assert solve_linear_congruences(m, [0], 2) == [0]

    def test_invertible_mod(self):
        m = IntMatrix.from_rows([[3]])
        assert solve_linear_congruences(m, [1], 4) == [3]

    def test_agrees_with_exhaustion(self):
        rng = random.Random(13)
        for _ in range(60):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            modulus = rng.choice([2, 3, 4, 6])
            m = IntMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            )
            rhs = [rng.randint(0, modulus - 1) for _ in range(rows)]
            got = solve_linear_congruences(m, rhs, modulus)

            def brute():
                from itertools import product

                for xs in product(range(modulus), repeat=cols):
                    image = m.apply(list(xs))
                    if all((a - b) % modulus == 0 for a, b in zip(image, rhs)):
                        return list(xs)
                return None

            expected_exists = brute() is not None
            assert (got is not None) == expected_exists
            if got is not None:
                image = m.apply(got)
                assert all((a - b) % modulus == 0 for a, b in zip(image, rhs))


def _solvable(rows, rhs, modulus, width) -> bool:
    """Whether rows @ x = rhs (mod modulus) has a solution, by exhaustion."""
    from itertools import product

    return any(
        all((sum(a * x for a, x in zip(row, xs)) - s) % modulus == 0 for row, s in zip(rows, rhs))
        for xs in product(range(modulus), repeat=width)
    )


def _assert_diagonal(system, rows, width):
    """``diagonal`` has ``width`` entries, a divisibility chain of nonzero
    entries followed by zeros; ``transform`` is unimodular, and each column
    i of rows @ transform is a multiple of d_i (zero past the rank), as
    rows @ v = u^-1 @ d."""
    diagonal, transform = system.diagonal, system.transform
    assert len(diagonal) == width and all(x >= 0 for x in diagonal)
    nonzero = [x for x in diagonal if x]
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
    assert not any(diagonal[len(nonzero):])
    assert (transform.rows, transform.cols) == (width, width)
    assert width == 0 or abs(_int_det(transform)) == 1
    for row in rows:
        image = transform.transpose().apply(row)  # row @ transform
        assert all(x == 0 if not d else x % d == 0 for x, d in zip(image, diagonal))


class TestDiagonalize:
    """The diagonal solver shared by every integer system, on several moduli
    and right-hand sides at once, against exhaustion."""

    def test_agrees_with_exhaustion(self):
        rng = random.Random(59)
        verdicts = {True: 0, False: 0}
        for _ in range(120):
            width = rng.randint(1, 3)
            rows = [
                [rng.randint(-4, 4) for _ in range(width)] for _ in range(rng.randint(0, 5))
            ]
            if rows and rng.random() < 0.3:
                rows[rng.randrange(len(rows))] = [0] * width
            moduli = rng.sample([2, 3, 4, 6, 8], rng.randint(1, 3))
            rhs = [[rng.randint(-6, 6) for _ in rows] for _ in moduli]
            system = _diagonalize(rows, rhs, moduli, width)
            solvable = all(_solvable(rows, r, m, width) for r, m in zip(rhs, moduli))
            assert (system is not None) == solvable
            verdicts[solvable] += 1
            if system is None:
                continue
            _assert_diagonal(system, rows, width)
            assert len(system.least) == len(moduli)
            for least, r, m in zip(system.least, rhs, moduli):
                x = system.transform.apply(least)
                assert all(
                    (sum(a * xi for a, xi in zip(row, x)) - s) % m == 0
                    for row, s in zip(rows, r)
                )
        assert min(verdicts.values()) >= 20

    def test_one_modulus_without_solution_refuses_all(self):
        # 2 x = 1 has a solution mod 3 but none mod 4.
        rows = [[2, 0], [0, 0]]
        assert _diagonalize(rows, [[1, 0]], (3,), 2) is not None
        assert _diagonalize(rows, [[1, 0], [1, 0]], (3, 4), 2) is None
        assert _diagonalize(rows, [[1, 1]], (3,), 2) is None  # the zero row

    @pytest.mark.parametrize(
        "rows, width, diagonal",
        [
            ([[2, 0], [0, 4], [0, 0], [2, 4]], 2, (2, 4)),
            ([[6, 4, 0]], 3, (2, 0, 0)),
            ([[2, 0], [0, 3]], 2, (1, 6)),
            ([], 2, (0, 0)),
        ],
    )
    def test_smith_form_alone(self, rows, width, diagonal):
        # No right-hand sides: the padded diagonal and v, as the center's
        # decomposition reads them.
        system = _diagonalize(rows, (), (), width)
        assert system.diagonal == diagonal and system.least == []
        _assert_diagonal(system, rows, width)


def test_parsing_checking_and_obstruction_build_no_fraction(tmp_path, monkeypatch, capsys):
    # Arithmetic works on the integer triples; a Fraction is built only when
    # ``re`` or ``im`` is read.  The document mixes 1/2 and i entries.
    from postrb.cli import main
    from postrb.documents import parse_document
    from postrb.lie import jacobi_violations
    from postrb.lie_obstruction import construct_rb_from_obstruction, verify_lie_2cocycle
    from postrb.postlie import check_postlie_axioms, sub_adjacent

    text = SAMPLES.joinpath("sl2.post").read_text()
    assert "1/2" in text and "i*e" in text
    path = tmp_path / "sl2.post"
    path.write_text(text)
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    doc = parse_document(text)
    assert check_postlie_axioms(doc.post_lie).ok
    assert jacobi_violations(doc.post_lie.base) == ()
    rebuilt = construct_rb_from_obstruction(doc.post_lie, doc.linear_maps["witness"])
    assert verify_lie_2cocycle(rebuilt.cocycle, sub_adjacent(doc.post_lie))
    assert main(["obstruction", "--input", str(path)]) == 0
    assert capsys.readouterr().out
    assert built == []


# The arithmetic dunders of ``GaussianRational``, as ``bench/tracer.py``
# wraps them.
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__")


def test_decisions_do_no_scalar_arithmetic(monkeypatch, capsys):
    # Scalars are an edge format: the checks, innerness, every group
    # subcommand and the scan decide on integer data, so none of them adds,
    # multiplies, divides or negates a scalar.  ``obstruction``, ``tower``
    # and ``diff-cocycle`` on Lie operators are left out: the arithmetic of
    # ``LinearMap`` (``+``, ``-``, negation, ``plus_identity``) still runs
    # on scalars.
    from postrb.cli import main
    from postrb.search import default_catalog, scan_catalog

    catalog = default_catalog()
    calls = Counter()
    for name in ARITHMETIC:

        def counted(*args, _name=name, _method=vars(GaussianRational)[name]):
            calls[_name] += 1
            return _method(*args)

        monkeypatch.setattr(GaussianRational, name, counted)
    monkeypatch.chdir(SAMPLES.parent)
    samples = sorted(p.name for p in SAMPLES.iterdir())
    commands = ("check-lie", "check-postlie", "innerness", "check-group",
                "check-postgroup", "group-obstruction", "group-tower", "enumerate-rb")
    for command, name, fmt in product(commands, samples, ("text", "machine")):
        main([command, "--input", f"samples/{name}", "--format", fmt])
    operators = [f"samples/{name}" for name in samples if name.endswith(".rbgrp")]
    for a, b in product(operators, repeat=2):
        main(["diff-cocycle", "--a", a, "--b", b])
    scan_catalog(catalog)
    capsys.readouterr()
    assert calls == Counter()
    assert -ONE == gaussian(-1)
    assert calls == Counter(__neg__=1)
