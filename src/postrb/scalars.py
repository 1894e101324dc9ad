"""Exact scalars and exact linear algebra.

Everything in this library is computed over the Gaussian rationals Q(i).
A ``GaussianRational`` holds three ``int``s ``a, b, d`` meaning
(a + b*i)/d, with d > 0 and gcd(a, b, d) = 1.  That form is unique, so
equality compares three ints, and each operation is one formula in plain
``int`` arithmetic with one ``math.gcd`` per result.  No
``fractions.Fraction`` is built by arithmetic: the parts ``re`` and ``im``
are derived on demand.  There is no floating point anywhere: float
arguments are rejected, results are exact and runs are bit-for-bit
reproducible.  Scalars and the dense matrices are an edge format: every
decision is taken on integer data, and scalars are built only for what a
caller hands in or reads.

An ``ExactMatrix`` is a dense immutable tuple of rows.  Every elimination
over Q(i) but ``determinant`` is the fraction-free forward pass
``_echelon`` on sparse Gaussian-integer rows: every rank counts its
leading columns (``_rank``: ``ExactMatrix.rank`` and the integer ranks of
the Lie layer alike), and the Lie obstruction class is read off it.  There
is one solve, ``_solve``: integer rows [A | B] go in, are back-substituted
with the same step, and the reduced rows, the canonical solution of each
column of B and the canonical null basis of A come out as integer vectors
on their least scale (``_IntegerForm``).  The Lie side (center,
derivations, witness, coboundary, pullback) calls it on the rows it holds;
``rref``, ``nullspace``, ``solve_affine`` and ``ExactMatrix.inverse`` are
thin wrappers that convert a matrix of scalars in and the result out.
Integer matrices (used for the congruence solves over
finite abelian groups) get a Smith normal form with unimodular transforms
from one kernel, ``_smith``, which carries any right-hand sides through its
row operations instead of building the row transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from numbers import Rational
from operator import index, mul
from typing import Iterable, NamedTuple, Sequence, Union

ScalarLike = Union["GaussianRational", Fraction, int]
# A sparse Gaussian-integer row: the (k, a, b), k ascending, with entry
# k = a + b*i nonzero.
IntegerRow = tuple[tuple[int, int, int], ...]
# A working row of the elimination: column -> (a, b), entry a + b*i != 0.
_Row = dict[int, tuple[int, int]]
Component = Union[int, Fraction]
RationalLike = Union[Fraction, int, str]


def _component(x: object) -> Fraction:
    """Coerce a constructor argument (a rational or a literal string)."""
    if not isinstance(x, (Rational, str)):
        raise TypeError(f"cannot interpret {x!r} as an exact rational")
    return Fraction(x)


def _part(n: int, d: int) -> Component:
    """n/d as an ``int`` when integral, else a reduced ``Fraction``."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


def _rational_str(n: int, d: int) -> str:
    """n/d as ``str`` prints its reduced ``Fraction``."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


class GaussianRational:
    """An element (a + b*i)/d of Q(i).

    Immutable.  ``a, b, d`` are ints with d > 0 and gcd(a, b, d) = 1, so
    zero is (0, 0, 1) and equality compares the triples.  ``re`` and ``im``
    are canonical: an ``int`` exactly when the part is integral, otherwise a
    reduced ``Fraction``; hashing follows the pair ``(re, im)``.  A
    ``GaussianRational`` never equals an ``int`` or a ``Fraction``.
    """

    __slots__ = ("a", "b", "d")

    def __new__(cls, re: RationalLike = 0, im: RationalLike = 0) -> "GaussianRational":
        x, y = _component(re), _component(im)
        d = lcm(x.denominator, y.denominator)
        # Both parts are reduced, so gcd(a, b, d) = 1 already.
        return _make(x.numerator * (d // x.denominator), y.numerator * (d // y.denominator), d)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    # Pickling and copying rebuild through the constructor: the default
    # protocol restores slots with setattr, which is refused above.
    def __reduce__(self):
        return (GaussianRational, (self.re, self.im))

    @property
    def re(self) -> Component:
        return _part(self.a, self.d)

    @property
    def im(self) -> Component:
        return _part(self.b, self.d)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not GaussianRational:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    @staticmethod
    def of(value: ScalarLike) -> "GaussianRational":
        if value.__class__ is GaussianRational:
            return value
        if isinstance(value, int):
            return _make(int(value), 0, 1)
        if isinstance(value, Fraction):
            return _make(value.numerator, 0, value.denominator)
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        other = GaussianRational.of(other)
        d, e = self.d, other.d
        return _reduced(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        other = GaussianRational.of(other)
        d, e = self.d, other.d
        return _reduced(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        return GaussianRational.of(other) - self

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        other = GaussianRational.of(other)
        a, b, c, e = self.a, self.b, other.a, other.b
        return _reduced(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "GaussianRational":
        other = GaussianRational.of(other)
        # (a + b*i)/d / ((c + e*i)/f) = (a + b*i)(c - e*i) f / (d (c^2 + e^2))
        a, b, c, e, f = self.a, self.b, other.a, other.b, other.d
        if not (c or e):
            raise ZeroDivisionError("division by zero in Q(i)")
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self.d * (c * c + e * e))

    def __rtruediv__(self, other: ScalarLike) -> "GaussianRational":
        return GaussianRational.of(other) / self

    def __neg__(self) -> "GaussianRational":
        return _make(-self.a, -self.b, self.d)

    def __bool__(self) -> bool:
        return True if self.a or self.b else False

    def conjugate(self) -> "GaussianRational":
        return _make(self.a, -self.b, self.d)

    def inverse(self) -> "GaussianRational":
        return ONE / self

    def __str__(self) -> str:
        a, b, d = self.a, self.b, self.d
        if not b:
            return _rational_str(a, d)
        if not a:
            return _imag_str(b, d)
        sign = "+" if b > 0 else "-"
        return f"{_rational_str(a, d)}{sign}{_imag_str(abs(b), d)}"

    __repr__ = __str__


class _Fields:
    """``GaussianRational``'s slot layout without its write guard."""

    __slots__ = ("a", "b", "d")


def _make(
    a: int, b: int, d: int, _new=object.__new__, _cls=_Fields, _gr=GaussianRational
) -> GaussianRational:
    """The raw constructor: (a + b*i)/d must already be reduced, d > 0.

    The write guard of ``GaussianRational`` refuses attribute stores, so the
    fields go into a ``_Fields`` with plain stores, which is then retyped.
    """
    z = _new(_cls)
    z.a = a
    z.b = b
    z.d = d
    z.__class__ = _gr
    return z


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d for d > 0, divided by gcd(a, b, d)."""
    g = gcd(a, b, d)
    if g == 1:
        return _make(a, b, d)
    return _make(a // g, b // g, d // g)


def from_triple(a: int, b: int, d: int) -> GaussianRational:
    """(a + b*i)/d for ints with d != 0, reduced; ZeroDivisionError on d = 0."""
    if not d:
        raise ZeroDivisionError("zero denominator in Q(i)")
    if d < 0:
        a, b, d = -a, -b, -d
    return _reduced(a, b, d)


def _imag_str(b: int, d: int) -> str:
    if b == d:
        return "i"
    if b == -d:
        return "-i"
    return f"{_rational_str(b, d)}*i"


ZERO = _make(0, 0, 1)
ONE = _make(1, 0, 1)
I = _make(0, 1, 1)


def gaussian(re: RationalLike = 0, im: RationalLike = 0) -> GaussianRational:
    return GaussianRational(re, im)


Vector = tuple[GaussianRational, ...]


def vector(values: Iterable[ScalarLike]) -> Vector:
    """``values`` as a tuple of ``GaussianRational``."""
    return tuple(GaussianRational.of(v) for v in values)


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def unit_vector(n: int, k: int) -> Vector:
    return tuple(ONE if j == k else ZERO for j in range(n))


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def is_zero_vector(v: Vector) -> bool:
    return not any(v)


def _integer_row(v: Vector, scale: int) -> IntegerRow:
    """The (k, a, b), k ascending, with scale * v[k] = a + b*i nonzero;
    ``scale`` must be a multiple of every denominator of ``v``."""
    return tuple(
        (k, x.a * (scale // x.d), x.b * (scale // x.d))
        for k, x in enumerate(v)
        if x.a or x.b
    )


def _echelon(rows: Iterable[IntegerRow]) -> dict[int, _Row]:
    """A fraction-free echelon basis of the span of the Gaussian-integer
    ``rows``, each row keyed by its leading column: the ``rref`` pivots.
    A row led where an earlier one leads takes the step of ``_eliminate``
    (Bareiss, Math. Comp. 22, 1968); a row left nonzero is stored times the
    conjugate of its leading entry over the gcd of its parts, so every
    pivot is a positive integer and no factor such as 2 + i piles up."""
    leaders: dict[int, _Row] = {}
    for entries in rows:
        row = {k: (a, b) for k, a, b in entries}
        while row:
            lead = min(row)
            if lead in leaders:
                row = _eliminate(row, leaders[lead], lead)
                continue
            p, q = row[lead]
            if q or p < 0:
                # (a + b i)(p - q i) = (p a + q b) + (p b - q a) i.
                row = {k: (p * a + q * b, p * b - q * a) for k, (a, b) in row.items()}
            leaders[lead] = _divided(row)
            break
    return leaders


def _scalar_row(row: IntegerRow, width: int, scale: int) -> Vector:
    """The vector of length ``width`` whose entry k is (a + b*i)/scale for
    each (k, a, b) of ``row``: the inverse of ``_integer_row``."""
    out = [ZERO] * width
    for k, a, b in row:
        out[k] = _reduced(a, b, scale)
    return tuple(out)


def _rank(rows: Iterable[IntegerRow]) -> int:
    """The rank of the Gaussian-integer ``rows``: the number of leading
    columns of their ``_echelon``.  Every rank of the library is read here."""
    return len(_echelon(rows))


def _row_basis(rows: Iterable[IntegerRow]) -> tuple[IntegerRow, ...]:
    """A basis of the span of the Gaussian-integer ``rows``: the rows of
    their ``_echelon`` by leading column, for a caller that goes on to
    work with the span (``_rank`` where only its size is read)."""
    leaders = _echelon(rows)
    return tuple(
        tuple((k, a, b) for k, (a, b) in sorted(leaders[lead].items()))
        for lead in sorted(leaders)
    )


def _eliminate(row: _Row, pivot_row: _Row, lead: int) -> _Row:
    """p row - f pivot_row over the gcd of its parts, p and f the entries at
    ``lead`` of ``pivot_row`` and ``row`` (changed in place)."""
    p = pivot_row[lead][0]
    f, h = row.pop(lead)
    if p != 1:
        for k, (a, b) in row.items():
            row[k] = (p * a, p * b)
    # Less (f + h i)(a + b i) = (f a - h b) + (f b + h a) i.
    for k, (a, b) in pivot_row.items():
        if k != lead:
            u, v = row.get(k, (0, 0))
            u, v = u - f * a + h * b, v - f * b - h * a
            if u or v:
                row[k] = (u, v)
            else:
                del row[k]
    return _divided(row)


def _divided(row: _Row) -> _Row:
    g = 0
    for a, b in row.values():
        g = gcd(g, a, b)
        if g == 1:
            return row
    return {k: (a // g, b // g) for k, (a, b) in row.items()} if g else row


class _IntegerForm(NamedTuple):
    """Integer rows on one scale L, L times each entry: the rows of a table
    (``lie.IntegerTable``), or vectors such as the columns of a linear map."""

    scale: int
    rows: tuple


def _least_vectors(form: _IntegerForm) -> _IntegerForm:
    """The integer vectors ``form`` divided by the gcd g of its scale and
    every part.  The denominator of (a + b*i)/L is L/gcd(a, b, L), and the
    lcm of such quotients of L is L over the gcd of the divisors, so L/g is
    the least scale the vectors share: unique, so equal vectors of scalars
    have equal forms."""
    g = form.scale
    for row in form.rows:
        for _, a, b in row:
            g = gcd(g, a, b)
            if g == 1:
                return form
    rows = tuple(tuple((k, a // g, b // g) for k, a, b in row) for row in form.rows)
    return _IntegerForm(form.scale // g, rows)


def _scalar_rows(form: _IntegerForm, width: int) -> tuple[Vector, ...]:
    """The vectors of scalars of width ``width`` whose integer rows are ``form``."""
    return tuple(_scalar_row(row, width, form.scale) for row in form.rows)


class _Solved(NamedTuple):
    """What ``_solve`` reads off the rows [A | B]: the pivots of their
    reduced row echelon form and its nonzero rows, the canonical solution
    of A x = b for each column b of B (free unknowns zero), or None when
    some column has none, and the canonical null basis of A (one vector
    per free column, free entry 1).  Each set of vectors is on its least
    scale (``_least_vectors``)."""

    pivots: tuple[int, ...]
    reduced: _IntegerForm
    solutions: _IntegerForm | None
    kernel: _IntegerForm


def _solve(
    rows: Iterable[IntegerRow] | dict[int, _Row], ncols: int, width: int
) -> _Solved:
    """The one solve: the Gaussian-integer ``rows`` of [A | B], A the first
    ``ncols`` of ``width`` columns, through their ``_echelon`` (``rows`` may
    be that echelon already, as the Lie class decision hands it on), then
    back-substituted: ``_eliminate`` clears above each pivot from the last
    back, in place, and row r over its positive integer pivot p_r is row r
    of the reduced form.  All are put on L = lcm(p_r), each row times L/p_r.
    """
    leaders = rows if isinstance(rows, dict) else _echelon(rows)
    pivots = tuple(sorted(leaders))
    for t, c in reversed(tuple(enumerate(pivots))):
        for lead in pivots[:t]:
            if c in leaders[lead]:
                leaders[lead] = _eliminate(leaders[lead], leaders[c], c)
    scale = lcm(*(leaders[c][c][0] for c in pivots))
    reduced = []
    for c in pivots:
        m = scale // leaders[c][c][0]
        reduced.append({k: (m * a, m * b) for k, (a, b) in leaders[c].items()})

    def form(vectors: Iterable[Iterable[tuple[int, int, int]]]) -> _IntegerForm:
        return _least_vectors(_IntegerForm(scale, tuple(map(tuple, vectors))))

    def column(k: int) -> list[tuple[int, int, int]]:
        return [(c, *row[k]) for c, row in zip(pivots, reduced) if k in row]

    # A pivot right of A is a row 0 = 1 for that column of B.
    consistent = not pivots or pivots[-1] < ncols
    return _Solved(
        pivots,
        form(sorted((k, *x) for k, x in row.items()) for row in reduced),
        form(column(k) for k in range(ncols, width)) if consistent else None,
        form(
            [*((c, -a, -b) for c, a, b in column(f)), (f, scale, 0)]
            for f in range(ncols)
            if f not in leaders
        ),
    )


def _integer_vectors(vectors: Sequence[Vector]) -> _IntegerForm:
    """Vectors of scalars as integer rows on one scale, the lcm of the
    denominators of their entries: the least scale they share.  Every
    vector of scalars that becomes integer rows is converted here.  An
    entry that is not a ``GaussianRational`` is refused with ``TypeError``."""
    try:
        scale = lcm(*{x.d for v in vectors for x in v})
        return _IntegerForm(scale, tuple(_integer_row(v, scale) for v in vectors))
    except AttributeError:
        bad = next(x for v in vectors for x in v if not isinstance(x, GaussianRational))
        raise TypeError(f"entry {bad!r} is not a GaussianRational") from None


@dataclass(frozen=True)
class ExactMatrix:
    """Dense immutable matrix over Q(i).

    ``width`` is stored explicitly so matrices with zero rows still know
    their column count (empty equation systems are legitimate inputs).
    """

    entries: tuple[tuple[GaussianRational, ...], ...]
    width: int

    def __post_init__(self) -> None:
        for row in self.entries:
            if len(row) != self.width:
                raise ValueError("ragged matrix rows")

    @staticmethod
    def from_rows(
        rows: Iterable[Iterable[ScalarLike]], width: int | None = None
    ) -> "ExactMatrix":
        ents = tuple(tuple(GaussianRational.of(x) for x in row) for row in rows)
        if width is None:
            if not ents:
                raise ValueError("cannot infer width of an empty matrix")
            width = len(ents[0])
        return ExactMatrix(ents, width)

    @staticmethod
    def from_columns(cols: Sequence[Sequence[ScalarLike]]) -> "ExactMatrix":
        cooked = [vector(c) for c in cols]
        if not cooked:
            raise ValueError("cannot infer height of an empty column list")
        return ExactMatrix(tuple(zip(*cooked, strict=True)), len(cooked))

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix(tuple(unit_vector(n, k) for k in range(n)), n)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return self.width

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shape mismatch in addition")
        rows = tuple(vec_add(a, b) for a, b in zip(self.entries, other.entries))
        return ExactMatrix(rows, self.width)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + (-other)

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix(tuple(tuple(-x for x in r) for r in self.entries), self.width)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("matrix shape mismatch in product")
        columns = [other.column(c) for c in range(other.cols)]
        rows = tuple(tuple([sum(map(mul, r, col), ZERO) for col in columns]) for r in self.entries)
        return ExactMatrix(rows, other.cols)

    def rank(self) -> int:
        """The ``_rank`` of the integer rows."""
        return _rank(_integer_vectors(self.entries).rows)

    def inverse(self) -> "ExactMatrix":
        n = self.rows
        if n != self.cols:
            raise ValueError("only square matrices can be inverted")
        # One solve of [self | I]; a singular matrix leaves some column of
        # the identity unsolvable.
        rows = [row + unit_vector(n, r) for r, row in enumerate(self.entries)]
        solutions = _solve(_integer_vectors(rows).rows, n, 2 * n).solutions
        if solutions is None:
            raise ValueError("matrix is singular")
        return ExactMatrix(tuple(zip(*_scalar_rows(solutions, n))), n)

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in r) for r in self.entries)


def rref(matrix: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices, zero rows
    last: ``_solve``'s reduced rows as scalars."""
    width = matrix.cols
    solved = _solve(_integer_vectors(matrix.entries).rows, width, width)
    zero = (zero_vector(width),) * (matrix.rows - len(solved.pivots))
    return ExactMatrix(_scalar_rows(solved.reduced, width) + zero, width), solved.pivots


def nullspace(matrix: ExactMatrix) -> tuple[Vector, ...]:
    """Canonical nullspace basis: one vector per free column, free entry 1."""
    width = matrix.cols
    rows = _integer_vectors(matrix.entries).rows
    return _scalar_rows(_solve(rows, width, width).kernel, width)


class AffineSolution(NamedTuple):
    particular: Vector
    nullspace: tuple[Vector, ...]


def solve_affine(
    matrix: ExactMatrix, rhs: Sequence[ScalarLike]
) -> AffineSolution | None:
    """Solve matrix @ x = rhs exactly.

    Returns the canonical solution (free variables set to zero) together with
    a nullspace basis, or ``None`` when the system is inconsistent.
    """
    b = vector(rhs)
    if len(b) != matrix.rows:
        raise ValueError("right-hand side length does not match row count")
    n = matrix.cols
    rows = _integer_vectors([r + (x,) for r, x in zip(matrix.entries, b)]).rows
    solved = _solve(rows, n, n + 1)
    if solved.solutions is None:
        return None
    return AffineSolution(
        _scalar_rows(solved.solutions, n)[0], _scalar_rows(solved.kernel, n)
    )


def determinant(matrix: ExactMatrix) -> GaussianRational:
    n = matrix.rows
    if n != matrix.cols:
        raise ValueError("determinant of a non-square matrix")
    rows = [list(r) for r in matrix.entries]
    det = ONE
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            return ZERO
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            det = -det
        det = det * rows[c][c]
        inv = rows[c][c].inverse()
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det


@dataclass(frozen=True)
class IntMatrix:
    """Dense immutable integer matrix (arbitrary-precision entries)."""

    entries: tuple[tuple[int, ...], ...]
    width: int

    def __post_init__(self) -> None:
        for row in self.entries:
            if len(row) != self.width:
                raise ValueError("ragged matrix rows")

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]], width: int | None = None) -> "IntMatrix":
        ents = tuple(tuple(map(index, row)) for row in rows)
        if width is None:
            if not ents:
                raise ValueError("cannot infer width of an empty matrix")
            width = len(ents[0])
        return IntMatrix(ents, width)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return self.width

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("matrix shape mismatch in product")
        columns = [[row[c] for row in other.entries] for c in range(other.cols)]
        rows = tuple(tuple([sum(map(mul, r, col)) for col in columns]) for r in self.entries)
        return IntMatrix(rows, other.cols)

    def apply(self, vec: Sequence[int]) -> list[int]:
        if len(vec) != self.cols:
            raise ValueError("vector length does not match matrix width")
        return [sum(a * b for a, b in zip(row, vec)) for row in self.entries]

    def transpose(self) -> "IntMatrix":
        rows = tuple(
            tuple(self.entries[i][j] for i in range(self.rows))
            for j in range(self.cols)
        )
        return IntMatrix(rows, self.rows)


class SmithDecomposition(NamedTuple):
    u: IntMatrix
    d: IntMatrix
    v: IntMatrix


def _smith(
    rows: Sequence[Sequence[int]], riders: list[list[int]], width: int
) -> tuple[list[list[int]], list[list[int]]]:
    """The Smith normal form u @ rows @ v = d of ``rows`` (``width``
    columns), as (d, v); each row operation is also applied to the row's
    entry of ``riders``, so they come out as u @ riders, with no u built.

    One pass over the diagonal positions t.  The pivot is a least nonzero
    |entry| of the block left, d[t:, t:], moved to (t, t) and made positive.
    Division with remainder clears its column and row; a remainder left is
    smaller than the pivot, which is then picked again.  Once both are
    clear, a row holding an entry that the pivot does not divide is added to
    row t, which leaves such a remainder.  So t is finished only when its
    pivot divides the whole block left, and d1 | d2 | ... holds as the pass
    goes.  The pivot shrinks at least at every second pick (a tie goes to
    the least (row, column), which is (t, t) after a row is added).
    """
    m, n = len(rows), width
    d = [list(r) for r in rows]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_add(i: int, j: int, q: int) -> None:
        d[i] = [a + q * b for a, b in zip(d[i], d[j])]
        riders[i] = [a + q * b for a, b in zip(riders[i], riders[j])]

    def col_add(i: int, j: int, q: int) -> None:
        for row in d[t:]:  # rows above t are zero in both columns
            row[i] += q * row[j]
        for row in v:
            row[i] += q * row[j]

    t = 0
    while t < min(m, n):
        least = 0
        for i in range(t, m):
            row = d[i]
            for j in range(t, n):
                x = abs(row[j])
                if x and (not least or x < least):
                    least, pivot_row, pivot_col = x, i, j
            if least == 1:
                break
        if not least:
            break  # the block left is zero
        d[t], d[pivot_row] = d[pivot_row], d[t]
        riders[t], riders[pivot_row] = riders[pivot_row], riders[t]
        if pivot_col != t:
            for row in (*d[t:], *v):
                row[t], row[pivot_col] = row[pivot_col], row[t]
        if d[t][t] < 0:
            d[t] = [-a for a in d[t]]
            riders[t] = [-a for a in riders[t]]
        p = d[t][t]
        for i in range(t + 1, m):
            q = d[i][t] // p
            if q:
                row_add(i, t, -q)
        for j in range(t + 1, n):
            q = d[t][j] // p
            if q:
                col_add(j, t, -q)
        if any(d[i][t] for i in range(t + 1, m)) or any(d[t][t + 1 :]):
            continue  # a remainder is left
        bad = next(
            (i for i in range(t + 1, m) if any(x % p for x in d[i][t + 1 :])), None
        )
        if bad is not None:
            row_add(t, bad, 1)
            continue
        t += 1
    return d, v


def smith_normal_form(matrix: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transforms: u @ matrix @ v == d.

    ``u`` and ``v`` are unimodular; ``d`` is diagonal with nonnegative
    entries satisfying d1 | d2 | ...  The pass is ``_smith``'s, with the
    rows of the identity as riders, which come out as the rows of u.
    """
    m = matrix.rows
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    d, v = _smith(matrix.entries, u, matrix.cols)
    # The entries are ints already: no ``from_rows`` coercion.
    return SmithDecomposition(
        IntMatrix(tuple(map(tuple, u)), m),
        IntMatrix(tuple(map(tuple, d)), matrix.cols),
        IntMatrix(tuple(map(tuple, v)), matrix.cols),
    )


class _DiagonalSystem(NamedTuple):
    """The congruences d_i y_i = s_i (mod each modulus), one d_i per
    unknown, in unknowns y with x = transform @ y, where transform is the v
    of the Smith normal form, and each modulus' least solution y."""

    diagonal: tuple[int, ...]
    least: list[list[int]]
    transform: IntMatrix


def _diagonalize(
    rows: Sequence[Sequence[int]],
    rhs: Sequence[Sequence[int]],
    moduli: Sequence[int],
    width: int,
) -> _DiagonalSystem | None:
    """The congruences rows @ x = rhs[k] (mod moduli[k]) in ``width``
    unknowns x, as an equivalent diagonal system, or None when some modulus
    has no solution.

    One Smith normal form u @ rows @ v = d serves every modulus: the new
    unknowns are y = v^-1 @ x, and the right-hand sides become
    s = u @ rhs[k], carried through the pass as each row's riders (its
    entries of every rhs[k]), so u itself is never built.  Each
    d_i y_i = s_i has a solution exactly when gcd(d_i, modulus) divides
    s_i, and its least one is taken; a row past the width stands for
    d_i = 0, and an unknown past the rows for s_i = 0.
    """
    riders = [[column[i] for column in rhs] for i in range(len(rows))]
    d, v = _smith(rows, riders, width)
    diagonal = tuple(d[k][k] if k < len(d) else 0 for k in range(width))
    least = []
    for k, modulus in enumerate(moduli):
        y = []
        for di, si in zip_longest(diagonal, (s[k] for s in riders), fillvalue=0):
            g = gcd(di, modulus)
            if si % g:
                return None
            q = modulus // g
            y.append((si // g) * pow(di // g, -1, q) % q)
        least.append(y[:width])
    return _DiagonalSystem(diagonal, least, IntMatrix(tuple(map(tuple, v)), width))


def solve_linear_congruences(
    coeffs: IntMatrix, rhs: Sequence[int], modulus: int
) -> list[int] | None:
    """Solve coeffs @ x == rhs (mod modulus); canonical solution or None.

    Diagonalizes by Smith normal form u @ coeffs @ v = d, solves the scalar
    congruences d_i w_i == (u @ rhs)_i on the diagonal (free components
    zero) and returns v @ w reduced mod ``modulus``.
    """
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    if len(rhs) != coeffs.rows:
        raise ValueError("right-hand side length does not match row count")
    system = _diagonalize(coeffs.entries, [list(map(index, rhs))], (modulus,), coeffs.cols)
    if system is None:
        return None
    return [x % modulus for x in system.transform.apply(system.least[0])]
