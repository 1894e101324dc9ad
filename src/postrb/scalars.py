"""Exact scalars and exact linear algebra.

Everything in this library is computed over the Gaussian rationals Q(i).
A ``GaussianRational`` holds three ``int``s ``a, b, d`` meaning
(a + b*i)/d, with d > 0 and gcd(a, b, d) = 1.  That form is unique, so
equality compares three ints, and the arithmetic is plain ``int``
arithmetic with one ``math.gcd`` per result; integral values (d = 1), which
dominate real workloads, skip even that.  No ``fractions.Fraction`` is built
by arithmetic: the parts ``re`` and ``im`` are derived on demand.  There is
no floating point anywhere: float arguments are rejected, results are exact
and runs are bit-for-bit reproducible.

An ``ExactMatrix`` is a dense immutable tuple of rows, but elimination
(``rref``, and through it every solve, inverse and subspace) works on
sparse rows that hold only their nonzero columns.  A rank needs only the
pivot columns, so ``ExactMatrix.rank`` takes no ``rref``: it scales each
row by the lcm of its denominators and hands the Gaussian-integer rows to
``_echelon_pivots``, a fraction-free echelon without back-substitution
that the grid scan shares.  Integer matrices (used for the congruence
solves over finite abelian groups) get a Smith normal form with unimodular
transforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from typing import Iterable, NamedTuple, Sequence, Union

ScalarLike = Union["GaussianRational", Fraction, int]
# A sparse Gaussian-integer row: the (k, a, b), k ascending, with entry
# k = a + b*i nonzero.
IntegerRow = tuple[tuple[int, int, int], ...]
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
        if value.__class__ is int:
            return _make(value, 0, 1)
        if isinstance(value, int):
            return _make(int(value), 0, 1)
        if isinstance(value, Fraction):
            return _make(value.numerator, 0, value.denominator)
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        if other.__class__ is not GaussianRational:
            other = GaussianRational.of(other)
        d = self.d
        if d == other.d:
            a = self.a + other.a
            b = self.b + other.b
            if d == 1:
                return _make(a, b, 1)
        else:
            e = other.d
            a = self.a * e + other.a * d
            b = self.b * e + other.b * d
            d *= e
        return _reduced(a, b, d)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        if other.__class__ is not GaussianRational:
            other = GaussianRational.of(other)
        d = self.d
        if d == other.d:
            a = self.a - other.a
            b = self.b - other.b
            if d == 1:
                return _make(a, b, 1)
        else:
            e = other.d
            a = self.a * e - other.a * d
            b = self.b * e - other.b * d
            d *= e
        return _reduced(a, b, d)

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        return GaussianRational.of(other) - self

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        if other.__class__ is not GaussianRational:
            other = GaussianRational.of(other)
        a, b, c, e = self.a, self.b, other.a, other.b
        if not b and not e:
            re, im = a * c, 0
        else:
            re, im = a * c - b * e, a * e + b * c
        d = self.d * other.d
        return _make(re, im, 1) if d == 1 else _reduced(re, im, d)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "GaussianRational":
        if other.__class__ is not GaussianRational:
            other = GaussianRational.of(other)
        # (a + b*i)/d / ((c + e*i)/f) = (a + b*i)(c - e*i) f / (d (c^2 + e^2))
        a, b, c, e, f = self.a, self.b, other.a, other.b, other.d
        if not e:
            if not c:
                raise ZeroDivisionError("division by zero in Q(i)")
            d = self.d * c
            if d < 0:
                f, d = -f, -d
            return _reduced(a * f, b * f, d)
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
    """``values`` as a tuple of ``GaussianRational``; a tuple that already
    is one is returned unchanged."""
    if values.__class__ is tuple:
        for v in values:
            if v.__class__ is not GaussianRational:
                break
        else:
            return values
    return tuple(GaussianRational.of(v) for v in values)


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def unit_vector(n: int, k: int) -> Vector:
    return tuple(ONE if j == k else ZERO for j in range(n))


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_scale(s: ScalarLike, v: Vector) -> Vector:
    c = GaussianRational.of(s)
    return tuple(c * a for a in v)


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


def _echelon_pivots(rows: Iterable[IntegerRow]) -> tuple[int, ...]:
    """The pivot columns of the Gaussian-integer ``rows``: those of their
    ``rref``, found without a fraction.

    The rows go in one at a time.  While a row has a leading column that
    an earlier row already leads, with p and f the pivot row's and its own
    entries there, it becomes p row - f pivot_row, which clears that
    column, divided by the gcd of its parts; there is no back-substitution.
    A row left nonzero leads its column from then on, stored times the
    conjugate of its leading entry and divided by the gcd of its parts.
    So every p is a positive integer: a step scales the row by an integer,
    which the gcd can take out again, and no Gaussian factor such as 2 + i
    piles up from step to step.  The leading columns of such an echelon
    basis of the row space are the pivots of its ``rref``.
    """
    leaders: dict[int, dict[int, tuple[int, int]]] = {}
    for entries in rows:
        row = {k: (a, b) for k, a, b in entries}
        while row:
            lead = min(row)
            pivot_row = leaders.get(lead)
            if pivot_row is None:
                # (a + b i)(p - q i) = (p a + q b) + (p b - q a) i.
                p, q = row[lead]
                row = {k: (p * a + q * b, p * b - q * a) for k, (a, b) in row.items()}
                g = gcd(*(part for entry in row.values() for part in entry))
                leaders[lead] = {k: (a // g, b // g) for k, (a, b) in row.items()}
                break
            p = pivot_row[lead][0]
            f, h = row.pop(lead)
            new = {k: (p * a, p * b) for k, (a, b) in row.items()}
            # Less (f + h i)(a + b i) = (f a - h b) + (f b + h a) i.
            for k, (a, b) in pivot_row.items():
                if k != lead:
                    u, v = new.get(k, (0, 0))
                    new[k] = (u - f * a + h * b, v - f * b - h * a)
            g = gcd(*(part for entry in new.values() for part in entry))
            row = {k: (a // g, b // g) for k, (a, b) in new.items() if a or b}
    return tuple(sorted(leaders))


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
        height = len(cooked[0])
        rows = tuple(
            tuple(cooked[j][r] for j in range(len(cooked))) for r in range(height)
        )
        return ExactMatrix(rows, len(cooked))

    @staticmethod
    def identity(n: int) -> "ExactMatrix":
        return ExactMatrix(tuple(unit_vector(n, k) for k in range(n)), n)

    @staticmethod
    def zeros(rows: int, cols: int) -> "ExactMatrix":
        return ExactMatrix((zero_vector(cols),) * rows, cols)

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
        rows = []
        for r in self.entries:
            out = [ZERO] * other.cols
            for k, x in enumerate(r):
                if not x:
                    continue
                orow = other.entries[k]
                for c in range(other.cols):
                    if orow[c]:
                        out[c] = out[c] + x * orow[c]
            rows.append(tuple(out))
        return ExactMatrix(tuple(rows), other.cols)

    def apply(self, vec: Sequence[ScalarLike]) -> Vector:
        v = vector(vec)
        if len(v) != self.cols:
            raise ValueError("vector length does not match matrix width")
        out = [ZERO] * self.rows
        for i, row in enumerate(self.entries):
            acc = ZERO
            for a, b in zip(row, v):
                if a and b:
                    acc = acc + a * b
            out[i] = acc
        return tuple(out)

    def rank(self) -> int:
        """The number of pivots of the rows, each scaled by the lcm of its
        denominators (``_echelon_pivots``)."""
        return len(_echelon_pivots(
            _integer_row(row, lcm(*(x.d for x in row))) for row in self.entries
        ))

    def inverse(self) -> "ExactMatrix":
        n = self.rows
        if n != self.cols:
            raise ValueError("only square matrices can be inverted")
        # A singular matrix leaves some column of the identity unsolvable.
        solved = _solve_columns(self, ExactMatrix.identity(n))
        if solved is None:
            raise ValueError("matrix is singular")
        return ExactMatrix(tuple(zip(*solved)), n)

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in r) for r in self.entries)


def hstack(left: ExactMatrix, right: ExactMatrix) -> ExactMatrix:
    if left.rows != right.rows:
        raise ValueError("row count mismatch in hstack")
    rows = tuple(a + b for a, b in zip(left.entries, right.entries))
    return ExactMatrix(rows, left.cols + right.cols)


def rref(matrix: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices.

    Each working row is a dict of its nonzero entries by column.  The pivot
    row is scaled only when its pivot is not 1, elimination visits only the
    pivot row's nonzero entries, and an entry that cancels is deleted.  The
    arithmetic on the nonzero entries is that of the dense elimination, so
    the result is the same exact matrix.
    """
    ncols = matrix.cols
    rows = [{c: x for c, x in enumerate(r) if x} for r in matrix.entries]
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = None
        for i in range(r, nrows):
            if c in rows[i]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        x = prow[c]
        if x != ONE:
            inv = x.inverse()
            prow = rows[r] = {k: v * inv for k, v in prow.items()}
        # The pivot column of every other row becomes zero: pop it, and
        # eliminate over the remaining entries of the pivot row.
        others = [(k, v) for k, v in prow.items() if k != c]
        for i in range(nrows):
            if i == r:
                continue
            row = rows[i]
            f = row.pop(c, None)
            if f is None:
                continue
            for k, b in others:
                a = row.get(k)
                if a is None:
                    row[k] = -(f * b)
                else:
                    a = a - f * b
                    if a:
                        row[k] = a
                    else:
                        del row[k]
        pivots.append(c)
        r += 1
    dense = []
    for row in rows:
        out = [ZERO] * ncols
        for k, v in row.items():
            out[k] = v
        dense.append(tuple(out))
    return ExactMatrix(tuple(dense), ncols), tuple(pivots)


def nullspace(matrix: ExactMatrix) -> tuple[Vector, ...]:
    """Canonical nullspace basis: one vector per free column, free entry 1."""
    red, pivots = rref(matrix)
    return _free_column_basis(red, pivots, matrix.cols)


def _free_column_basis(
    red: ExactMatrix, pivots: Sequence[int], ncols: int
) -> tuple[Vector, ...]:
    """Nullspace basis of the first ``ncols`` columns of a reduced matrix:
    one vector per free column, free entry 1."""
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [ZERO] * ncols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -red.entries[r][f]
        basis.append(tuple(v))
    return tuple(basis)


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
    red, pivots = rref(hstack(matrix, ExactMatrix(tuple((x,) for x in b), 1)))
    solved = _reduced_solutions(red, pivots, matrix.cols)
    if solved is None:
        return None
    return AffineSolution(solved[0], _free_column_basis(red, pivots, matrix.cols))


def _solve_columns(matrix: ExactMatrix, rhs: ExactMatrix) -> tuple[Vector, ...] | None:
    """Solve matrix @ X = rhs with one ``rref`` of [matrix | rhs].

    Returns the canonical solution of each column of ``rhs`` (free variables
    set to zero), or None when some column is inconsistent.  Each solution
    is the one a separate solve of its column gives: the rref of a row space
    is unique.
    """
    return _reduced_solutions(*rref(hstack(matrix, rhs)), matrix.cols)


def _reduced_solutions(
    red: ExactMatrix, pivots: Sequence[int], ncols: int
) -> tuple[Vector, ...] | None:
    """The canonical solution of each column right of the first ``ncols``
    of a reduced [matrix | rhs], or None when some column is inconsistent."""
    # A pivot right of the matrix is a row 0 = 1 for that column.
    if pivots and pivots[-1] >= ncols:
        return None
    solutions = []
    for c in range(ncols, red.cols):
        x = [ZERO] * ncols
        for r, p in enumerate(pivots):
            x[p] = red.entries[r][c]
        solutions.append(tuple(x))
    return tuple(solutions)


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
        ents = tuple(tuple(int(x) for x in row) for row in rows)
        if width is None:
            if not ents:
                raise ValueError("cannot infer width of an empty matrix")
            width = len(ents[0])
        return IntMatrix(ents, width)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(
            tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n
        )

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return self.width

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("matrix shape mismatch in product")
        rows = []
        for r in self.entries:
            out = [0] * other.cols
            for k, x in enumerate(r):
                if not x:
                    continue
                orow = other.entries[k]
                for c in range(other.cols):
                    if orow[c]:
                        out[c] += x * orow[c]
            rows.append(tuple(out))
        return IntMatrix(tuple(rows), other.cols)

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

    def diagonal(self) -> tuple[int, ...]:
        return tuple(
            self.entries[k][k] for k in range(min(self.rows, self.cols))
        )


class SmithDecomposition(NamedTuple):
    u: IntMatrix
    d: IntMatrix
    v: IntMatrix


def smith_normal_form(matrix: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transforms: u @ matrix @ v == d.

    ``u`` and ``v`` are unimodular; ``d`` is diagonal with nonnegative
    entries satisfying d1 | d2 | ...

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
    m, n = matrix.rows, matrix.cols
    d = [list(r) for r in matrix.entries]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_add(i: int, j: int, q: int) -> None:
        d[i] = [a + q * b for a, b in zip(d[i], d[j])]
        u[i] = [a + q * b for a, b in zip(u[i], u[j])]

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
        u[t], u[pivot_row] = u[pivot_row], u[t]
        if pivot_col != t:
            for row in (*d[t:], *v):
                row[t], row[pivot_col] = row[pivot_col], row[t]
        if d[t][t] < 0:
            d[t] = [-a for a in d[t]]
            u[t] = [-a for a in u[t]]
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

    # The entries are ints already: no ``from_rows`` coercion.
    return SmithDecomposition(
        IntMatrix(tuple(map(tuple, u)), m),
        IntMatrix(tuple(map(tuple, d)), n),
        IntMatrix(tuple(map(tuple, v)), n),
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
    unknowns are y = v^-1 @ x, and the right-hand sides become s = u @ rhs[k].
    Each d_i y_i = s_i has a solution exactly when gcd(d_i, modulus) divides
    s_i, and its least one is taken; a row past the width stands for d_i = 0.
    """
    u, d, v = smith_normal_form(IntMatrix.from_rows(rows, width=width))
    diagonal = d.diagonal() + (0,) * (width - min(d.rows, width))
    least = []
    for column, modulus in zip(rhs, moduli):
        s = u.apply(column) + [0] * (width - len(column))
        y = []
        for di, si in zip(diagonal + (0,) * (len(s) - width), s):
            g = gcd(di, modulus)
            if si % g:
                return None
            q = modulus // g
            y.append((si // g) * pow(di // g, -1, q) % q)
        least.append(y[:width])
    return _DiagonalSystem(diagonal, least, v)


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
    system = _diagonalize(coeffs.entries, [[int(x) for x in rhs]], (modulus,), coeffs.cols)
    if system is None:
        return None
    return [x % modulus for x in system.transform.apply(system.least[0])]
