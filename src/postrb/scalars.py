"""Exact scalars and dense exact linear algebra.

Everything in this library is computed over the Gaussian rationals: pairs of
``fractions.Fraction``.  There is no floating point anywhere, so results are
exact and runs are bit-for-bit reproducible.  Integer matrices (used for the
congruence solves over finite abelian groups) get a Smith normal form with
unimodular transforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, NamedTuple, Sequence, Union

ScalarLike = Union["GaussianRational", Fraction, int]


@dataclass(frozen=True)
class GaussianRational:
    """An element a + b*i of Q(i), both parts reduced fractions."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

    @staticmethod
    def of(value: ScalarLike) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(Fraction(value))
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    def __add__(self, other: ScalarLike) -> "GaussianRational":
        o = GaussianRational.of(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "GaussianRational":
        o = GaussianRational.of(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: ScalarLike) -> "GaussianRational":
        return GaussianRational.of(other) - self

    def __mul__(self, other: ScalarLike) -> "GaussianRational":
        o = GaussianRational.of(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "GaussianRational":
        o = GaussianRational.of(other)
        norm = o.re * o.re + o.im * o.im
        if not norm:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / norm,
            (self.im * o.re - self.re * o.im) / norm,
        )

    def __rtruediv__(self, other: ScalarLike) -> "GaussianRational":
        return GaussianRational.of(other) / self

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def inverse(self) -> "GaussianRational":
        return GaussianRational(Fraction(1)) / self

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        if not self.re:
            return _imag_str(self.im)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{_imag_str(abs(self.im))}"

    __repr__ = __str__


def _imag_str(im: Fraction) -> str:
    if im == 1:
        return "i"
    if im == -1:
        return "-i"
    return f"{im}*i"


ZERO = GaussianRational()
ONE = GaussianRational(Fraction(1))
I = GaussianRational(Fraction(0), Fraction(1))


def gaussian(re: ScalarLike = 0, im: ScalarLike = 0) -> GaussianRational:
    return GaussianRational(Fraction(re), Fraction(im))


Vector = tuple[GaussianRational, ...]


def vector(values: Iterable[ScalarLike]) -> Vector:
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

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "ExactMatrix":
        rows = tuple(self.column(j) for j in range(self.cols))
        return ExactMatrix(rows, self.rows)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shape mismatch in addition")
        rows = tuple(vec_add(a, b) for a, b in zip(self.entries, other.entries))
        return ExactMatrix(rows, self.width)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + (-other)

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix(tuple(tuple(-x for x in r) for r in self.entries), self.width)

    def scale(self, s: ScalarLike) -> "ExactMatrix":
        c = GaussianRational.of(s)
        return ExactMatrix(
            tuple(tuple(c * x for x in r) for r in self.entries), self.width
        )

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
        return len(rref(self)[1])

    def inverse(self) -> "ExactMatrix":
        n = self.rows
        if n != self.cols:
            raise ValueError("only square matrices can be inverted")
        red, pivots = rref(hstack(self, ExactMatrix.identity(n)))
        if list(pivots) != list(range(n)):
            raise ValueError("matrix is singular")
        rows = tuple(r[n:] for r in red.entries)
        return ExactMatrix(rows, n)

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in r) for r in self.entries)


def hstack(left: ExactMatrix, right: ExactMatrix) -> ExactMatrix:
    if left.rows != right.rows:
        raise ValueError("row count mismatch in hstack")
    rows = tuple(a + b for a, b in zip(left.entries, right.entries))
    return ExactMatrix(rows, left.cols + right.cols)


def vstack(top: ExactMatrix, bottom: ExactMatrix) -> ExactMatrix:
    if top.cols != bottom.cols:
        raise ValueError("column count mismatch in vstack")
    return ExactMatrix(top.entries + bottom.entries, top.cols)


def rref(matrix: ExactMatrix) -> tuple[ExactMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    rows = [list(r) for r in matrix.entries]
    nrows, ncols = matrix.rows, matrix.cols
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return ExactMatrix(tuple(tuple(row) for row in rows), ncols), tuple(pivots)


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
    ncols = matrix.cols
    aug = hstack(matrix, ExactMatrix.from_rows([[x] for x in b], width=1))
    red, pivots = rref(aug)
    if pivots and pivots[-1] == ncols:
        return None
    x = [ZERO] * ncols
    for r, p in enumerate(pivots):
        x[p] = red.entries[r][ncols]
    return AffineSolution(tuple(x), _free_column_basis(red, pivots, ncols))


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

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(((0,) * cols,) * rows, cols)

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

    def to_exact(self) -> ExactMatrix:
        return ExactMatrix.from_rows(self.entries, width=self.width)


class SmithDecomposition(NamedTuple):
    u: IntMatrix
    d: IntMatrix
    v: IntMatrix


def smith_normal_form(matrix: IntMatrix) -> SmithDecomposition:
    """Smith normal form with transforms: u @ matrix @ v == d.

    ``u`` and ``v`` are unimodular; ``d`` is diagonal with nonnegative
    entries satisfying d1 | d2 | ...
    """
    m, n = matrix.rows, matrix.cols
    d = [list(r) for r in matrix.entries]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_swap(i: int, j: int) -> None:
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def row_add(i: int, j: int, q: int) -> None:
        d[i] = [a + q * b for a, b in zip(d[i], d[j])]
        u[i] = [a + q * b for a, b in zip(u[i], u[j])]

    def row_negate(i: int) -> None:
        d[i] = [-a for a in d[i]]
        u[i] = [-a for a in u[i]]

    def col_swap(i: int, j: int) -> None:
        for r in range(m):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        for r in range(n):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def col_add(i: int, j: int, q: int) -> None:
        for r in range(m):
            d[r][i] += q * d[r][j]
        for r in range(n):
            v[r][i] += q * v[r][j]

    def diagonalize() -> int:
        t = 0
        while t < min(m, n):
            best = None
            pos = None
            for i in range(t, m):
                for j in range(t, n):
                    a = abs(d[i][j])
                    if a and (best is None or a < best):
                        best, pos = a, (i, j)
            if pos is None:
                break
            row_swap(t, pos[0])
            col_swap(t, pos[1])
            while True:
                if d[t][t] < 0:
                    row_negate(t)
                again = False
                for i in range(t + 1, m):
                    if d[i][t]:
                        q = d[i][t] // d[t][t]
                        row_add(i, t, -q)
                        if d[i][t]:
                            row_swap(t, i)
                            again = True
                for j in range(t + 1, n):
                    if d[t][j]:
                        q = d[t][j] // d[t][t]
                        col_add(j, t, -q)
                        if d[t][j]:
                            col_swap(t, j)
                            again = True
                if again:
                    continue
                if all(d[i][t] == 0 for i in range(t + 1, m)) and all(
                    d[t][j] == 0 for j in range(t + 1, n)
                ):
                    break
            if d[t][t] < 0:
                row_negate(t)
            t += 1
        return t

    rank = diagonalize()
    # Repair the divisibility chain: pull a violating entry next to its
    # predecessor and rediagonalize until d1 | d2 | ... holds.
    while True:
        violation = None
        for k in range(rank - 1):
            if d[k][k] and d[k + 1][k + 1] % d[k][k] != 0:
                violation = k
                break
        if violation is None:
            break
        col_add(violation, violation + 1, 1)
        rank = diagonalize()

    return SmithDecomposition(
        IntMatrix.from_rows(u, width=m),
        IntMatrix.from_rows(d, width=n),
        IntMatrix.from_rows(v, width=n),
    )


def solve_linear_congruences(
    coeffs: IntMatrix, rhs: Sequence[int], modulus: int
) -> list[int] | None:
    """Solve coeffs @ x == rhs (mod modulus); canonical solution or None.

    Diagonalizes by Smith normal form, solves the scalar congruences on the
    diagonal (free components zero) and transforms back.
    """
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    if len(rhs) != coeffs.rows:
        raise ValueError("right-hand side length does not match row count")
    u, d, v = smith_normal_form(coeffs)
    s = u.apply([int(x) for x in rhs])
    ncols = coeffs.cols
    w = [0] * ncols
    for i in range(coeffs.rows):
        di = d.entries[i][i] if i < min(coeffs.rows, ncols) else 0
        si = s[i] % modulus
        if di == 0:
            if si:
                return None
            continue
        g = gcd(di, modulus)
        if si % g:
            return None
        m2 = modulus // g
        w[i] = ((si // g) * pow(di // g, -1, m2)) % m2
    x = v.apply(w)
    return [xi % modulus for xi in x]
