"""Finite-dimensional Lie algebras presented by exact structure constants.

A ``LieAlgebra`` stores the full 3-index table c[i][j][k] with
[e_i, e_j] = sum_k c[i][j][k] e_k; antisymmetry is enforced at construction,
the Jacobi identity is a checkable property.  Subspaces are kept in reduced
row echelon form so equality and membership are plain entry comparisons.

Every product given by such a table (the bracket, a post-Lie product, the
induced product [R(x), y]) is evaluated in this module: ``bilinear`` for
one product x.y and ``left_columns`` for the products x.e_j against every
basis vector.  The linear map x -> (y -> x.y) has one matrix,
``coefficient_matrix``, behind the center, the inner derivations and the
innerness-witness solve.  Every alternating table of scalars (a bracket, a
sub-adjacent bracket, a 2-cochain) is assembled from its pairs i < j by
``_alternating``.

The table identities (Jacobi, the post-Lie axioms, the cocycle identity)
only ask whether a sum of products of table entries is zero.  They are
decided on one integer kernel: ``_integer_tables`` puts the tables they read
on one common denominator L and keeps, per entry (i, j), the nonzero
coefficients of L table[i][j] as Gaussian integers; ``_accumulate`` adds
combinations of such rows into plain ``int`` lists.  Each identity is
homogeneous in the tables, so scaling every table by the same L != 0
keeps every zero and every nonzero, and no scalar is built on the way.  The
cyclic sum of Jacobi and of the cocycle identity is read off such rows by
``_cyclic_failures``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Iterable, Iterator, Mapping, Sequence

from .scalars import (
    ExactMatrix,
    GaussianRational,
    IntegerRow,
    ScalarLike,
    Vector,
    ZERO,
    _integer_row,
    is_zero_vector,
    nullspace,
    rref,
    unit_vector,
    vector,
    zero_vector,
)

StructureTable = tuple[tuple[Vector, ...], ...]
# Entry (i, j) holds the (k, a, b) with L table[i][j][k] = a + b*i != 0.
IntegerTable = tuple[tuple[IntegerRow, ...], ...]


def bilinear(
    table: StructureTable, x: Sequence[ScalarLike], y: Sequence[ScalarLike]
) -> Vector:
    """The product x.y = sum_{i,j} x_i y_j table[i][j]."""
    n = len(table)
    u, v = vector(x), vector(y)
    if len(u) != n or len(v) != n:
        raise ValueError("vector has wrong length")
    out = [ZERO] * n
    for i in range(n):
        if not u[i]:
            continue
        for j in range(n):
            if not v[j]:
                continue
            c = u[i] * v[j]
            row = table[i][j]
            for k in range(n):
                if row[k]:
                    out[k] = out[k] + c * row[k]
    return tuple(out)


def left_columns(table: StructureTable, x: Sequence[ScalarLike]) -> tuple[Vector, ...]:
    """The products x.e_j for j = 0, ..., n-1: the columns of y -> x.y."""
    n = len(table)
    v = vector(x)
    if len(v) != n:
        raise ValueError("vector has wrong length")
    cols = []
    for j in range(n):
        col = [ZERO] * n
        for i in range(n):
            if v[i]:
                row = table[i][j]
                for k in range(n):
                    if row[k]:
                        col[k] = col[k] + v[i] * row[k]
        cols.append(tuple(col))
    return tuple(cols)


def _alternating(n: int, upper: Mapping[tuple[int, int], Vector]) -> StructureTable:
    """The n x n table with ``upper[i, j]`` at (i, j) for the given pairs
    i < j, its negation at (j, i) and the zero vector everywhere else."""
    zero = zero_vector(n)
    table = [[zero] * n for _ in range(n)]
    for (i, j), value in upper.items():
        table[i][j] = value
        table[j][i] = tuple(-x for x in value)
    return tuple(map(tuple, table))


def _integer_tables(*tables: StructureTable) -> tuple[IntegerTable, ...]:
    """The tables scaled by one common L, as sparse Gaussian-integer rows.

    L is the lcm of the denominators of every entry of every table, and
    entry (i, j) of each result is ``_integer_row(table[i][j], L)``.  Two
    passes over the entries: O(n^3) per table, against the O(n^4) of the
    identities read off them.
    """
    scale = lcm(*{x.d for table in tables for row in table for v in row for x in v})
    return tuple(
        tuple(tuple(_integer_row(v, scale) for v in row) for row in table)
        for table in tables
    )


def _accumulate(
    re: list[int],
    im: list[int],
    coefficients: IntegerRow,
    rows: Sequence[IntegerRow],
    sign: int = 1,
) -> None:
    """Add sign * sum of (a + b*i) rows[m] over (m, a, b) in ``coefficients``
    into the real parts ``re`` and imaginary parts ``im``."""
    for m, a, b in coefficients:
        if sign < 0:
            a, b = -a, -b
        if b:
            for q, c, e in rows[m]:
                re[q] += a * c - b * e
                im[q] += a * e + b * c
        else:
            for q, c, e in rows[m]:
                re[q] += a * c
                im[q] += a * e


def _negates(x: GaussianRational, y: GaussianRational) -> bool:
    """Whether y = -x, read off the reduced triples without building -x."""
    return x.a == -y.a and x.b == -y.b and x.d == y.d


@dataclass(frozen=True)
class LieAlgebra:
    sc: StructureTable

    def __post_init__(self) -> None:
        """Reject a table that is not cubic or not antisymmetric.

        (i, j, k) fails exactly when its mirror (j, i, k) does, so the first
        bad triple in lexicographic order has i <= j and each pair i <= j is
        visited once; on the diagonal the test y = -x asks for zero.
        """
        sc = self.sc
        n = len(sc)
        if any(len(row) != n or any(len(v) != n for v in row) for row in sc):
            raise ValueError("structure table is not cubic")
        for i in range(n):
            for j in range(i, n):
                for k, (x, y) in enumerate(zip(sc[i][j], sc[j][i])):
                    if not _negates(x, y):
                        raise ValueError(
                            f"structure constants not antisymmetric at ({i},{j},{k})"
                        )

    @property
    def dim(self) -> int:
        return len(self.sc)

    @staticmethod
    def from_table(table: Sequence[Sequence[Sequence[ScalarLike]]]) -> "LieAlgebra":
        cooked = tuple(tuple(vector(v) for v in row) for row in table)
        return LieAlgebra(cooked)

    @staticmethod
    def from_brackets(
        dim: int, brackets: Mapping[tuple[int, int], Sequence[ScalarLike]]
    ) -> "LieAlgebra":
        """Build from the brackets of basis pairs; unspecified pairs are zero.

        Keys are 0-based (i, j) with i != j; the (j, i) bracket is derived by
        antisymmetry, and giving both inconsistently is rejected.
        """
        upper: dict[tuple[int, int], Vector] = {}
        for (i, j), value in brackets.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise ValueError(f"bracket index ({i},{j}) out of range")
            if i == j:
                raise ValueError(f"bracket [e{i},e{i}] must be zero, not given")
            v = vector(value)
            if len(v) != dim:
                raise ValueError(f"bracket value for ({i},{j}) has wrong length")
            key, v = ((i, j), v) if i < j else ((j, i), tuple(-x for x in v))
            if key in upper:
                if upper[key] != v:
                    raise ValueError(f"inconsistent brackets for pair ({i},{j})")
                continue
            upper[key] = v
        return LieAlgebra(_alternating(dim, upper))

    @staticmethod
    def abelian(dim: int) -> "LieAlgebra":
        return LieAlgebra(_alternating(dim, {}))

    def bracket(self, x: Sequence[ScalarLike], y: Sequence[ScalarLike]) -> Vector:
        return bilinear(self.sc, x, y)


@dataclass(frozen=True)
class Subspace:
    """A subspace of K^n held as canonical rref basis rows."""

    ambient_dim: int
    basis: tuple[Vector, ...]
    pivots: tuple[int, ...]

    @staticmethod
    def from_spanning(
        ambient_dim: int, vectors: Iterable[Sequence[ScalarLike]]
    ) -> "Subspace":
        rows = [vector(v) for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError("spanning vector has wrong length")
        if not rows:
            return Subspace(ambient_dim, (), ())
        red, pivots = rref(ExactMatrix.from_rows(rows, width=ambient_dim))
        basis = tuple(red.entries[r] for r in range(len(pivots)))
        return Subspace(ambient_dim, basis, pivots)

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace.from_spanning(
            ambient_dim, [unit_vector(ambient_dim, k) for k in range(ambient_dim)]
        )

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec: Sequence[ScalarLike]) -> bool:
        return self.coordinates_of(vec) is not None

    def coordinates_of(self, vec: Sequence[ScalarLike]) -> Vector | None:
        """Coefficients against the canonical basis, or None if outside."""
        v = list(vector(vec))
        if len(v) != self.ambient_dim:
            raise ValueError("vector has wrong length")
        coords = []
        for row, p in zip(self.basis, self.pivots):
            c = v[p]
            coords.append(c)
            if c:
                for k in range(self.ambient_dim):
                    v[k] = v[k] - c * row[k]
        if not is_zero_vector(tuple(v)):
            return None
        return tuple(coords)


@dataclass(frozen=True)
class Fingerprint:
    """Isomorphism-invariant summary used as evidence, not proof."""

    dim: int
    center_dim: int
    killing_rank: int
    derived_dims: tuple[int, ...]
    lower_central_dims: tuple[int, ...]
    derivation_dim: int


def _cyclic_failures(
    sc: StructureTable, values: StructureTable
) -> Iterator[tuple[int, int, int]]:
    """Basis triples i<j<k, in order, where the cyclic sum
    v([e_i,e_j], e_k) + v([e_j,e_k], e_i) + v([e_k,e_i], e_j)
    is nonzero, for the bracket table ``sc`` and the bilinear table
    ``values`` of v.  Each term pairs an entry of ``sc`` with one of
    ``values``, so both are decided on one scale (``_integer_tables``)."""
    tables = _integer_tables(sc) if values is sc else _integer_tables(sc, values)
    brackets, products = tables[0], tables[-1]
    n = len(brackets)
    # v(u, e_k) = sum_m u_m values[m][k]: column k of ``values``.
    columns = [[row[k] for row in products] for k in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                re, im = [0] * n, [0] * n
                _accumulate(re, im, brackets[i][j], columns[k])
                _accumulate(re, im, brackets[j][k], columns[i])
                _accumulate(re, im, brackets[k][i], columns[j])
                if any(re) or any(im):
                    yield (i, j, k)


def jacobi_violations(algebra: LieAlgebra) -> tuple[tuple[int, int, int], ...]:
    """Basis triples i<j<k where the cyclic Jacobi sum is nonzero."""
    return tuple(_cyclic_failures(algebra.sc, algebra.sc))


def check_jacobi(algebra: LieAlgebra) -> bool:
    return not jacobi_violations(algebra)


def ad_matrix(algebra: LieAlgebra, x: Sequence[ScalarLike]) -> ExactMatrix:
    """Matrix of y -> [x, y] in the algebra basis (columns are images)."""
    return ExactMatrix.from_columns(left_columns(algebra.sc, x))


def coefficient_matrix(table: StructureTable) -> ExactMatrix:
    """Matrix of x -> the n x n matrix of y -> x.y, flattened row-major.

    Row k*n + j, column c holds table[c][j][k], the e_k-coefficient of
    e_c.e_j, so for a bracket table column c is ad e_c flattened row-major.
    """
    n = len(table)
    rows = tuple(
        tuple(table[c][j][k] for c in range(n)) for k in range(n) for j in range(n)
    )
    return ExactMatrix(rows, n)


def _null_subspace(matrix: ExactMatrix) -> Subspace:
    """The nullspace of ``matrix`` in its canonical basis, from one ``rref``:
    reversed back, each ``nullspace`` vector of the column-reversed matrix
    leads with its 1 and vanishes on the other free columns."""
    n = matrix.cols
    flipped = nullspace(ExactMatrix(tuple(row[::-1] for row in matrix.entries), n))
    basis = tuple(v[::-1] for v in reversed(flipped))
    return Subspace(n, basis, tuple(next(k for k, x in enumerate(v) if x) for v in basis))


def center(algebra: LieAlgebra) -> Subspace:
    """The x with [x, e_j] = 0 for every j: the nullspace of the coefficient matrix."""
    return _null_subspace(coefficient_matrix(algebra.sc))


def derivations(algebra: LieAlgebra) -> Subspace:
    """Solution space of D[x,y] = [Dx,y] + [x,Dy], flattened row-major in K^(n^2)."""
    return _null_subspace(_derivation_system(algebra))


def _derivation_system(algebra: LieAlgebra) -> ExactMatrix:
    """The equations of ``derivations``: one row per i < j and component k."""
    n = algebra.dim
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                row = [ZERO] * (n * n)
                # D applied to [e_i, e_j], component k
                for q in range(n):
                    if algebra.sc[i][j][q]:
                        row[k * n + q] = row[k * n + q] + algebra.sc[i][j][q]
                # [D e_i, e_j]: unknown D[p][i]
                for p in range(n):
                    if algebra.sc[p][j][k]:
                        row[p * n + i] = row[p * n + i] - algebra.sc[p][j][k]
                # [e_i, D e_j]: unknown D[p][j]
                for p in range(n):
                    if algebra.sc[i][p][k]:
                        row[p * n + j] = row[p * n + j] - algebra.sc[i][p][k]
                rows.append(tuple(row))
    return ExactMatrix(tuple(rows), n * n)


def inner_derivations(algebra: LieAlgebra) -> Subspace:
    """The span of the ad e_i, flattened row-major in K^(n^2)."""
    n = algebra.dim
    adjoints = coefficient_matrix(algebra.sc)
    return Subspace.from_spanning(n * n, [adjoints.column(i) for i in range(n)])


def _killing_form(algebra: LieAlgebra) -> ExactMatrix:
    """Killing form K(x,y) = tr(ad x ad y) on the basis, read off the table:
    K(e_i, e_j) = sum_{k,l} c_il^k c_jk^l."""
    sc = algebra.sc
    n = algebra.dim
    pairs = [(k, l) for k in range(n) for l in range(n)]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append(sum(
                (sc[i][l][k] * sc[j][k][l] for k, l in pairs if sc[i][l][k] and sc[j][k][l]),
                ZERO,
            ))
        rows.append(tuple(row))
    return ExactMatrix(tuple(rows), n)


def killing_semisimple(algebra: LieAlgebra) -> tuple[ExactMatrix, bool]:
    """Killing form on the basis and whether it is nondegenerate."""
    form = _killing_form(algebra)
    return form, form.rank() == algebra.dim


def is_complete(algebra: LieAlgebra) -> bool:
    """Zero center and every derivation inner.

    The coefficient matrix has rank n - dim center, and its columns ad e_c
    span the inner derivations, so both are read off that one rank.
    """
    n = algebra.dim
    inner = coefficient_matrix(algebra.sc).rank()
    return inner == n and n * n - _derivation_system(algebra).rank() == inner


def _series_dims(algebra: LieAlgebra) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The dimensions of the derived and of the lower central series, each
    from [g, g] on, up to the first zero or repeat.

    Both start at [g, g], the span of the table rows [e_i, e_j] with i < j.
    A derived step brackets the basis pairs u < v of the term; a lower
    central step spans the columns [v, e_k] of each basis vector v.
    """
    n, sc = algebra.dim, algebra.sc
    commutator = Subspace.from_spanning(
        n, [sc[i][j] for i in range(n) for j in range(i + 1, n)]
    )

    def derived(basis: tuple[Vector, ...]) -> list[Vector]:
        return [bilinear(sc, u, v) for k, u in enumerate(basis) for v in basis[k + 1 :]]

    def lower_central(basis: tuple[Vector, ...]) -> list[Vector]:
        return [column for v in basis for column in left_columns(sc, v)]

    found = []
    for step in (derived, lower_central):
        dims, term = [commutator.dim], commutator
        while dims[-1]:
            term = Subspace.from_spanning(n, step(term.basis))
            if term.dim == dims[-1]:
                break
            dims.append(term.dim)
        found.append(tuple(dims))
    return found[0], found[1]


def invariant_fingerprint(algebra: LieAlgebra) -> Fingerprint:
    """The dimensions of the center and of the derivations are read off as
    n - rank and n^2 - rank of their defining systems."""
    n = algebra.dim
    derived_dims, lower_central_dims = _series_dims(algebra)
    return Fingerprint(
        dim=n,
        center_dim=n - coefficient_matrix(algebra.sc).rank(),
        killing_rank=_killing_form(algebra).rank(),
        derived_dims=derived_dims,
        lower_central_dims=lower_central_dims,
        derivation_dim=n * n - _derivation_system(algebra).rank(),
    )


def change_basis(algebra: LieAlgebra, transform: ExactMatrix) -> LieAlgebra:
    """Push the bracket through an invertible transform (columns = new basis)."""
    n = algebra.dim
    if transform.rows != n or transform.cols != n:
        raise ValueError("transform shape does not match the algebra")
    inv = transform.inverse()
    columns = [transform.column(i) for i in range(n)]
    return LieAlgebra(_alternating(n, {
        (i, j): inv.apply(algebra.bracket(columns[i], columns[j]))
        for i in range(n)
        for j in range(i + 1, n)
    }))
