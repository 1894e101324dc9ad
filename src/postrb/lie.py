"""Finite-dimensional Lie algebras presented by exact structure constants.

A ``LieAlgebra`` holds its table c[i][j][k], [e_i, e_j] = sum_k
c[i][j][k] e_k, as integer rows on its least scale L (``_IntegerForm``):
per entry (i, j), the nonzero coefficients of L c[i][j] as Gaussian
integers.  These rows are unique, so equality and hashing compare them.  A
table of scalars enters once, at the constructor (``_integer_form``),
which checks there that it is antisymmetric; a table built here, in a
pipeline or by the document parser is alternating by construction and
enters as rows (``_lie_algebra``).  The table of scalars ``sc`` is a view, built from the
rows (``_scalar_table``) once, for a caller that asks.  Subspaces are kept
in reduced row echelon form.

Every product given by such a table (the bracket, a post-Lie product, the
induced product [R(x), y]) is evaluated on rows: ``_accumulate`` adds
combinations of rows into plain ``int`` lists, ``_left_products`` gives
[u, e_q] for every basis vector e_q, and ``_product`` one product x.y of
vectors of scalars.  The linear map x -> (y -> x.y) of a table has the
matrix C whose integer rows ``_coefficient_rows`` reads off the held rows
(its columns are ``_ad_rows``).  The center, the derivations, the inner
derivations, the innerness witness and the pullback are each one
``scalars._solve`` of integer rows (these, ``_derivation_rows`` or
``_ad_rows``), with no matrix of scalars in between; scalars are built
only for the ``Subspace`` or map a caller is returned.

The table identities (Jacobi, the post-Lie axioms, the cocycle identity,
the Rota-Baxter identity) ask whether sums of products of table entries
are zero.  Each is homogeneous in each table, so it is decided on the held
rows; where an identity adds entries of two tables, they are taken on the
lcm of the two scales.  The fingerprint is read off the same rows: the
center, the Killing form, the derivations and the derived and lower
central series are ranks of integer rows (``scalars._rank``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm
from typing import Iterable, Iterator, Mapping, Sequence

from .scalars import (
    ExactMatrix,
    IntegerRow,
    ScalarLike,
    Vector,
    _integer_row,
    _integer_rows,
    _IntegerForm,
    _least_vectors,
    _rank,
    _row_basis,
    _scalar_row,
    _scalar_rows,
    _solve,
    is_zero_vector,
    unit_vector,
    vector,
    zero_vector,
)

StructureTable = tuple[tuple[Vector, ...], ...]
# Entry (i, j) holds the (k, a, b) with L table[i][j][k] = a + b*i != 0.
IntegerTable = tuple[tuple[IntegerRow, ...], ...]


def _held(cls: type, **state: object):
    """An instance of the frozen dataclass ``cls`` with the given state,
    which this library built and does not check again.  A scalar view is a
    ``cached_property``: it keeps its value in the instance dict too."""
    held = object.__new__(cls)
    held.__dict__.update(state)
    return held


def _alternating(n: int, upper: Mapping[tuple[int, int], Vector]) -> StructureTable:
    """The n x n table with ``upper[i, j]`` at (i, j) for the given pairs
    i < j, its negation at (j, i) and the zero vector everywhere else."""
    zero = zero_vector(n)
    table = [[zero] * n for _ in range(n)]
    for (i, j), value in upper.items():
        table[i][j] = value
        table[j][i] = tuple(-x for x in value)
    return tuple(map(tuple, table))


def _alternating_rows(n: int, upper: Mapping[tuple[int, int], IntegerRow]) -> IntegerTable:
    """``_alternating`` for integer rows."""
    table: list[list[IntegerRow]] = [[()] * n for _ in range(n)]
    for (i, j), row in upper.items():
        table[i][j] = row
        table[j][i] = _times(row, -1)
    return tuple(map(tuple, table))


def _times(row: IntegerRow, factor: int) -> IntegerRow:
    """``row`` times the integer ``factor``."""
    return row if factor == 1 else tuple((k, factor * a, factor * b) for k, a, b in row)


def _integer_vectors(vectors: Sequence[Vector]) -> _IntegerForm:
    """Vectors of scalars as integer rows on one scale, the lcm of the
    denominators of their entries: the least scale they share."""
    scale = lcm(*{x.d for v in vectors for x in v})
    return _IntegerForm(scale, tuple(_integer_row(v, scale) for v in vectors))


def _table(entries: _IntegerForm, n: int) -> _IntegerForm:
    """The n^2 integer ``entries`` of an n x n table, row after row, as
    that table."""
    scale, rows = entries
    return _IntegerForm(scale, tuple(rows[i * n : (i + 1) * n] for i in range(n)))


def _integer_form(table: StructureTable) -> _IntegerForm:
    """The integer rows of an n x n table of scalars on its least scale.
    Every table of scalars that a caller hands in is converted here, once."""
    return _table(_integer_vectors([v for row in table for v in row]), len(table))


def _least_scale(form: _IntegerForm) -> _IntegerForm:
    """The table ``form`` on its least scale (``_least_vectors`` of its
    entries): the result is ``_integer_form`` of the scalar table."""
    entries = _IntegerForm(form.scale, [v for row in form.rows for v in row])
    least = _least_vectors(entries)
    return form if least is entries else _table(least, len(form.rows))


def _scalar_table(form: _IntegerForm) -> StructureTable:
    """The table of scalars whose integer rows are ``form``: the one
    builder of the scalar views ``sc``, ``tc`` and ``values``, and of a
    table that a caller is returned."""
    n = len(form.rows)
    zero = zero_vector(n)
    return tuple(
        tuple(_scalar_row(entry, n, form.scale) if entry else zero for entry in row)
        for row in form.rows
    )


def _sparse(re: Sequence[int], im: Sequence[int]) -> IntegerRow:
    """The nonzero (k, re[k], im[k])."""
    return tuple((k, x, y) for k, (x, y) in enumerate(zip(re, im)) if x or y)


def _accumulate(
    re: list[int],
    im: list[int],
    coefficients: IntegerRow,
    rows: Sequence[IntegerRow],
    factor: int = 1,
) -> None:
    """Add factor * sum of (a + b*i) rows[m] over (m, a, b) in
    ``coefficients`` into the real parts ``re`` and imaginary parts ``im``."""
    for m, a, b in coefficients:
        if factor != 1:
            a, b = factor * a, factor * b
        if b:
            for q, c, e in rows[m]:
                re[q] += a * c - b * e
                im[q] += a * e + b * c
        else:
            for q, c, e in rows[m]:
                re[q] += a * c
                im[q] += a * e


def _combine(
    coefficients: IntegerRow, rows: Sequence[IntegerRow], n: int, factor: int = 1
) -> IntegerRow:
    """The integer row of width n of ``_accumulate`` from zero."""
    re, im = [0] * n, [0] * n
    _accumulate(re, im, coefficients, rows, factor)
    return _sparse(re, im)


def _vector_rows(n: int, *xs: Sequence[ScalarLike]) -> _IntegerForm:
    """Vectors of n scalars as integer rows on one scale."""
    vectors = tuple(map(vector, xs))
    if any(len(v) != n for v in vectors):
        raise ValueError("vector has wrong length")
    return _integer_vectors(vectors)


def _product(form: _IntegerForm, x: Sequence[ScalarLike], y: Sequence[ScalarLike]) -> Vector:
    """x.y = sum_{m,j} x_m y_j table[m][j] for the table with integer rows
    ``form`` on L, and x and y on S: the sum is on S^2 L."""
    n = len(form.rows)
    scale, (u, v) = _vector_rows(n, x, y)
    # e_m.y for each m in the support of x.
    right = {m: _combine(v, form.rows[m], n) for m, _, _ in u}
    return _scalar_row(_combine(u, right, n), n, scale * scale * form.scale)


@dataclass(frozen=True, init=False)
class LieAlgebra:
    """A Lie bracket on K^n, held as the integer rows ``_integer`` of its
    structure constants on their least scale; ``sc`` is its table of
    scalars.  The Jacobi identity is a checkable property."""

    _integer: _IntegerForm

    def __init__(self, sc: StructureTable) -> None:
        """Reject a table that is not cubic or not antisymmetric.

        The mirror (j, i, k) of a bad triple (i, j, k) is bad too, so the
        first in lexicographic order has i <= j; two sparse rows differ at
        the coordinates of their symmetric difference.
        """
        n = len(sc)
        if any(len(row) != n or any(len(v) != n for v in row) for row in sc):
            raise ValueError("structure table is not cubic")
        form = _integer_form(sc)
        for i in range(n):
            for j in range(i, n):
                upper, mirror = form.rows[i][j], _times(form.rows[j][i], -1)
                if upper != mirror:
                    k = min(k for k, _, _ in set(upper) ^ set(mirror))
                    raise ValueError(f"structure constants not antisymmetric at ({i},{j},{k})")
        self.__dict__.update(_integer=form, sc=sc)

    @cached_property
    def sc(self) -> StructureTable:
        return _scalar_table(self._integer)

    @property
    def dim(self) -> int:
        return len(self._integer.rows)

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
        return _product(self._integer, x, y)


def _lie_algebra(form: _IntegerForm) -> LieAlgebra:
    """The Lie algebra of the alternating table with integer rows ``form``,
    held on their least scale."""
    return _held(LieAlgebra, _integer=_least_scale(form))


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
        return _row_space(_integer_rows(rows), ambient_dim)

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        n = ambient_dim
        return Subspace(n, tuple(unit_vector(n, k) for k in range(n)), tuple(range(n)))

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
    brackets: IntegerTable, products: IntegerTable
) -> Iterator[tuple[int, int, int]]:
    """Basis triples i<j<k, in order, where the cyclic sum
    v([e_i,e_j], e_k) + v([e_j,e_k], e_i) + v([e_k,e_i], e_j)
    is nonzero, for the integer rows ``brackets`` of the bracket table and
    ``products`` of the bilinear table of v.  Each term pairs an entry of
    one with an entry of the other, so each sum is the true one times the
    product of their scales, whatever the two scales are."""
    n = len(brackets)
    # v(u, e_k) = sum_m u_m products[m][k]: column k of ``products``.
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
    rows = algebra._integer.rows
    return tuple(_cyclic_failures(rows, rows))


def check_jacobi(algebra: LieAlgebra) -> bool:
    return not jacobi_violations(algebra)


def ad_matrix(algebra: LieAlgebra, x: Sequence[ScalarLike]) -> ExactMatrix:
    """Matrix of y -> [x, y] in the algebra basis (columns are images): the
    products [x, e_j] on integer rows (``_left_products``)."""
    n, table = algebra.dim, algebra._integer
    scale, u = _vector_rows(n, x)
    (products,) = _left_products(u, table.rows)
    scale *= table.scale
    return ExactMatrix.from_columns([_scalar_row(c, n, scale) for c in products])


def _coefficient_rows(*blocks: tuple[_IntegerForm, int]) -> list[list[tuple[int, int, int]]]:
    """The integer rows of [f_1 C(T_1) | f_2 C(T_2) | ...] for the tables T
    and integer factors f of ``blocks``, every table on the lcm of their
    scales.  C(T) is the matrix of x -> (y -> x.y) flattened row-major:
    row k*n + j, column c holds T[c][j][k], the e_k-coefficient of e_c.e_j,
    so for a bracket table column c is ad e_c flattened (``_ad_rows``)."""
    n = len(blocks[0][0].rows)
    scale = lcm(*(table.scale for table, _ in blocks))
    rows: list[list[tuple[int, int, int]]] = [[] for _ in range(n * n)]
    for offset, (table, factor) in enumerate(blocks):
        f = factor * (scale // table.scale)
        for c, products in enumerate(table.rows):
            for j, entry in enumerate(products):
                for k, a, b in entry:
                    rows[k * n + j].append((offset * n + c, f * a, f * b))
    return rows


def _null_basis(rows: Iterable[IntegerRow], n: int) -> tuple[_IntegerForm, tuple[int, ...]]:
    """The null space of the Gaussian-integer ``rows`` in n unknowns, in
    its canonical (reduced row echelon) basis on its least scale, and the
    leading column of each basis vector.  One ``_solve`` of the
    column-reversed rows: reversed back, each vector of its null basis
    leads with its 1 and vanishes on the other free columns."""
    flipped = (tuple((n - 1 - k, a, b) for k, a, b in reversed(row)) for row in rows)
    scale, basis = _solve(flipped, n, n).kernel
    basis = tuple(tuple((n - 1 - k, a, b) for k, a, b in reversed(v)) for v in reversed(basis))
    return _IntegerForm(scale, basis), tuple(v[0][0] for v in basis)


def _null_subspace(rows: Iterable[IntegerRow], n: int) -> Subspace:
    """``_null_basis`` as a ``Subspace``."""
    basis, pivots = _null_basis(rows, n)
    return Subspace(n, _scalar_rows(basis, n), pivots)


def _row_space(rows: Iterable[IntegerRow], n: int) -> Subspace:
    """The span of the Gaussian-integer ``rows`` of width n: the reduced
    rows of their ``_solve``."""
    solved = _solve(rows, n, n)
    return Subspace(n, _scalar_rows(solved.reduced, n), solved.pivots)


def center(algebra: LieAlgebra) -> Subspace:
    """The x with [x, e_j] = 0 for every j: the null space of C(sc)."""
    return _null_subspace(_coefficient_rows((algebra._integer, 1)), algebra.dim)


def derivations(algebra: LieAlgebra) -> Subspace:
    """Solution space of D[x,y] = [Dx,y] + [x,Dy], flattened row-major in K^(n^2)."""
    return _null_subspace(_derivation_rows(algebra._integer.rows), algebra.dim**2)


def _derivation_rows(table: IntegerTable) -> Iterator[IntegerRow]:
    """The equations of the derivations on integer rows: one per i < j and
    component k, D[e_i,e_j]_k - [D e_i,e_j]_k - [e_i,D e_j]_k = 0 in the
    unknown D[p][q] at p*n + q, times the scale of ``table``."""
    n = len(table)
    # parts[i][k] holds the (p, a, b) with [e_i, e_p]_k = a + b*i.
    parts = [[[] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for p in range(n):
            for k, a, b in table[i][p]:
                parts[i][k].append((p, a, b))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                row: dict[int, tuple[int, int]] = {}
                # D applied to [e_i, e_j]; -[D e_i, e_j]_k = sum_p D[p][i]
                # [e_j, e_p]_k; -[e_i, D e_j]_k = -sum_p D[p][j] [e_i, e_p]_k.
                terms = [(k * n + q, a, b) for q, a, b in table[i][j]]
                terms += [(p * n + i, a, b) for p, a, b in parts[j][k]]
                terms += [(p * n + j, -a, -b) for p, a, b in parts[i][k]]
                for c, a, b in terms:
                    x, y = row.get(c, (0, 0))
                    row[c] = (x + a, y + b)
                yield tuple((c, a, b) for c, (a, b) in sorted(row.items()) if a or b)


def inner_derivations(algebra: LieAlgebra) -> Subspace:
    """The span of the ad e_i, flattened row-major in K^(n^2)."""
    return _row_space(_ad_rows(algebra._integer.rows), algebra.dim**2)


def _killing_rows(table: IntegerTable) -> tuple[IntegerRow, ...]:
    """Killing form K(x,y) = tr(ad x ad y) on the basis, read off the table:
    K(e_i, e_j) = sum_{k,l} c_il^k c_jk^l, times the square of its scale."""
    n = len(table)
    # ads[i][k, l] is entry (k, l) of ad e_i: the e_k-part of [e_i, e_l].
    ads = [{(k, l): (a, b) for l in range(n) for k, a, b in table[i][l]} for i in range(n)]
    form = [[(0, 0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            re = im = 0
            other = ads[j]
            for (k, l), (a, b) in ads[i].items():
                if (l, k) in other:
                    c, e = other[l, k]
                    re += a * c - b * e
                    im += a * e + b * c
            form[i][j] = form[j][i] = (re, im)
    return tuple(_sparse(*zip(*row)) for row in form)


def killing_semisimple(algebra: LieAlgebra) -> tuple[ExactMatrix, bool]:
    """Killing form on the basis and whether it is nondegenerate: the
    ``_killing_rows`` as scalars, and their rank."""
    n, (scale, table) = algebra.dim, algebra._integer
    rows = _killing_rows(table)
    form = ExactMatrix(tuple(_scalar_row(row, n, scale * scale) for row in rows), n)
    return form, _rank(rows) == n


def _ad_rows(table: IntegerTable) -> tuple[IntegerRow, ...]:
    """ad e_c flattened row-major for each c, [e_c, e_j]_k at k*n + j: the
    columns of C(sc) (``_coefficient_rows``), so they have its rank."""
    n = len(table)
    return tuple(
        tuple(sorted((k * n + j, a, b) for j in range(n) for k, a, b in table[c][j]))
        for c in range(n)
    )


def is_complete(algebra: LieAlgebra) -> bool:
    """Zero center and every derivation inner.

    The ad e_c have rank n - dim center and span the inner derivations, so
    both are read off that one rank.
    """
    n = algebra.dim
    rows = algebra._integer.rows
    inner = _rank(_ad_rows(rows))
    return inner == n and n * n - _rank(_derivation_rows(rows)) == inner


def _left_products(vectors: Iterable[IntegerRow], table: IntegerTable) -> IntegerTable:
    """[u, e_q] for each u of ``vectors`` and each q, on the product of the
    scales: sum_m u_m table[m][q], with table[m][q] = -table[q][m] read off
    row q of the alternating ``table``."""
    n = len(table)
    return tuple(tuple(_combine(u, table[q], n, -1) for q in range(n)) for u in vectors)


def _series_dims(table: IntegerTable) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The dimensions of the derived and of the lower central series, each
    from [g, g] on, up to the first zero or repeat.

    Both start at [g, g], the span of the table rows [e_i, e_j] with i < j.
    A derived step brackets the basis pairs u < v of the term,
    [u, v] = sum_q v_q [u, e_q]; a lower central step spans the [v, e_q] of
    each basis vector v.  Each term is the ``_row_basis`` of these integer
    rows, whose scale does not change their span.
    """
    n = len(table)
    commutator = _row_basis(table[i][j] for i in range(n) for j in range(i + 1, n))

    def derived(basis: tuple[IntegerRow, ...]) -> Iterator[IntegerRow]:
        for k, u in enumerate(basis):
            products = _left_products((u,), table)[0]
            for v in basis[k + 1 :]:
                yield _combine(v, products, n)

    def lower_central(basis: tuple[IntegerRow, ...]) -> Iterator[IntegerRow]:
        return (column for row in _left_products(basis, table) for column in row)

    found = []
    for step in (derived, lower_central):
        dims, term = [len(commutator)], commutator
        while dims[-1]:
            term = _row_basis(step(term))
            if len(term) == dims[-1]:
                break
            dims.append(len(term))
        found.append(tuple(dims))
    return found[0], found[1]


def invariant_fingerprint(algebra: LieAlgebra) -> Fingerprint:
    """Every entry is a rank of integer rows of the held table
    (``_row_basis``): the dimensions of the center and of the derivations
    are n - rank and n^2 - rank of their defining systems."""
    n = algebra.dim
    rows = algebra._integer.rows
    derived_dims, lower_central_dims = _series_dims(rows)
    return Fingerprint(
        dim=n,
        center_dim=n - _rank(_ad_rows(rows)),
        killing_rank=_rank(_killing_rows(rows)),
        derived_dims=derived_dims,
        lower_central_dims=lower_central_dims,
        derivation_dim=n * n - _rank(_derivation_rows(rows)),
    )


def change_basis(algebra: LieAlgebra, transform: ExactMatrix) -> LieAlgebra:
    """Push the bracket through an invertible transform T (columns = new
    basis): the new [e_i, e_j] is T^-1 [T e_i, T e_j].

    On integer rows, with T's columns on L_T, T^-1's on L_I and the bracket
    on L: [T e_i, e_q] is on L_T L (``_left_products``), [T e_i, T e_j] on
    L_T^2 L, and its image under T^-1 on L_T^2 L L_I.
    """
    n = algebra.dim
    if transform.rows != n or transform.cols != n:
        raise ValueError("transform shape does not match the algebra")
    inverse = transform.inverse()
    columns = _integer_vectors([transform.column(j) for j in range(n)])
    inverse = _integer_vectors([inverse.column(j) for j in range(n)])
    table = algebra._integer
    products = _left_products(columns.rows, table.rows)
    upper = {}
    for i in range(n):
        for j in range(i + 1, n):
            image = _combine(columns.rows[j], products[i], n)
            upper[i, j] = _combine(image, inverse.rows, n)
    scale = columns.scale**2 * table.scale * inverse.scale
    return _lie_algebra(_IntegerForm(scale, _alternating_rows(n, upper)))
