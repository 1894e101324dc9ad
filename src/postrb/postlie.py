"""Post-Lie algebras: axioms, sub-adjacent bracket, Rota-Baxter constructions.

The product table t[i][j][k], e_i > e_j = sum_k t[i][j][k] e_k, is held
as a ``LieAlgebra`` holds its bracket: integer rows on their least scale,
with ``tc`` a view.  A ``LinearMap`` holds its columns the same way, with
``matrix`` a view, and the innerness witness comes out of the one integer
solve (``scalars._solve``) as columns.  The induced product [R(x), y] is
built as rows by ``_induced_rows``, and the sub-adjacent table
x>y - y>x + [x,y] by ``_sub_adjacent_rows`` alone, for the axioms,
``sub_adjacent``, the Rota-Baxter test, the reconstruction and the tower.
Every axiom and homomorphism law is decided on rows; scalars are built only
for the tables a caller is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm
from typing import Iterator, Mapping, Sequence

from .errors import NotRotaBaxterError
from .lie import (
    LieAlgebra,
    StructureTable,
    _accumulate,
    _alternating_rows,
    _coefficient_rows,
    _combine,
    _entry,
    _EntryBuilder,
    _held,
    _integer_form,
    _IntegerForm,
    _lie_algebra,
    _least_scale,
    _left_products,
    _product,
    _scalar_table,
    _vector_rows,
    check_jacobi,
)
from .scalars import (
    ExactMatrix,
    IntegerRow,
    ScalarLike,
    Vector,
    _integer_vectors,
    _scalar_row,
    _scalar_rows,
    _solve,
    vector,
)


@dataclass(frozen=True, init=False)
class LinearMap:
    """A linear operator on the algebra, held as the integer rows
    ``_integer`` of its columns, the images of the basis vectors, on their
    least scale; ``matrix`` is its matrix of scalars, a view.  A matrix of
    scalars enters once, at the constructor, and a map this library builds
    enters as rows (``lie._held``).  ``apply``, ``column`` and
    ``plus_identity`` run on the rows; the sum, difference and negation are
    taken on ``matrix``."""

    _integer: _IntegerForm

    def __init__(self, matrix: ExactMatrix) -> None:
        if matrix.rows != matrix.cols:
            raise ValueError("linear maps on an algebra must be square")
        columns = _integer_vectors([matrix.column(j) for j in range(matrix.cols)])
        self.__dict__.update(_integer=columns, matrix=matrix)

    @cached_property
    def matrix(self) -> ExactMatrix:
        n = self.dim
        return ExactMatrix(tuple(zip(*_scalar_rows(self._integer, n))), n)

    @staticmethod
    def from_columns(cols: Sequence[Sequence[ScalarLike]]) -> "LinearMap":
        # No columns give the map on the zero space.
        return _held(LinearMap, _integer=_vector_rows(len(cols), *cols))

    @staticmethod
    def from_rows(rows: Sequence[Sequence[ScalarLike]]) -> "LinearMap":
        # No rows give the map on the zero space.
        if not rows:
            return LinearMap.zero(0)
        return LinearMap(ExactMatrix.from_rows(rows))

    @staticmethod
    def zero(n: int) -> "LinearMap":
        return _held(LinearMap, _integer=_IntegerForm(1, ((),) * n))

    @staticmethod
    def identity(n: int) -> "LinearMap":
        columns = tuple(((k, 1, 0),) for k in range(n))
        return _held(LinearMap, _integer=_IntegerForm(1, columns))

    @property
    def dim(self) -> int:
        return len(self._integer.rows)

    def apply(self, vec: Sequence[ScalarLike]) -> Vector:
        v = vector(vec)
        if len(v) != self.dim:
            raise ValueError("vector length does not match matrix width")
        (scale, (u,)), (s, columns) = _integer_vectors([v]), self._integer
        return _scalar_row(_combine(u, columns, self.dim), self.dim, scale * s)

    def column(self, j: int) -> Vector:
        return _scalar_row(self._integer.rows[j], self.dim, self._integer.scale)

    def __add__(self, other: "LinearMap") -> "LinearMap":
        return LinearMap(self.matrix + other.matrix)

    def __sub__(self, other: "LinearMap") -> "LinearMap":
        return LinearMap(self.matrix - other.matrix)

    def __neg__(self) -> "LinearMap":
        return LinearMap(-self.matrix)

    def plus_identity(self) -> "LinearMap":
        # Column j of L(M + I) is L M e_j + L e_j.  Its parts differ from
        # those of L M by multiples of L, so they share the same gcd with L:
        # the columns keep their least scale.
        scale, columns = self._integer
        units = LinearMap.identity(self.dim)._integer.rows
        shifted = tuple(
            _combine((*column, (j, scale, 0)), units, self.dim)
            for j, column in enumerate(columns)
        )
        return _held(LinearMap, _integer=_IntegerForm(scale, shifted))


@dataclass(frozen=True, init=False)
class PostLieAlgebra:
    """A product x > y on the space of ``base``, held as the integer rows
    ``_integer`` of its table on their least scale; ``tc`` is its table of
    scalars."""

    base: LieAlgebra
    _integer: _IntegerForm

    def __init__(self, base: LieAlgebra, tc: StructureTable) -> None:
        n = base.dim
        if len(tc) != n or any(len(row) != n or any(len(v) != n for v in row) for row in tc):
            raise ValueError("triangle table shape does not match the base algebra")
        self.__dict__.update(base=base, _integer=_integer_form(tc), tc=tc)

    @cached_property
    def tc(self) -> StructureTable:
        return _scalar_table(self._integer)

    @property
    def dim(self) -> int:
        return self.base.dim

    @staticmethod
    def from_table(
        base: LieAlgebra, table: Sequence[Sequence[Sequence[ScalarLike]]]
    ) -> "PostLieAlgebra":
        cooked = tuple(tuple(vector(v) for v in row) for row in table)
        return PostLieAlgebra(base, cooked)

    @staticmethod
    def from_products(
        base: LieAlgebra, products: Mapping[tuple[int, int], Sequence[ScalarLike]]
    ) -> "PostLieAlgebra":
        # The refusals come in the order of the table constructor's: every
        # index and scalar is checked before any length.
        n, values = base.dim, {}
        for (i, j), value in products.items():
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"product index ({i},{j}) out of range")
            values[i, j] = vector(value)
        table = _EntryBuilder(n, alternating=False)
        wrong = "triangle table shape does not match the base algebra"
        for (i, j), value in values.items():
            table.add(i, j, _entry(n, value, wrong))
        return _held(PostLieAlgebra, base=base, _integer=table.form())

    def triangle(self, x: Sequence[ScalarLike], y: Sequence[ScalarLike]) -> Vector:
        return _product(self._integer, x, y)


@dataclass(frozen=True)
class PostLieReport:
    """All violating basis triples, empty means the axioms hold."""

    derivation_failures: tuple[tuple[int, int, int], ...]
    weighted_failures: tuple[tuple[int, int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.derivation_failures and not self.weighted_failures


def check_postlie_axioms(p: PostLieAlgebra) -> PostLieReport:
    """Check x>[y,z] = [x>y,z]+[y,x>z] and the weighted associativity.

    The failures are the basis triples (i, j, k), in lexicographic order,
    where the derivation identity
        D(i,j,k):  e_i > [e_j,e_k] = [e_i > e_j, e_k] + [e_j, e_i > e_k]
    or the weighted identity
        W(i,j,k):  [e_i,e_j]_sub > e_k = e_i > (e_j > e_k) - e_j > (e_i > e_k)
    fails, [x,y]_sub = x>y - y>x + [x,y] being the sub-adjacent bracket.
    Each identity is antisymmetric in one pair of indices, so half of the
    triples decide it.  A ``LieAlgebra`` bracket table is antisymmetric, so
    both sides of D change sign when j and k are swapped: D(i,j,k) fails
    exactly when D(i,k,j) does.  The sub-adjacent table is antisymmetric
    too, so both sides of W change sign when i and j are swapped.  On the
    diagonal both sides of each identity are zero.  So D is checked for
    j < k and W for i < j, and each failing triple is reported together
    with its mirror.

    Both identities are decided on the held integer rows, the bracket on
    L_s and the product on L_t.  Every term of D pairs an entry of each,
    so each side of D is the true side times L_s L_t.  The sub-adjacent
    table is on L = lcm(L_s, L_t) (``_sub_adjacent_rows``), so the left
    side of W is on L L_t and the right side, times L/L_t, too.
    [e_j, v] and e_i > v are combinations of row j of the bracket table and
    row i of the product table, v > e_k one of column k of the product
    table (``_accumulate``), and [e_i>e_j, e_k] is -[e_k, e_i>e_j].
    """
    n = p.dim
    brackets, products = p.base._integer, p._integer
    s, t = brackets.rows, products.rows
    derivation_bad = []
    for i in range(n):
        ti = t[i]
        for j in range(n):
            for k in range(j + 1, n):
                re, im = [0] * n, [0] * n
                _accumulate(re, im, s[j][k], ti)
                _accumulate(re, im, ti[k], s[j], -1)
                _accumulate(re, im, ti[j], s[k])
                if any(re) or any(im):
                    derivation_bad += [(i, j, k), (i, k, j)]
    weighted_bad = []
    sub = _sub_adjacent_rows(brackets, products)
    factor = sub.scale // products.scale
    columns = [[row[k] for row in t] for k in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                re, im = [0] * n, [0] * n
                _accumulate(re, im, sub.rows[i][j], columns[k])
                _accumulate(re, im, t[j][k], t[i], -factor)
                _accumulate(re, im, t[i][k], t[j], factor)
                if any(re) or any(im):
                    weighted_bad += [(i, j, k), (j, i, k)]
    return PostLieReport(tuple(sorted(derivation_bad)), tuple(sorted(weighted_bad)))


def _sub_adjacent_rows(brackets: _IntegerForm, products: _IntegerForm) -> _IntegerForm:
    """The table of x>y - y>x + [x,y] for the integer rows of a bracket
    table on L_s and of a product table on L_t, on L = lcm(L_s, L_t): the
    product entries times L/L_t, the bracket entry times L/L_s.

    For the induced product x > y = [Rx, y] this is the bracket
    [Rx,y] + [x,Ry] + [x,y] of the Rota-Baxter identity and of the tower.
    It is alternating as the bracket is, so only the pairs i < j are
    computed.
    """
    n = len(brackets.rows)
    scale = lcm(brackets.scale, products.scale)
    ft, fs = scale // products.scale, scale // brackets.scale
    s, t = brackets.rows, products.rows
    upper = {}
    for i in range(n):
        for j in range(i + 1, n):
            terms = (t[i][j], t[j][i], s[i][j])
            upper[i, j] = _combine(((0, ft, 0), (1, -ft, 0), (2, fs, 0)), terms, n)
    return _IntegerForm(scale, _alternating_rows(n, upper))


def sub_adjacent(p: PostLieAlgebra) -> LieAlgebra:
    """The bracket x>y - y>x + [x,y]; valid input yields a Lie algebra."""
    result = _lie_algebra(_sub_adjacent_rows(p.base._integer, p._integer))
    if not check_jacobi(result):
        raise ValueError("sub-adjacent bracket fails Jacobi: input is not post-Lie")
    return result


def induced_table(algebra: LieAlgebra, operator: LinearMap) -> StructureTable:
    """The table of x > y = [R(x), y]: row i holds the products [R(e_i), e_j]."""
    return _scalar_table(_induced_rows(algebra, operator))


def _induced_rows(algebra: LieAlgebra, operator: LinearMap) -> _IntegerForm:
    """``induced_table`` as integer rows: entry (i, b) is [R e_i, e_b] on
    L_R L_s, from R's columns on L_R and the bracket on L_s
    (``_left_products``)."""
    if operator.dim != algebra.dim:
        raise ValueError("operator dimension does not match the algebra")
    columns, brackets = operator._integer, algebra._integer
    return _IntegerForm(
        columns.scale * brackets.scale, _left_products(columns.rows, brackets.rows)
    )


def is_homomorphism(
    mapping: LinearMap, upper_table: StructureTable, lower: LieAlgebra
) -> bool:
    """True when [f(e_i), f(e_j)] = f(upper_table[i][j]) in ``lower`` for i < j.

    Both sides are bilinear and antisymmetric, so pairs i < j suffice; they
    are compared on integer rows (``_is_homomorphism``).
    """
    if mapping.dim != lower.dim or len(upper_table) != lower.dim:
        raise ValueError("map and tables have different dimensions")
    return _is_homomorphism(mapping._integer, _integer_form(upper_table), lower._integer)


def _is_homomorphism(
    mapping: _IntegerForm,
    upper: _IntegerForm,
    lower: _IntegerForm,
    products: Sequence[Sequence[IntegerRow]] | None = None,
) -> bool:
    """``is_homomorphism`` for the integer columns of f and the integer
    tables of the upper and the lower bracket: every defect of
    ``_bracket_defects`` is zero.  It stops at the first bad pair."""
    _, defects = _bracket_defects(mapping, upper, lower, products)
    return not any(any(re) or any(im) for _, _, re, im in defects)


def _bracket_defects(
    mapping: _IntegerForm,
    upper: _IntegerForm,
    lower: _IntegerForm,
    products: Sequence[Sequence[IntegerRow]] | None = None,
) -> tuple[int, Iterator[tuple[int, int, list[int], list[int]]]]:
    """A scale S and, for each pair i < j in turn, [f(e_i), f(e_j)] -
    f(upper_ij) on S as the lists of its real and imaginary parts, for the
    integer columns F of f on L_f and the upper and lower tables on L_u and
    L_l.

    products[i][q] = [f(e_i), e_q] on L_f L_l (``_left_products``, formed
    here when not given).  Then sum_q F_j[q] products[i][q] is
    [f(e_i), f(e_j)] on L_f^2 L_l, and sum_m U_ij[m] F_m is f(U_ij) on
    L_u L_f.  With g = gcd(L_u, L_f L_l) the first times L_u/g and the
    second times L_f L_l/g are both on S = L_f^2 L_l L_u / g, their lcm.
    """
    columns = mapping.rows
    if products is None:
        products = _left_products(columns, lower.rows)
    g = gcd(upper.scale, mapping.scale * lower.scale)
    left, right = upper.scale // g, mapping.scale * lower.scale // g
    n = len(columns)

    def defects() -> Iterator[tuple[int, int, list[int], list[int]]]:
        for j in range(n):
            for i in range(j):
                re, im = [0] * n, [0] * n
                _accumulate(re, im, columns[j], products[i], left)
                _accumulate(re, im, upper.rows[i][j], columns, -right)
                yield i, j, re, im

    return mapping.scale * mapping.scale * lower.scale * left, defects()


def _rota_baxter_tables(
    algebra: LieAlgebra, operator: LinearMap
) -> tuple[_IntegerForm, _IntegerForm] | None:
    """The induced table of [R(x), y] and its sub-adjacent table, as integer
    rows on one scale, or None when R fails the weight-1 identity
    [Rx,Ry] = R([Rx,y] + [x,Ry] + [x,y]).

    With R's columns on L_R and the bracket on L_s, the induced table is
    on L_R L_s (``_induced_rows``), and so is the sub-adjacent table
    (``_sub_adjacent_rows``), whose entry is
    [R e_i, e_j] - [R e_j, e_i] + L_R [e_i, e_j].  The identity says that R
    is a homomorphism from the sub-adjacent bracket to the algebra: both
    sides of each pair are on L_R^2 L_s, and ``_is_homomorphism`` stops at
    the first bad pair.  No scalar is built; a caller that returns a table
    converts it (``lie._scalar_table``).
    """
    induced = _induced_rows(algebra, operator)
    sub = _sub_adjacent_rows(algebra._integer, induced)
    if not _is_homomorphism(operator._integer, sub, algebra._integer, induced.rows):
        return None
    return induced, sub


def check_rota_baxter(algebra: LieAlgebra, operator: LinearMap) -> bool:
    """Weight-1 identity [Rx,Ry] = R([Rx,y] + [x,Ry] + [x,y]) on basis pairs
    i < j; the comparison stops at the first bad pair and builds no table
    of scalars."""
    return _rota_baxter_tables(algebra, operator) is not None


def from_rota_baxter(algebra: LieAlgebra, operator: LinearMap) -> PostLieAlgebra:
    """The induced product x > y = [R(x), y]; rejects non-Rota-Baxter input."""
    tables = _rota_baxter_tables(algebra, operator)
    if tables is None:
        raise NotRotaBaxterError("operator fails the weight-1 Rota-Baxter identity")
    return _held(PostLieAlgebra, base=algebra, _integer=_least_scale(tables[0]))


def innerness_witness(p: PostLieAlgebra) -> LinearMap | None:
    """Canonical witness with ad_{w(e_i)} equal to the left multiplication by e_i.

    Column i of w solves C(sc) w_i = column i of C(tc), where C(T) is the
    matrix of x -> (y -> x.y) (``lie._coefficient_rows``); all n columns
    are solved by one ``_solve`` on integer rows, free variables set to
    zero, so the witness is deterministic.  Row (k, j)
    of that system reads [w(e_i), e_j]_k = (e_i > e_j)_k, so a solution is a
    witness (``is_witness``) by construction.  Returns None when some left
    multiplication is not an inner derivation.
    """
    n = p.dim
    solved = _solve(_coefficient_rows((p.base._integer, 1), (p._integer, 1)), n, 2 * n)
    return None if solved.solutions is None else _held(LinearMap, _integer=solved.solutions)


def is_witness(p: PostLieAlgebra, candidate: LinearMap) -> bool:
    """True when [candidate(x), y] equals x > y on all basis pairs: the
    induced table on its least scale has the held rows of the product."""
    return (
        candidate.dim == p.dim
        and _least_scale(_induced_rows(p.base, candidate)) == p._integer
    )
