"""Obstruction machinery for inner post-Lie algebras.

Given an inner post-Lie algebra with witness w (so ad_{w(x)} is the left
multiplication by x), the defect c(x,y) = [w(x), w(y)] - w([x,y]_sub) is a
center-valued 2-cocycle on the sub-adjacent algebra.  The structure comes
from a Rota-Baxter operator exactly when that cocycle is a coboundary
c(x,y) = -t([x,y]_sub) for some t into the center, and then w - t is such
an operator.

Every step reads the integer rows that the algebras and the cochain hold;
scalars are built only for t and for the values that a caller reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm
from typing import Mapping, NamedTuple, Sequence

from .errors import NontrivialObstructionError, NotInnerError, NotRotaBaxterError
from .lie import (
    LieAlgebra,
    StructureTable,
    Subspace,
    _alternating_rows,
    _coefficient_rows,
    _cyclic_failures,
    _entry,
    _EntryBuilder,
    _held,
    _integer_form,
    _IntegerForm,
    _least_scale,
    _left_products,
    _lie_algebra,
    _null_subspace,
    _scalar_table,
    _sparse,
    _times,
    center,
)
from .postlie import (
    LinearMap,
    PostLieAlgebra,
    _bracket_defects,
    _is_homomorphism,
    _rota_baxter_tables,
    _sub_adjacent_rows,
    innerness_witness,
    is_witness,
    sub_adjacent,
)
from .scalars import (
    IntegerRow,
    ScalarLike,
    Vector,
    _echelon,
    _solve,
    vector,
)


@dataclass(frozen=True, init=False)
class LieTwoCochain:
    """An alternating 2-cochain on K^n with values inside a center subspace,
    held as integer rows like a ``LieAlgebra``; ``values`` is the view."""

    ambient: int
    center_basis: Subspace
    _integer: _IntegerForm

    def __init__(
        self, ambient: int, center_basis: Subspace, values: StructureTable
    ) -> None:
        n = ambient
        if center_basis.ambient_dim != n or len(values) != n or any(
            len(row) != n or any(len(v) != n for v in row) for row in values
        ):
            raise ValueError("cochain table shape mismatch")
        form = _integer_form(values)
        rows = form.rows
        for i in range(n):
            if rows[i][i]:
                raise ValueError("cochain not alternating on the diagonal")
            for j in range(i + 1, n):
                if rows[j][i] != _times(rows[i][j], -1):
                    raise ValueError("cochain table not antisymmetric")
                if not center_basis.contains(values[i][j]):
                    raise ValueError(f"cochain value at ({i},{j}) lies outside the center")
        state = dict(ambient=ambient, center_basis=center_basis, _integer=form, values=values)
        self.__dict__.update(state)

    @cached_property
    def values(self) -> StructureTable:
        return _scalar_table(self._integer)

    @staticmethod
    def from_pairs(
        ambient: int,
        center_basis: Subspace,
        pairs: Mapping[tuple[int, int], Sequence[ScalarLike]],
    ) -> "LieTwoCochain":
        for i, j in pairs:
            if not (0 <= i < j < ambient):
                raise ValueError("cochain pairs must satisfy i < j")
        # The refusals come in the order of the table constructor's: every
        # scalar before any shape, every shape before any centrality.
        values = {key: vector(value) for key, value in pairs.items()}
        table = _EntryBuilder(ambient)
        for (i, j), value in values.items():
            table.add(i, j, _entry(ambient, value, "cochain table shape mismatch"))
        if center_basis.ambient_dim != ambient:
            raise ValueError("cochain table shape mismatch")
        for (i, j), value in sorted(values.items()):
            if not center_basis.contains(value):
                raise ValueError(f"cochain value at ({i},{j}) lies outside the center")
        form = table.form()
        return _held(LieTwoCochain, ambient=ambient, center_basis=center_basis, _integer=form)

    def value(self, i: int, j: int) -> Vector:
        return self.values[i][j]


class RbReconstruction(NamedTuple):
    operator: LinearMap
    witness: LinearMap
    cocycle: LieTwoCochain
    correction: LinearMap


def obstruction_cocycle(p: PostLieAlgebra, witness: LinearMap) -> LieTwoCochain:
    """The defect [w(x), w(y)] - w([x,y]_sub) on basis pairs.

    Values must land in the center; anything else means the supplied map is
    not a witness and is rejected.
    """
    if not is_witness(p, witness):
        raise ValueError("supplied map is not an innerness witness for this product")
    return _defect(p, witness, sub_adjacent(p), center(p.base))


def _defect(
    p: PostLieAlgebra, witness: LinearMap, sub: LieAlgebra, z: Subspace
) -> LieTwoCochain:
    """``obstruction_cocycle`` for a known witness, on the sub-adjacent
    algebra ``sub``, with values in the center ``z`` of ``p.base``: the
    defect of the bracket law of w from ``sub`` to ``p.base``, on integer
    rows (``_bracket_defects``).  A value v is central when every [v, e_q]
    is zero (``_left_products``); the first pair i < j that is not is named.
    """
    n = p.dim
    scale, defects = _bracket_defects(witness._integer, sub._integer, p.base._integer)
    pairs = sorted(((i, j), _sparse(re, im)) for i, j, re, im in defects)
    brackets = _left_products((row for _, row in pairs), p.base._integer.rows)
    for ((i, j), _), products in zip(pairs, brackets):
        if any(products):
            raise ValueError(f"cochain value at ({i},{j}) lies outside the center")
    form = _least_scale(_IntegerForm(scale, _alternating_rows(n, dict(pairs))))
    return _held(LieTwoCochain, ambient=n, center_basis=z, _integer=form)


def verify_lie_2cocycle(cochain: LieTwoCochain, sub: LieAlgebra) -> bool:
    """Cyclic cocycle identity over the sub-adjacent bracket on basis triples."""
    if cochain.ambient != sub.dim:
        raise ValueError("cochain and algebra dimensions differ")
    return next(_cyclic_failures(sub._integer.rows, cochain._integer.rows), None) is None


def _coboundary_echelon(
    brackets: Sequence[IntegerRow], values: Sequence[IntegerRow], n: int
) -> dict[int, dict[int, tuple[int, int]]] | None:
    """The one decision of the class: the ``_echelon`` of the rows
    [brackets[r] | values[r]] in 2n columns, or None when one leads in the
    value block, an equation 0 = nonzero of kappa = -t o sub.  Row r holds
    +-[e_i, e_j]_sub and kappa(e_i, e_j) for the r-th pair i < j, each block
    times a nonzero integer, which moves no leading column."""
    leaders = _echelon(
        bracket + tuple((n + k, a, b) for k, a, b in value)
        for bracket, value in zip(brackets, values)
    )
    return None if any(lead >= n for lead in leaders) else leaders


def coboundary_solve(cochain: LieTwoCochain, sub: LieAlgebra) -> LinearMap | None:
    """Find t into the center with cochain(x,y) = -t([x,y]_sub), or None.

    ``_coboundary_echelon`` decides on the rows -[e_i, e_j]_sub, i < j,
    beside the n components of cochain(e_i, e_j), both on the lcm of the
    two held scales; for a trivial class ``scalars._solve`` back-substitutes
    that echelon, and the canonical solution of component k is row k of t.
    Each column t(e_l) is then one fixed combination of cochain values,
    which are central (checked where the cochain was made): t maps into
    the center.
    """
    n = sub.dim
    if cochain.ambient != n:
        raise ValueError("cochain and algebra dimensions differ")
    brackets, values = sub._integer, cochain._integer
    scale = lcm(brackets.scale, values.scale)
    f, g = scale // brackets.scale, scale // values.scale
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # -[e_i, e_j]_sub is the mirror entry of the alternating table.
    leaders = _coboundary_echelon(
        [_times(brackets.rows[j][i], f) for i, j in pairs],
        [_times(values.rows[i][j], g) for i, j in pairs],
        n,
    )
    if leaders is None:
        return None
    # Solution k holds row k of t: its columns are the transpose.
    scale, rows = _solve(leaders, n, 2 * n).solutions
    columns = [[] for _ in range(n)]
    for k, row in enumerate(rows):
        for m, a, b in row:
            columns[m].append((k, a, b))
    t = _IntegerForm(scale, tuple(map(tuple, columns)))
    return _held(LinearMap, _integer=t)


def construct_rb_from_obstruction(
    p: PostLieAlgebra, witness: LinearMap | None = None
) -> RbReconstruction:
    """Full pipeline: witness, defect cocycle, coboundary solve, operator.

    Assumes the post-Lie axioms hold (callers validate).  Raises
    NotInnerError when some left multiplication is not inner and
    NontrivialObstructionError when the cocycle is not a coboundary.  On
    success the reconstructed operator provably induces the given product.
    The sub-adjacent bracket of a post-Lie algebra satisfies Jacobi (a
    consequence of the axioms), so it is built without a Jacobi check.
    """
    if witness is None:
        witness = innerness_witness(p)
        if witness is None:
            raise NotInnerError("left multiplications are not all inner derivations")
    elif not is_witness(p, witness):
        raise ValueError("supplied map is not an innerness witness for this product")
    sub = _lie_algebra(_sub_adjacent_rows(p.base._integer, p._integer))
    cochain = _defect(p, witness, sub, center(p.base))
    if not verify_lie_2cocycle(cochain, sub):
        raise AssertionError("defect of a valid witness must be a 2-cocycle")
    correction = coboundary_solve(cochain, sub)
    if correction is None:
        raise NontrivialObstructionError(
            "obstruction class is nonzero: no Rota-Baxter operator induces this product"
        )
    operator = witness - correction
    if not is_witness(p, operator):
        raise AssertionError("reconstructed operator does not reproduce the product")
    # [R(x), y] = x > y, so the Rota-Baxter identity says that R is a
    # homomorphism from the sub-adjacent algebra of p.
    if not _is_homomorphism(operator._integer, sub._integer, p.base._integer):
        raise AssertionError("reconstructed operator fails the Rota-Baxter identity")
    return RbReconstruction(operator, witness, cochain, correction)


def pullback_algebra(p: PostLieAlgebra) -> LieAlgebra:
    """Subalgebra of sub-adjacent (+) base pairs (x, y) with ad_y = left mult by x.

    The pairs are the null space N of [C(tc) | -C(sc)].  Its canonical
    basis vectors that lead in the first n columns number dim pi_x(N), and
    the others span {0} x Z, so p is inner exactly when n of them lead
    there; the dimension is then dim + dim center.  Rejects non-inner input,
    whose first projection would not be onto.

    Assumes ``p.base`` is a Lie algebra (callers validate); ``sub_adjacent``
    refuses a sub-adjacent bracket that fails Jacobi.  Then sub (+) base is
    a Lie algebra, and N, closed under its bracket (``coordinates_of``
    checks each product), is a Lie subalgebra: the result satisfies Jacobi
    without a check.
    """
    n = p.dim
    basis = _null_subspace(_coefficient_rows((p._integer, 1), (p.base._integer, -1)), 2 * n)
    if sum(lead < n for lead in basis.pivots) < n:
        raise NotInnerError("pullback requires an inner post-Lie algebra")
    sub = sub_adjacent(p)
    # [v_b, v_a] = -[v_a, v_b] and [v_a, v_a] = 0, so the pairs a < b
    # decide closure and give the whole table.
    table = _EntryBuilder(basis.dim)
    for a in range(basis.dim):
        va = basis.basis[a]
        for b in range(a + 1, basis.dim):
            vb = basis.basis[b]
            product = sub.bracket(va[:n], vb[:n]) + p.base.bracket(va[n:], vb[n:])
            coords = basis.coordinates_of(product)
            if coords is None:
                raise AssertionError("pullback is not closed under the bracket")
            table.add(a, b, _entry(basis.dim, coords))
    return _held(LieAlgebra, _integer=table.form())


def rb_difference_cocycle(
    algebra: LieAlgebra, first: LinearMap, second: LinearMap
) -> LinearMap | None:
    """Difference of two Rota-Baxter operators inducing the same product.

    Assumes ``algebra`` is a Lie algebra (callers validate).  Returns t =
    second - first when both operators induce the same product, None when
    the induced products differ.  Raises NotRotaBaxterError, naming the
    first input that fails the Rota-Baxter identity.

    t is a central 1-cocycle by a theorem, so it is not checked.  Equal
    induced tables say [t(e_i), e_j] = 0 for all i, j, so t maps into the
    center.  Both operators are then homomorphisms from the same
    sub-adjacent bracket, and with t central
    R2([x,y]_sub) = [R1 x + t x, R1 y + t y] = [R1 x, R1 y] = R1([x,y]_sub),
    so t vanishes on the sub-adjacent brackets.
    """
    tables = []
    for name, operator in (("first", first), ("second", second)):
        pair = _rota_baxter_tables(algebra, operator)
        if pair is None:
            raise NotRotaBaxterError(f"{name} map fails the Rota-Baxter identity")
        tables.append(pair)
    # On its least scale a table's integer rows are unique.
    (induced, _), (other, _) = tables
    if _least_scale(induced) != _least_scale(other):
        return None
    return second - first
